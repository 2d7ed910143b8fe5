/*
 * Native radix-2 negacyclic NTT kernels behind repro.nttmath.BatchedNTT.
 *
 * The same dataflow the numpy kernels in batched.py spell out, one row
 * at a time: Shoup multiplication against precomputed 32-bit twiddle
 * companions w' = floor(w * 2^32 / q), and Harvey's lazy butterflies
 * ("Faster arithmetic for number-theoretic transforms", 2014) with
 * values riding in [0, 2q) / [0, 4q) until one final canonicalisation.
 * Both operands of every Shoup multiply are first folded below 2q, so
 * x < 2^32 holds for every modulus below 2^31 and one code path serves
 * 30-bit and 31-bit chains alike.  Outputs are canonical residues, so
 * they are bitwise identical to the numpy kernels and to the per-limb
 * %-based reference.
 *
 * Layout: rows of the (rows, n) stack are independent; row r uses limb
 * r % limbs, whose twiddle tables are the rows of (limbs, n) uint64
 * tables with the given row strides (in elements).  Per-limb scalars
 * come packed as consts[limb * 5 + {0..4}] =
 * {q, n^-1, (n^-1)', psi_inv^br[1] * n^-1, (psi_inv^br[1] * n^-1)'}.
 *
 * Plain C99, no intrinsics; build with e.g.
 *   cc -O3 -march=native -shared -fPIC _ntt_kernel.c -o _ntt_kernel.so
 */

#include <stddef.h>
#include <stdint.h>

typedef uint64_t u64;
typedef uint32_t u32;

/* x * w mod q landed in [0, 2q); needs x < 2^32 and w < q < 2^31.
 * Every factor fits 32 bits, so each product is one 32x32->64 multiply;
 * the difference is exact modulo 2^64 and its true value is < 2q. */
static inline u64 shoup(u64 x, u64 w, u64 wsh, u64 q)
{
    u64 hi = ((u64)(u32)x * (u32)wsh) >> 32;
    return (u64)(u32)x * (u32)w - (u64)(u32)hi * (u32)q;
}

/* [0, 2 * bound) -> [0, bound) */
static inline u64 csub(u64 x, u64 bound)
{
    return x >= bound ? x - bound : x;
}

/* Copy one int64 row into the uint64 work row, reducing mod q when the
 * caller asked for it.  For -2^51 <= x < 2^51 the quotient comes from
 * one double multiply: the estimate lies within 1/(2q) of x/q, so its
 * truncation T is within 1 + 1/(2q) of it and r = x - T*q lies in
 * [-q, q]; one conditional add lands it in [0, q], a valid input to
 * both transforms (they accept anything below 2q).  Rows holding a
 * wider value redo the exact integer %. */
static void load_row(u64 *restrict dst, const int64_t *restrict src,
                     ptrdiff_t n, u64 q, int reduce)
{
    if (!reduce) {
        for (ptrdiff_t j = 0; j < n; j++)
            dst[j] = (u64)src[j];
        return;
    }
    const int64_t qs = (int64_t)q;
    const double qinv = 1.0 / (double)q;
    const u64 big = (u64)1 << 51;
    u64 wide = 0;
    for (ptrdiff_t j = 0; j < n; j++) {
        int64_t x = src[j];
        /* nonzero unless -2^51 <= x < 2^51 */
        wide |= ((u64)x + big) >> 52;
        /* unsigned, so the wide rows redone below cannot overflow */
        int64_t t = (int64_t)((double)x * qinv);
        int64_t r = (int64_t)((u64)x - (u64)t * q);
        r += r < 0 ? qs : 0;
        dst[j] = (u64)r;
    }
    if (wide) {
        for (ptrdiff_t j = 0; j < n; j++) {
            int64_t r = src[j] % qs;
            dst[j] = (u64)(r < 0 ? r + qs : r);
        }
    }
}

/* One Cooley-Tukey butterfly group: inputs below 4q, outputs below 4q. */
static inline void ct_group(u64 *restrict x, u64 *restrict y, ptrdiff_t t,
                            u64 s, u64 ssh, u64 q)
{
    const u64 q2 = 2 * q;
    for (ptrdiff_t j = 0; j < t; j++) {
        u64 u = csub(x[j], q2);
        u64 v = shoup(csub(y[j], q2), s, ssh, q);
        x[j] = u + v;
        y[j] = u - v + q2;
    }
}

/* One Gentleman-Sande butterfly group: inputs and outputs below 2q. */
static inline void gs_group(u64 *restrict x, u64 *restrict y, ptrdiff_t t,
                            u64 s, u64 ssh, u64 q)
{
    const u64 q2 = 2 * q;
    for (ptrdiff_t j = 0; j < t; j++) {
        u64 xv = x[j], yv = y[j];
        x[j] = csub(xv + yv, q2);
        y[j] = shoup(csub(xv - yv + q2, q2), s, ssh, q);
    }
}

/* Cooley-Tukey DIT stages, natural order in, bit-reversed order out.
 * Inputs may be anywhere in [0, 4q); values stay below 4q throughout.
 * Stages with t < 8 spell their group width as a constant so the
 * compiler can vectorize across it. */
static void forward_row(u64 *restrict a, ptrdiff_t n, u64 q,
                        const u64 *restrict w, const u64 *restrict wsh)
{
    ptrdiff_t t = n;
    for (ptrdiff_t m = 1; m < n; m <<= 1) {
        t >>= 1;
        switch (t) {
        case 1:
            for (ptrdiff_t i = 0; i < m; i++)
                ct_group(a + 2 * i, a + 2 * i + 1, 1, w[m + i], wsh[m + i],
                         q);
            break;
        case 2:
            for (ptrdiff_t i = 0; i < m; i++)
                ct_group(a + 4 * i, a + 4 * i + 2, 2, w[m + i], wsh[m + i],
                         q);
            break;
        case 4:
            for (ptrdiff_t i = 0; i < m; i++)
                ct_group(a + 8 * i, a + 8 * i + 4, 4, w[m + i], wsh[m + i],
                         q);
            break;
        default:
            for (ptrdiff_t i = 0; i < m; i++)
                ct_group(a + 2 * i * t, a + 2 * i * t + t, t, w[m + i],
                         wsh[m + i], q);
        }
    }
    const u64 q2 = 2 * q;
    for (ptrdiff_t j = 0; j < n; j++)
        a[j] = csub(csub(a[j], q2), q);
}

/* Gentleman-Sande DIF stages, bit-reversed order in, natural order out.
 * Inputs below 2q; values stay below 2q.  With `scale` the final stage
 * folds in the 1/n scaling: its difference branch multiplies by the
 * merged psi_inv^br[1] * n^-1 and its sum branch by n^-1. */
static void inverse_row(u64 *restrict a, ptrdiff_t n, u64 q,
                        const u64 *restrict w, const u64 *restrict wsh,
                        const u64 *restrict c, int scale)
{
    ptrdiff_t t = 1;
    for (ptrdiff_t m = n; m > 2; m >>= 1, t <<= 1) {
        const ptrdiff_t h = m >> 1;
        switch (t) {
        case 1:
            for (ptrdiff_t i = 0; i < h; i++)
                gs_group(a + 2 * i, a + 2 * i + 1, 1, w[h + i], wsh[h + i],
                         q);
            break;
        case 2:
            for (ptrdiff_t i = 0; i < h; i++)
                gs_group(a + 4 * i, a + 4 * i + 2, 2, w[h + i], wsh[h + i],
                         q);
            break;
        case 4:
            for (ptrdiff_t i = 0; i < h; i++)
                gs_group(a + 8 * i, a + 8 * i + 4, 4, w[h + i], wsh[h + i],
                         q);
            break;
        default:
            for (ptrdiff_t i = 0; i < h; i++)
                gs_group(a + 2 * i * t, a + 2 * i * t + t, t, w[h + i],
                         wsh[h + i], q);
        }
    }
    /* final stage: m == 2, one twiddle across the two row halves */
    u64 *restrict x = a;
    u64 *restrict y = a + t;
    const u64 q2 = 2 * q;
    if (scale) {
        const u64 ninv = c[1], ninv_sh = c[2], s = c[3], ssh = c[4];
        for (ptrdiff_t j = 0; j < t; j++) {
            u64 xv = x[j], yv = y[j];
            x[j] = csub(shoup(csub(xv + yv, q2), ninv, ninv_sh, q), q);
            y[j] = csub(shoup(csub(xv - yv + q2, q2), s, ssh, q), q);
        }
    } else {
        const u64 s = w[1], ssh = wsh[1];
        for (ptrdiff_t j = 0; j < t; j++) {
            u64 xv = x[j], yv = y[j];
            x[j] = csub(csub(xv + yv, q2), q);
            y[j] = csub(shoup(csub(xv - yv + q2, q2), s, ssh, q), q);
        }
    }
}

void repro_ntt_forward(int64_t *out, const int64_t *in, ptrdiff_t in_stride,
                       ptrdiff_t rows, ptrdiff_t n, ptrdiff_t limbs,
                       const u64 *consts,
                       const u64 *w, ptrdiff_t w_stride,
                       const u64 *wsh, ptrdiff_t wsh_stride, int reduce)
{
    for (ptrdiff_t r = 0; r < rows; r++) {
        const ptrdiff_t limb = r % limbs;
        const u64 q = consts[limb * 5];
        u64 *row = (u64 *)(out + r * n);
        load_row(row, in + r * in_stride, n, q, reduce);
        forward_row(row, n, q, w + limb * w_stride, wsh + limb * wsh_stride);
    }
}

void repro_ntt_inverse(int64_t *out, const int64_t *in, ptrdiff_t in_stride,
                       ptrdiff_t rows, ptrdiff_t n, ptrdiff_t limbs,
                       const u64 *consts,
                       const u64 *w, ptrdiff_t w_stride,
                       const u64 *wsh, ptrdiff_t wsh_stride, int reduce,
                       int scale)
{
    for (ptrdiff_t r = 0; r < rows; r++) {
        const ptrdiff_t limb = r % limbs;
        const u64 *c = consts + limb * 5;
        u64 *row = (u64 *)(out + r * n);
        load_row(row, in + r * in_stride, n, c[0], reduce);
        inverse_row(row, n, c[0], w + limb * w_stride,
                    wsh + limb * wsh_stride, c, scale);
    }
}
