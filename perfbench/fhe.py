"""Workloads ``fhe-single`` and ``ckks-batch8``: FHE requests on the
scheme evaluators, one client in a closed loop.

Parameters for every scheme: ring degree n=4096, 8 limbs, dnum=4.
Each request's result is decrypted and checked against a plaintext
model outside its timed interval: CKKS slots against the same
arithmetic on the messages (giving precision bits), BGV and BFV slots
exactly mod t (plus the BGV noise budget).
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from time import perf_counter

import numpy as np

from repro.batch import BatchRequest, execute_batched
from repro.obs import TRACER
from repro.schemes.bfv import BfvContext, BfvParams, BfvScheme
from repro.schemes.bgv import BgvContext, BgvParams, BgvScheme
from repro.schemes.ckks import (
    CkksContext,
    CkksEvaluator,
    CkksParams,
    Decryptor,
    Encryptor,
    KeyGenerator,
)

import layers

RING_N = 4096
LIMBS = 8
DNUM = 4
HOIST_STEPS = (1, 2, 3, 4, 6, 8, 12, 16)
#: One block of ``fhe-single``: exact request counts per op, shuffled
#: by the seed.  Sorted by latency the ops fall in the order below, so
#: p50 (50%) lands inside the multiply+rescale cluster (15-60%) and
#: p90 inside the hoisted-rotation cluster (80-100%), clear of every
#: cluster boundary.
SINGLE_MIX = (("ckks_rotate", 3), ("ckks_mul_rescale", 9),
              ("bgv_mul_ms2", 2), ("bfv_mul", 2), ("ckks_hoisted", 4))
#: Encrypted inputs per scheme for ``fhe-single``.
POOL = 4
#: ``ckks-batch8``: requests per op per burst (the fused width k).
BATCH_K = 8
BATCH_POOL = 16
#: Correctness floors.  CKKS results are approximate: at scale 2^25 a
#: correct result keeps about 8 bits of precision at worst, a wrong
#: one none.  BGV and BFV results must decrypt exactly, and a BGV
#: result with no noise budget left is wrong however it decrypts.
CKKS_MIN_PREC_BITS = 6.0
BGV_MIN_BUDGET_BITS = 1


class CheckFailed(AssertionError):
    """A decrypted result disagrees with the plaintext model."""


class Health:
    """Worst numeric health seen over all checked results."""

    def __init__(self):
        self.ckks_prec_bits_min = math.inf
        self.bgv_budget_bits_min = math.inf

    def ckks(self, got, want, terms: int = 1) -> None:
        """Precision of a decrypted result; ``terms`` > 1 for a +-1
        sum of that many results, whose error is at most ``terms``
        times the worst one's, so ``err / terms`` stands for it."""
        err = float(np.max(np.abs(np.asarray(got) - want))) / terms
        bits = -math.log2(err) if err > 0 else 64.0
        self.ckks_prec_bits_min = min(self.ckks_prec_bits_min, bits)
        if bits < CKKS_MIN_PREC_BITS:
            raise CheckFailed(f"CKKS precision {bits:.2f} bits")

    def bgv(self, budget: int) -> None:
        self.bgv_budget_bits_min = min(self.bgv_budget_bits_min, budget)
        if budget < BGV_MIN_BUDGET_BITS:
            raise CheckFailed(f"BGV noise budget {budget} bits")

    def metrics(self) -> dict:
        out = {}
        if self.ckks_prec_bits_min != math.inf:
            out["ckks_prec_bits_min"] = self.ckks_prec_bits_min
        if self.bgv_budget_bits_min != math.inf:
            out["bgv_budget_bits_min"] = float(self.bgv_budget_bits_min)
        return out


def _exact(got, want, what: str) -> None:
    if not np.array_equal(np.asarray(got), np.asarray(want)):
        raise CheckFailed(f"{what} decrypts to a wrong result")


# ----------------------------------------------------------------------
# CKKS pieces shared by both workloads
# ----------------------------------------------------------------------
class Ckks:
    """Context, keys and encrypted pool of messages for one seed."""

    def __init__(self, seed: int, pool: int):
        params = CkksParams(n=RING_N, levels=LIMBS - 1, dnum=DNUM,
                            scale_bits=25, q0_bits=29, p_bits=30,
                            seed=seed)
        self.ctx = CkksContext(params)
        keygen = KeyGenerator(self.ctx)
        sk = keygen.gen_secret()
        pk = keygen.gen_public(sk)
        keys = keygen.gen_keychain(sk, rotations=list(HOIST_STEPS))
        self.ev = CkksEvaluator(self.ctx, keys)
        self.dec = Decryptor(self.ctx, sk)
        enc = Encryptor(self.ctx, pk)
        rng = np.random.default_rng([seed, 1])
        slots = params.slots
        self.msgs = [rng.uniform(-1, 1, slots) + 1j * rng.uniform(-1, 1, slots)
                     for _ in range(pool)]
        self.cts = [enc.encrypt(self.ctx.encode(z)) for z in self.msgs]

    def decode(self, ct):
        return self.ctx.decode(self.dec.decrypt(ct))

    def check_hoisted(self, health: Health, out: dict, i: int,
                      signs) -> None:
        """All outputs of one hoisted rotation in one decryption: a
        +-1 combination of the rotated ciphertexts against the same
        combination of rotated messages.  A wrong rotation moves the
        combination by O(1), far below the floor."""
        ev = self.ev
        combo = None
        want = 0
        for step, sign in zip(HOIST_STEPS, signs):
            ct = out[step]
            want = want + sign * np.roll(self.msgs[i], -step)
            if combo is None:
                combo = ct if sign > 0 else ev.negate(ct)
            else:
                combo = ev.add(combo, ct) if sign > 0 else ev.sub(combo, ct)
        health.ckks(self.decode(combo), want, terms=len(HOIST_STEPS))


def _timed(op: str, fn):
    """A unit of one request: ``fn`` inside its op span, timed."""
    def unit():
        t0 = perf_counter()
        with TRACER.span("schemes.op." + op):
            out = fn()
        return out, [perf_counter() - t0]
    return unit


# ----------------------------------------------------------------------
# fhe-single
# ----------------------------------------------------------------------
class FheSingleState:
    def __init__(self, seed: int):
        self.ckks = Ckks(seed, POOL)
        rng = np.random.default_rng([seed, 3])
        self.bgv = BgvScheme(BgvContext(BgvParams(
            n=RING_N, q_count=LIMBS, dnum=DNUM, q_bits=28, seed=seed)))
        self.bgv_sk = self.bgv.gen_secret()
        self.bgv.gen_relin(self.bgv_sk)
        t = self.bgv.ctx.t
        self.bgv_x = [rng.integers(0, t, RING_N) for _ in range(2 * POOL)]
        self.bgv_cts = [self.bgv.encrypt(x, self.bgv_sk) for x in self.bgv_x]
        self.bfv = BfvScheme(BfvContext(BfvParams(
            n=RING_N, q_count=LIMBS, dnum=DNUM, q_bits=28, seed=seed)))
        self.bfv_sk = self.bfv.gen_secret()
        self.bfv.gen_relin(self.bfv_sk)
        t = self.bfv.ctx.t
        self.bfv_x = [rng.integers(0, t, RING_N) for _ in range(2 * POOL)]
        self.bfv_cts = [self.bfv.encrypt(x, self.bfv_sk) for x in self.bfv_x]
        self.health = Health()
        # One warm-up of every op (plan and key-table caches fill here).
        for op, _ in SINGLE_MIX:
            self.op((op, 0, 1, HOIST_STEPS[1], None))()

    def op(self, req):
        """The timed unit for request ``(op, i, j, step, signs)``."""
        op, i, j, step, _ = req
        c = self.ckks
        if op == "ckks_hoisted":
            return _timed(op, lambda: c.ev.rotate_hoisted(c.cts[i],
                                                          HOIST_STEPS))
        if op == "ckks_mul_rescale":
            return _timed(op, lambda: c.ev.rescale(
                c.ev.multiply(c.cts[i], c.cts[j])))
        if op == "ckks_rotate":
            return _timed(op, lambda: c.ev.rotate(c.cts[i], step))
        if op == "bgv_mul_ms2":
            return _timed(op, lambda: self.bgv.mod_switch(
                self.bgv.multiply(self.bgv_cts[i], self.bgv_cts[POOL + j]),
                2))
        assert op == "bfv_mul"
        return _timed(op, lambda: self.bfv.multiply(
            self.bfv_cts[i], self.bfv_cts[POOL + j]))

    def check(self, req):
        op, i, j, step, signs = req
        c = self.ckks

        def check(out):
            if op == "ckks_hoisted":
                c.check_hoisted(self.health, out, i, signs)
            elif op == "ckks_mul_rescale":
                self.health.ckks(c.decode(out), c.msgs[i] * c.msgs[j])
            elif op == "ckks_rotate":
                self.health.ckks(c.decode(out), np.roll(c.msgs[i], -step))
            elif op == "bgv_mul_ms2":
                t = self.bgv.ctx.t
                _exact(self.bgv.decrypt(out, self.bgv_sk),
                       self.bgv_x[i] * self.bgv_x[POOL + j] % t, op)
                self.health.bgv(self.bgv.noise_budget_bits(out,
                                                           self.bgv_sk))
            else:
                t = self.bfv.ctx.t
                _exact(self.bfv.decrypt(out, self.bfv_sk),
                       self.bfv_x[i] * self.bfv_x[POOL + j] % t, op)
        return check


def _single_block(rng) -> list:
    """One shuffled block of ``SINGLE_MIX`` requests
    ``(op, i, j, step, signs)``."""
    ops = [op for op, count in SINGLE_MIX for _ in range(count)]
    rng.shuffle(ops)
    block = []
    for op in ops:
        i, j = (int(v) for v in rng.integers(0, POOL, 2))
        step = int(rng.choice(HOIST_STEPS))
        signs = tuple(int(s) for s in rng.choice((-1, 1), len(HOIST_STEPS)))
        block.append((op, i, j, step, signs))
    return block


class FheSingle:
    name = "fhe-single"
    ring_n = RING_N
    unit_name = "request"

    def setup(self, seed: int):
        return FheSingleState(seed)

    def measure(self, state, rec, seed: int, collector) -> None:
        rng = np.random.default_rng([seed, 2])
        while not rec.done:
            for req in _single_block(rng):
                rec.run(state.op(req), 1, state.check(req))
        collector.drain()

    def extra(self, state) -> dict:
        return state.health.metrics()


# ----------------------------------------------------------------------
# ckks-batch8
# ----------------------------------------------------------------------
class Batch8State:
    def __init__(self, seed: int):
        self.ckks = Ckks(seed, BATCH_POOL)
        self.health = Health()
        for burst in _batch_block(np.random.default_rng([seed, 4])):
            self.unit(burst)()

    def unit(self, burst):
        """One burst: ``BATCH_K`` requests of one op go to
        ``execute_batched`` at once, which fuses them into one group
        (products go back for a fused rescale).  Every request's
        latency is the burst's: results return together."""
        requests, _ = burst
        ev = self.ckks.ev
        cts = self.ckks.cts
        op = requests[0][0]

        def unit():
            reqs = [BatchRequest(op, cts[i], cts[j] if op == "multiply"
                                 else HOIST_STEPS)
                    for _, i, j in requests]
            t0 = perf_counter()
            results = execute_batched(ev, reqs)
            if op == "multiply":
                results = execute_batched(
                    ev, [BatchRequest("rescale", ct) for ct in results])
            return results, [perf_counter() - t0] * len(requests)
        return unit

    def check(self, burst):
        requests, signs = burst
        c = self.ckks

        def check(results):
            for (op, i, j), out in zip(requests, results):
                if op == "rotate_hoisted":
                    c.check_hoisted(self.health, out, i, signs)
                else:
                    self.health.ckks(c.decode(out), c.msgs[i] * c.msgs[j])
        return check


#: One ``ckks-batch8`` block: bursts per op, in a seeded order.  The
#: multiply+rescale bursts are the faster two thirds of the requests,
#: so p50 falls inside them; the hoisted-rotation bursts are the top
#: third, so p90 falls inside those.
BATCH_MIX = (("multiply", 2), ("rotate_hoisted", 1))


def _batch_block(rng) -> list:
    """Bursts ``(requests, hoisted signs)``: ``BATCH_K`` requests
    ``(op, i, j)`` of one op on distinct pool ciphertexts."""
    bursts = []
    ops = [op for op, count in BATCH_MIX for _ in range(count)]
    for op in rng.permutation(ops):
        picks = rng.choice(BATCH_POOL, size=2 * BATCH_K, replace=False)
        requests = [(str(op), int(picks[k]), int(picks[BATCH_K + k]))
                    for k in range(BATCH_K)]
        signs = tuple(int(s) for s in rng.choice((-1, 1), len(HOIST_STEPS)))
        bursts.append((requests, signs))
    return bursts


class CkksBatch8:
    name = "ckks-batch8"
    ring_n = RING_N
    unit_name = "ciphertext request"

    def setup(self, seed: int):
        return Batch8State(seed)

    def measure(self, state, rec, seed: int, collector) -> None:
        rng = np.random.default_rng([seed, 2])
        ev = state.ckks.ev
        if rec.trace:
            op = "schemes.op."
            layers.wrap_methods(ev, {
                "batch_rotate_hoisted": op + "ckks_hoisted",
                "batch_multiply": op + "ckks_mul_rescale",
                "batch_rescale": op + "ckks_mul_rescale",
            })
        with layers.batch_wrappers() if rec.trace else nullcontext():
            while not rec.done:
                for burst in _batch_block(rng):
                    rec.run(state.unit(burst), BATCH_K,
                            state.check(burst))
        collector.drain()

    def extra(self, state) -> dict:
        return state.health.metrics()
