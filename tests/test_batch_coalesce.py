"""The batching planner: grouping, ordering, row caps, telemetry,
the ``REPRO_BATCH_MAX_ROWS`` knob, every scheme's batch ops against
the sequential ``stacked=False`` reference, and the typed error for
ops a scheme lacks."""

import numpy as np
import pytest

from repro.batch import (
    BatchRequest,
    coalesce,
    default_max_rows,
    execute_batched,
)
from repro.obs import TRACER
from repro.rns.poly import RnsPolynomial
from repro.schemes.bfv import BfvContext, BfvEvaluator, BfvParams, BfvScheme
from repro.schemes.bgv import BgvContext, BgvEvaluator, BgvParams, BgvScheme
from repro.schemes.ckks import (
    CkksContext,
    CkksEvaluator,
    CkksParams,
    Encryptor,
    KeyGenerator,
)
from repro.schemes.rns_core import Plaintext


@pytest.fixture(scope="module")
def ckks():
    params = CkksParams(n=2 ** 7, levels=4, dnum=2, scale_bits=25,
                        q0_bits=29, p_bits=30, seed=2024)
    ctx = CkksContext(params)
    keygen = KeyGenerator(ctx)
    sk = keygen.gen_secret()
    pk = keygen.gen_public(sk)
    keys = keygen.gen_keychain(sk, rotations=[1, 3])
    enc = Encryptor(ctx, pk)
    ev = CkksEvaluator(ctx, keys)
    rng = np.random.default_rng(3)
    cts = []
    for _ in range(8):
        z = (rng.uniform(-1, 1, params.slots)
             + 1j * rng.uniform(-1, 1, params.slots))
        cts.append(enc.encrypt(ctx.encode(z)))
    pt = ctx.encode(rng.uniform(-1, 1, params.slots))
    return ctx, ev, cts, pt


def test_coalesce_groups_same_shape_requests(ckks):
    _, ev, cts, _ = ckks
    reqs = [BatchRequest("rotate", ct, arg=1) for ct in cts[:4]]
    groups = coalesce(reqs)
    assert len(groups) == 1
    assert [idx for idx, _ in groups[0]] == [0, 1, 2, 3]


def test_coalesce_splits_on_shape_and_arg(ckks):
    _, ev, cts, _ = ckks
    low = ev.drop_level(cts[2], 2)
    reqs = [
        BatchRequest("rotate", cts[0], arg=1),
        BatchRequest("rotate", cts[1], arg=3),   # different step
        BatchRequest("rotate", low, arg=1),      # different basis
        BatchRequest("negate", cts[3]),          # different op
        BatchRequest("rotate", cts[4], arg=1),   # fuses with request 0
    ]
    groups = coalesce(reqs)
    assert [[idx for idx, _ in g] for g in groups] == \
        [[0, 4], [1], [2], [3]]


def test_coalesce_respects_max_rows(ckks):
    _, ev, cts, _ = ckks
    limbs = len(cts[0].basis)
    reqs = [BatchRequest("negate", ct) for ct in cts[:6]]
    # Cap at two ciphertexts' worth of rows per fused stack.
    groups = coalesce(reqs, max_rows=4 * limbs)
    assert [len(g) for g in groups] == [2, 2, 2]
    # Unbounded fuses everything.
    assert [len(g) for g in coalesce(reqs, max_rows=0)] == [6]


def test_coalesce_rejects_unknown_op(ckks):
    _, _, cts, _ = ckks
    with pytest.raises(ValueError, match="unknown batchable op"):
        coalesce([BatchRequest("frobnicate", cts[0])])


def test_execute_batched_matches_sequential(ckks):
    _, ev, cts, pt = ckks
    reqs = [
        BatchRequest("rotate", cts[0], arg=1),
        BatchRequest("multiply_plain", cts[1], arg=pt),
        BatchRequest("rotate", cts[2], arg=1),
        BatchRequest("add", cts[3], arg=cts[4]),
        BatchRequest("rotate_hoisted", cts[5], arg=(0, 1, 3)),
        BatchRequest("negate", cts[6]),
    ]
    results = execute_batched(ev, reqs)
    want = [
        ev.rotate(cts[0], 1),
        ev.multiply_plain(cts[1], pt),
        ev.rotate(cts[2], 1),
        ev.add(cts[3], cts[4]),
        ev.rotate_hoisted(cts[5], (0, 1, 3)),
        ev.negate(cts[6]),
    ]
    for got, exp in zip(results[:4] + results[5:], want[:4] + want[5:]):
        assert np.array_equal(got.pair(), exp.pair())
    for step in (0, 1, 3):
        assert np.array_equal(results[4][step].pair(),
                              want[4][step].pair())


def test_execute_batched_emits_occupancy_telemetry(ckks):
    _, ev, cts, _ = ckks
    reqs = [BatchRequest("rotate", ct, arg=1) for ct in cts[:4]]
    limbs = len(cts[0].basis)
    was = TRACER.enabled
    TRACER.drain()
    TRACER.enabled = True
    try:
        execute_batched(ev, reqs)
        events, counters = TRACER.drain()
    finally:
        TRACER.enabled = was
    assert counters["batch.requests"] == 4
    assert counters["batch.k"] == 4
    assert counters["batch.rows"] == 8 * limbs
    fuse = [ev_t for ev_t in events if ev_t[0] == "batch.fuse"]
    assert len(fuse) == 1
    assert fuse[0][-1] == {"op": "rotate", "k": 4, "rows": 8 * limbs}


def test_default_max_rows_env_knob(monkeypatch):
    monkeypatch.delenv("REPRO_BATCH_MAX_ROWS", raising=False)
    assert default_max_rows() == 0
    monkeypatch.setenv("REPRO_BATCH_MAX_ROWS", "64")
    assert default_max_rows() == 64
    monkeypatch.setenv("REPRO_BATCH_MAX_ROWS", "-1")
    with pytest.raises(ValueError, match="REPRO_BATCH_MAX_ROWS"):
        default_max_rows()
    monkeypatch.setenv("REPRO_BATCH_MAX_ROWS", "many")
    with pytest.raises(ValueError, match="REPRO_BATCH_MAX_ROWS"):
        default_max_rows()


def test_env_knob_bounds_fusion(ckks, monkeypatch):
    _, ev, cts, _ = ckks
    limbs = len(cts[0].basis)
    monkeypatch.setenv("REPRO_BATCH_MAX_ROWS", str(2 * limbs))
    reqs = [BatchRequest("negate", ct) for ct in cts[:3]]
    groups = coalesce(reqs)
    assert [len(g) for g in groups] == [1, 1, 1]
    results = execute_batched(ev, reqs)
    for got, ct in zip(results, cts[:3]):
        assert np.array_equal(got.pair(), ev.negate(ct).pair())


# ----------------------------------------------------------------------
# Every scheme x every op it supports: batched == sequential, bitwise
# ----------------------------------------------------------------------
def _small_ckks():
    """CKKS instance: evaluator, ``stacked=False`` reference sharing its
    keys, four encryptions and a plaintext."""
    params = CkksParams(n=2 ** 6, levels=3, dnum=2, scale_bits=25,
                        q0_bits=29, p_bits=30, seed=99)
    ctx = CkksContext(params)
    keygen = KeyGenerator(ctx)
    sk = keygen.gen_secret()
    keys = keygen.gen_keychain(sk, rotations=[1, 3])
    enc = Encryptor(ctx, keygen.gen_public(sk))
    rng = np.random.default_rng(99)
    cts = [enc.encrypt(ctx.encode(rng.uniform(-1, 1, params.slots)))
           for _ in range(4)]
    pt = ctx.encode(rng.uniform(-1, 1, params.slots))
    ref = CkksEvaluator(ctx, keys, stacked=False)
    return CkksEvaluator(ctx, keys), ref, cts, pt, None


def _small_exact(scheme_cls, ctx, ev_cls):
    """BGV/BFV instance: as :func:`_small_ckks`, plus the scheme, secret
    key and slot values for decryption checks."""
    scheme = scheme_cls(ctx)
    sk = scheme.gen_secret()
    scheme.gen_relin(sk)
    for step in (1, 3):
        scheme.ev.keys.galois[step] = scheme.keygen.gen_galois(step, sk)
    rng = np.random.default_rng(23)
    slots = [rng.integers(0, ctx.t, ctx.n) for _ in range(4)]
    cts = [scheme.encrypt(x, sk) for x in slots]
    m = RnsPolynomial.from_small_coeffs(
        ctx.q_full, ctx.encode(rng.integers(0, ctx.t, ctx.n))).to_ntt()
    ref = ev_cls(ctx, scheme.ev.keys, stacked=False)
    return scheme.ev, ref, cts, Plaintext(poly=m, scale=1.0), \
        (scheme, sk, slots)


def _small_bgv():
    return _small_exact(BgvScheme, BgvContext(BgvParams(
        n=64, q_count=4, dnum=2, seed=41)), BgvEvaluator)


def _small_bfv():
    return _small_exact(BfvScheme, BfvContext(BfvParams(
        n=64, q_count=4, dnum=2, seed=43)), BfvEvaluator)


_BUILD = {"ckks": _small_ckks, "bgv": _small_bgv, "bfv": _small_bfv}

_COMMON_OPS = ("add", "sub", "negate", "multiply", "multiply_plain",
               "rotate", "rotate_hoisted")
#: Every op each scheme's evaluator supports.
_SUPPORTED = {"ckks": _COMMON_OPS + ("rescale",),
              "bgv": _COMMON_OPS + ("mod_switch",),
              "bfv": _COMMON_OPS}


@pytest.fixture(scope="module")
def schemes():
    return {name: build() for name, build in _BUILD.items()}


def _requests(op, cts, pt):
    """Two fusable requests for ``op`` over ``cts``."""
    args = {"rotate": 1, "rotate_hoisted": (0, 1, 3), "multiply_plain": pt}
    return [BatchRequest(op, cts[i], arg=cts[i + 1]
                         if op in ("add", "sub", "multiply")
                         else args.get(op))
            for i in (0, 2)]


@pytest.mark.parametrize("name, op", [
    (name, op) for name, ops in _SUPPORTED.items() for op in ops])
def test_execute_batched_matches_sequential_every_scheme(schemes, name,
                                                         op):
    ev, ref, cts, pt, exact = schemes[name]
    reqs = _requests(op, cts, pt)
    results = execute_batched(ev, reqs)
    for got, req in zip(results, reqs):
        args = () if req.arg is None else (req.arg,)
        want = getattr(ref, op)(req.ct, *args)
        if op == "rotate_hoisted":
            assert set(got) == set(want)
            pairs = [(got[s], want[s]) for s in want]
        else:
            pairs = [(got, want)]
        for g, w in pairs:
            assert g.basis == w.basis
            assert np.array_equal(g.pair(), w.pair()), f"{name} {op}"
            assert g.scale == w.scale
    if name == "bfv" and op == "multiply":
        scheme, sk, slots = exact
        t = scheme.ctx.t
        for got, i in zip(results, (0, 2)):
            assert np.array_equal(scheme.decrypt(got, sk),
                                  slots[i] * slots[i + 1] % t)


@pytest.mark.parametrize("name, op", [("ckks", "mod_switch"),
                                      ("bgv", "rescale"),
                                      ("bfv", "rescale"),
                                      ("bfv", "mod_switch")])
def test_execute_batched_rejects_unsupported_op_up_front(schemes, name, op,
                                                         monkeypatch):
    ev, _, cts, _, _ = schemes[name]
    ran = []
    monkeypatch.setattr(ev, "batch_negate",
                        lambda batch: ran.append(batch) or batch)
    reqs = [BatchRequest("negate", cts[0]), BatchRequest(op, cts[1])]
    with pytest.raises(ValueError,
                       match=f"{type(ev).__name__}.*'{op}'"):
        execute_batched(ev, reqs)
    assert not ran, "a group ran before the unsupported op was rejected"
