"""The native C NTT kernel against the numpy kernels and the per-limb
oracle, plus its build, fallback, first-use and telemetry contracts.

:class:`BatchedNTT` runs every forward/inverse transform through the C
kernel in ``repro/nttmath/_ntt_kernel.c`` once it is built; the numpy
fused radix-4 (``q < 2^30``) and radix-2 (31-bit) kernels stay as the
fallback.  All three, and the ``%``-based per-limb
:class:`NegacyclicNTT`, must agree bit for bit on every shape the
evaluator feeds them.
"""

from __future__ import annotations

import threading
import time
import warnings
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.nttmath import native
from repro.nttmath.batched import BatchedNTT
from repro.nttmath.ntt import NegacyclicNTT
from repro.nttmath.primes import find_ntt_primes

I64 = np.iinfo(np.int64)


def _require_native():
    lib = native.kernel()
    if lib is None:
        pytest.skip("native kernel unavailable (no C compiler, or "
                    "switched off)")
    return lib


@contextmanager
def _numpy_kernels():
    """Run the block on the numpy kernels (the no-compiler fallback)."""
    saved = native._lib
    native._lib = None
    try:
        yield
    finally:
        native._lib = saved


def _oracle(primes, limbs, data, *, inverse, scale=True):
    """Row by row through the per-limb reference (which reduces its
    input with ``%`` itself)."""
    out = np.empty_like(data)
    for r, row in enumerate(data):
        ref = NegacyclicNTT(data.shape[1], primes[r % limbs])
        out[r] = (ref.inverse(row, scale_by_n_inv=scale) if inverse
                  else ref.forward(row))
    return out


def _engine(kind, n, bits, limbs):
    """A full engine, a prefix of a longer chain, or a row-gathered
    (repeating, reordered) selection of one — the three ways the
    evaluator obtains engines.  Returns the engine and its row primes."""
    if kind == "full":
        primes = find_ntt_primes(bits, n, limbs)
        return BatchedNTT(n, primes), primes
    chain = find_ntt_primes(bits, n, limbs + 2)
    parent = BatchedNTT(n, chain)
    if kind == "prefix":
        return BatchedNTT._prefix_of(parent, limbs), chain[:limbs]
    rows = [(3 * i + 1) % len(chain) for i in range(limbs)]
    return BatchedNTT._rows_of(parent, rows), [chain[r] for r in rows]


def _layout(data, kind):
    """The same values as a row-strided or column-strided view."""
    if kind == "row-strided":
        wide = np.zeros((data.shape[0] * 2, data.shape[1]), np.int64)
        wide[::2] = data
        return wide[::2]
    if kind == "col-strided":
        wide = np.zeros((data.shape[0], data.shape[1] * 2), np.int64)
        wide[:, ::2] = data
        return wide[:, ::2]
    return data


CASE = st.fixed_dictionaries({
    "log_n": st.integers(1, 12),                       # n in 2..4096
    "bits": st.sampled_from([28, 30, 31]),
    "limbs": st.integers(1, 4),
    "tiles": st.integers(1, 3),
    "engine": st.sampled_from(["full", "prefix", "rows"]),
    "layout": st.sampled_from(["contiguous", "row-strided", "col-strided"]),
    "values": st.sampled_from(["canonical", "canonical-reduce", "wide",
                               "multiples", "int64"]),
    "scale": st.booleans(),
    "seed": st.integers(0, 2**32 - 1),
})


@given(CASE)
@settings(max_examples=60, deadline=None)
def test_native_matches_numpy_and_oracle(case):
    lib = _require_native()
    n = 1 << case["log_n"]
    limbs = case["limbs"]
    eng, primes = _engine(case["engine"], n, case["bits"], limbs)
    rows = case["tiles"] * limbs
    rng = np.random.default_rng(case["seed"])
    q_rows = np.array([primes[r % limbs] for r in range(rows)])[:, None]
    if case["values"].startswith("canonical"):
        data = rng.integers(0, q_rows, (rows, n), dtype=np.int64)
    elif case["values"] == "wide":                     # |x| around 2^51
        data = rng.integers(-2**52, 2**52, (rows, n), dtype=np.int64)
    elif case["values"] == "multiples":    # x = m*q + {-1, 0, 1}: the
        # quotient estimate truncates to both sides of m
        data = (q_rows * rng.integers(-2**20, 2**20, (rows, n))
                + rng.integers(-1, 2, (rows, n)))
    else:
        data = rng.integers(I64.min, I64.max, (rows, n), dtype=np.int64,
                            endpoint=True)
    assume_reduced = case["values"] == "canonical"
    view = _layout(data, case["layout"])
    scale = case["scale"]

    native_out = (eng.forward(view, assume_reduced=assume_reduced),
                  eng.inverse(view, assume_reduced=assume_reduced,
                              scale_by_n_inv=scale))
    assert native._lib is lib
    with _numpy_kernels():
        numpy_out = (eng.forward(view, assume_reduced=assume_reduced),
                     eng.inverse(view, assume_reduced=assume_reduced,
                                 scale_by_n_inv=scale))
    want = (_oracle(primes, limbs, data, inverse=False),
            _oracle(primes, limbs, data, inverse=True, scale=scale))
    for got_native, got_numpy, expected in zip(native_out, numpy_out,
                                               want):
        assert got_native.dtype == np.int64
        np.testing.assert_array_equal(got_native, expected)
        np.testing.assert_array_equal(got_numpy, expected)
    np.testing.assert_array_equal(data, view)          # input untouched


@pytest.mark.parametrize("bits", [30, 31])
def test_native_round_trip_and_reduction_edges(bits):
    """Input reduction across the fast-path boundary (|x| = 2^51), at
    the int64 extremes and on exact multiples of q, on both modulus
    widths."""
    _require_native()
    n = 16
    # four limbs: at n=16 some of them (both widths) have multiples m*q
    # whose quotient estimate fl(m*q * fl(1/q)) falls below m
    primes = find_ntt_primes(bits, n, 4)
    eng = BatchedNTT(n, primes)
    edges = [0, 1, -1, 2**51 - 1, 2**51, -2**51, -2**51 - 1, 2**62,
             -2**62, I64.max, I64.min, primes[0], -primes[0], 2 * primes[1],
             -3 * primes[1], 7]
    data = np.array([edges, edges[::-1]] * 2, dtype=np.int64)
    # Every multiple m*q, m <= 4096: where the estimate falls below m
    # the quotient truncates to m - 1 and the kernel transforms r = q.
    mult = (np.array(primes)[:, None]
            * np.arange(1, 4097).reshape(256, 1, n))
    data = np.concatenate([data, mult.reshape(-1, n)])
    got = eng.forward(data)
    np.testing.assert_array_equal(
        got, _oracle(primes, 4, data, inverse=False))
    reduced = data % np.resize(primes, len(data))[:, None]
    np.testing.assert_array_equal(eng.inverse(got), reduced)


# ----------------------------------------------------------------------
# Build, fallback and first use
# ----------------------------------------------------------------------
def _broken_build(kind, monkeypatch, tmp_path):
    if kind == "build-raises":
        def fail(out):
            raise RuntimeError("simulated build failure")
        monkeypatch.setattr(native, "_compile", fail)
    elif kind == "no-compiler":
        monkeypatch.setattr(native.shutil, "which", lambda name: None)
    else:                                               # compile error
        bad = tmp_path / "broken.c"
        bad.write_text("#error deliberately broken\n")
        monkeypatch.setattr(native, "SOURCE", bad)


@pytest.mark.parametrize("kind", ["build-raises", "no-compiler",
                                  "compile-error"])
def test_build_failure_falls_back_to_numpy(monkeypatch, tmp_path, kind):
    _broken_build(kind, monkeypatch, tmp_path)
    monkeypatch.setattr(native, "_lib", native._UNBUILT)
    n = 32
    primes = find_ntt_primes(30, n, 2)
    eng = BatchedNTT(n, primes)
    data = np.random.default_rng(4).integers(
        0, np.array(primes)[:, None], (2, n), dtype=np.int64)
    with pytest.warns(RuntimeWarning, match="native NTT kernel "
                                            "unavailable"):
        fwd = eng.forward(data)
    assert native._lib is None
    np.testing.assert_array_equal(fwd, _oracle(primes, 2, data,
                                               inverse=False))
    with warnings.catch_warnings():
        warnings.simplefilter("error")                  # warned once only
        np.testing.assert_array_equal(eng.inverse(fwd), data)


def test_concurrent_first_use_builds_once(monkeypatch):
    _require_native()
    real = native._compile
    builds = []

    def slow_compile(out):
        builds.append(threading.get_ident())
        time.sleep(0.05)                # widen the first-use race window
        real(out)

    monkeypatch.setattr(native, "_compile", slow_compile)
    monkeypatch.setattr(native, "_lib", native._UNBUILT)
    n = 256
    primes = find_ntt_primes(31, n, 3)
    eng = BatchedNTT(n, primes)
    data = np.random.default_rng(5).integers(
        0, np.array(primes)[:, None], (3, n), dtype=np.int64)
    barrier = threading.Barrier(2)
    results = [None, None]
    errors = []

    def work(i):
        try:
            barrier.wait()
            results[i] = eng.forward(data)
        except BaseException as exc:  # surfaced by the assertion below
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(i,)) for i in (0, 1)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
        assert not t.is_alive(), "first-use build deadlocked"
    assert errors == []
    assert len(builds) == 1
    assert native._lib is not None
    want = _oracle(primes, 3, data, inverse=False)
    for got in results:
        np.testing.assert_array_equal(got, want)


def test_kernel_handle_survives_clear_caches():
    from repro.nttmath.batched import clear_caches
    lib = _require_native()
    clear_caches()
    assert native.kernel() is lib


# ----------------------------------------------------------------------
# Telemetry
# ----------------------------------------------------------------------
def test_backends_emit_equal_counters(monkeypatch):
    """Same spans and row counters on both kernels; the ``kernel`` span
    attribute names the one that ran.  Three 8-limb tiles at n=4096 make
    the numpy path block its stack (one span per cache block), so only
    the counters, not the span counts, are comparable."""
    _require_native()
    n, limbs = 4096, 8
    primes = find_ntt_primes(30, n, limbs)
    eng = BatchedNTT(n, primes)
    data = np.random.default_rng(6).integers(
        0, np.tile(np.array(primes)[:, None], (3, 1)), (3 * limbs, n),
        dtype=np.int64)
    monkeypatch.setattr(obs.TRACER, "enabled", True)
    seen = {}
    obs.TRACER.drain()
    for backend in ("native", "numpy"):
        if backend == "numpy":
            with _numpy_kernels():
                eng.inverse(eng.forward(data), scale_by_n_inv=False)
        else:
            eng.inverse(eng.forward(data), scale_by_n_inv=False)
        events, counters = obs.TRACER.drain()
        spans = {(ev[obs.EV_NAME], ev[obs.EV_ATTRS]["kernel"])
                 for ev in events
                 if ev[obs.EV_NAME] in ("ntt.forward", "ntt.inverse")}
        assert spans == {("ntt.forward", backend),
                         ("ntt.inverse", backend)}
        seen[backend] = counters
    assert seen["native"] == seen["numpy"]
    assert seen["native"]["ntt.rows"] == 3 * limbs
    assert seen["native"]["intt.rows"] == 3 * limbs
