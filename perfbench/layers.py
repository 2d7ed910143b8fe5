"""Per-layer metrics of a traced run.

Layers are measured from outside.  The package's own spans and
counters (``ntt.*``, ``bconv.*``, ``batch.fuse``, ``compile.*``,
``plan.build``, ``replay.*``, ``sim.scoreboard``) are read as they
are; calls the package does not instrument are wrapped here, from the
benchmark, in spans of the benchmark's own naming (``schemes.op.*``,
``batch.pack``, ``batch.coalesce``, ``workloads.build``,
``exp.point``).  Every metric is named after the module it measures.
"""

from __future__ import annotations

import math
import sys
from collections import defaultdict
from contextlib import contextmanager

from repro.obs import EV_ATTRS, EV_DUR, EV_NAME, EV_PATH, TRACER

#: Ops of the request mix, in the per-layer metric names.
OPS = ("ckks_hoisted", "ckks_mul_rescale", "ckks_rotate", "bgv_mul_ms2",
       "bfv_mul")
NTT_SPANS = {"ntt.forward": "forward", "ntt.inverse": "inverse",
             "ntt.automorphism": "automorphism"}
NTT_ROW_COUNTERS = {"forward": "ntt.rows", "inverse": "intt.rows",
                    "automorphism": "auto.rows"}
BCONV_SPANS = ("bconv.fast", "bconv.exact", "bconv.merged")
#: Spans that attribute evaluator time to a named kernel.
ATTRIBUTED = frozenset(NTT_SPANS) | frozenset(BCONV_SPANS)
PASSES = ("regalloc", "cse", "schedule", "dce", "mac-fuse",
          "insert-loads", "const-merge", "copy-prop")
#: Replay step labels per reported kind; ``mmul`` is the whole
#: elementwise family, ``dram`` every named-DRAM load.
REPLAY_KINDS = {
    "ntt": ("ntt",),
    "intt": ("intt",),
    "auto": ("auto",),
    "mmul": ("mmul", "mmad", "mmac", "mmul+mmad"),
    "dram": ("load-dram", "remat"),
}
#: Hardware units of the predicted-vs-measured table: simulator unit
#: names and replay step kinds that make up each.
UNITS = {
    "ntt": (("ntt",), ("ntt", "intt")),
    "mac": (("mmul", "madd"), ("mmul",)),
    "auto": (("auto",), ("auto",)),
    "dram": (("hbm",), ("dram",)),
}


class Collector:
    """Accumulates drained tracer events and counters.  Drain before
    anything calls ``clear_caches()``, which also zeroes counters."""

    def __init__(self):
        self.events: list = []
        self.counters: dict = defaultdict(float)

    def drain(self) -> list:
        events, counters = TRACER.drain()
        self.events.extend(events)
        for name, value in counters.items():
            self.counters[name] += value
        return events


# ----------------------------------------------------------------------
# Benchmark-side spans around calls the package does not instrument
# ----------------------------------------------------------------------
def _wrap(fn, name):
    def wrapped(*args, **kwargs):
        with TRACER.span(name):
            return fn(*args, **kwargs)
    return wrapped


@contextmanager
def batch_wrappers():
    """Span ``coalesce()`` and the ciphertext stack packing around each
    fused launch while the block runs (traced runs only)."""
    from repro.schemes.rns_core import CiphertextBatch

    module = sys.modules["repro.batch.coalesce"]
    saved = (module.coalesce, CiphertextBatch.__dict__["from_ciphertexts"],
             CiphertextBatch.split)
    pack = saved[1].__func__
    module.coalesce = _wrap(saved[0], "batch.coalesce")
    CiphertextBatch.from_ciphertexts = classmethod(_wrap(pack, "batch.pack"))
    CiphertextBatch.split = _wrap(saved[2], "batch.pack")
    try:
        yield
    finally:
        module.coalesce = saved[0]
        CiphertextBatch.from_ciphertexts = saved[1]
        CiphertextBatch.split = saved[2]


def wrap_methods(obj, names: dict) -> None:
    """Give instance ``obj`` span-wrapped copies of its methods:
    ``names`` maps method name -> span name."""
    for method, span_name in names.items():
        setattr(obj, method, _wrap(getattr(obj, method), span_name))


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
def _by_name(events) -> dict:
    """name -> [calls, total seconds]."""
    agg: dict = defaultdict(lambda: [0, 0.0])
    for ev in events:
        acc = agg[ev[EV_NAME]]
        acc[0] += 1
        acc[1] += ev[EV_DUR]
    return agg


def _attr_sum(events, name: str, key: str) -> float:
    return sum((ev[EV_ATTRS] or {}).get(key, 0) for ev in events
               if ev[EV_NAME] == name)


def _covered_op_time(events) -> float:
    """Time inside ``schemes.op.*`` spans covered by kernel spans,
    counting each kernel span only where no kernel span encloses it."""
    covered = 0.0
    for ev in events:
        if ev[EV_NAME] not in ATTRIBUTED:
            continue
        ancestors = ev[EV_PATH][:-1]
        if any(a in ATTRIBUTED for a in ancestors):
            continue
        if any(a.startswith("schemes.op.") for a in ancestors):
            covered += ev[EV_DUR]
    return covered


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(loop: Collector, setup_events, *, traced_s: float,
                  untraced_s: float, ring_n: int, probes: dict,
                  extra: dict) -> dict:
    """All per-layer metrics, name -> (value, unit).

    ``loop`` holds what the traced measured units recorded;
    ``setup_events`` what the traced set-up recorded (compile and plan
    build happen there on ``exec-replay``).  ``ring_n`` is the ring
    degree the NTT ceiling is scaled to; ``extra`` carries metrics the
    workload computes itself (numeric health, simulated cycles, the
    predicted-vs-measured unit table).
    """
    all_events = list(setup_events) + loop.events
    agg = _by_name(loop.events)
    every = _by_name(all_events)
    out: dict = {}

    def s(name, table=agg):
        return table[name][1] if name in table else 0.0

    def calls(name, table=agg):
        return table[name][0] if name in table else 0

    # -- nttmath ----------------------------------------------------------
    ntt_s = 0.0
    for span_name, short in NTT_SPANS.items():
        rows = loop.counters.get(NTT_ROW_COUNTERS[short], 0)
        out[f"nttmath.{short}.calls"] = (calls(span_name), "count")
        out[f"nttmath.{short}.rows"] = (rows, "rows")
        out[f"nttmath.{short}.s"] = (s(span_name), "s")
        ntt_s += s(span_name)
    out["nttmath.share"] = (_ratio(ntt_s, traced_s), "frac")
    xform_rows = out["nttmath.forward.rows"][0] + \
        out["nttmath.inverse.rows"][0]
    xform_s = s("ntt.forward") + s("ntt.inverse")
    rows_per_s = _ratio(xform_rows, xform_s)
    out["nttmath.rows_per_s"] = (rows_per_s, "rows/s")
    # Ceiling: one N-row transform does (N/2)*log2(N) butterflies, each
    # with one Shoup multiply-mod; the probe gives multiply-mods/s.
    ceiling = 0.0
    if ring_n:
        mulmods_per_s = probes["cpu.shoup_rows_per_s"] * 4096
        ceiling = mulmods_per_s / (ring_n / 2 * math.log2(ring_n))
    out["nttmath.ceiling_frac"] = (_ratio(rows_per_s, ceiling), "frac")

    # -- rns --------------------------------------------------------------
    bconv_s = sum(s(name) for name in BCONV_SPANS)
    out["rns.bconv.calls"] = (sum(calls(n) for n in BCONV_SPANS), "count")
    out["rns.bconv.rows"] = (loop.counters.get("bconv.rows", 0), "rows")
    out["rns.bconv.s"] = (bconv_s, "s")
    out["rns.share"] = (_ratio(bconv_s, traced_s), "frac")

    # -- schemes ----------------------------------------------------------
    op_total = 0.0
    for op in OPS:
        name = "schemes.op." + op
        out[f"{name}.calls"] = (calls(name), "count")
        out[f"{name}.s"] = (s(name), "s")
        op_total += s(name)
    covered = _covered_op_time(loop.events)
    out["schemes.self_s"] = (op_total - covered, "s")
    out["schemes.self_share"] = (_ratio(op_total - covered, op_total),
                                 "frac")
    out["schemes.coverage"] = (_ratio(covered, op_total), "frac")
    out["schemes.ckks_prec_bits_min"] = (
        extra.get("ckks_prec_bits_min", 0.0), "bits")
    out["schemes.bgv_budget_bits_min"] = (
        extra.get("bgv_budget_bits_min", 0.0), "bits")

    # -- batch ------------------------------------------------------------
    groups = calls("batch.fuse")
    out["batch.groups"] = (groups, "count")
    out["batch.k_mean"] = (_ratio(loop.counters.get("batch.k", 0), groups),
                           "cts")
    out["batch.fuse.s"] = (s("batch.fuse"), "s")
    out["batch.pack.s"] = (s("batch.pack"), "s")
    out["batch.coalesce.s"] = (s("batch.coalesce"), "s")

    # -- compiler: plan build and replay -------------------------------------
    out["compiler.plan.build_s"] = (s("plan.build", every), "s")
    out["compiler.plan.steps"] = (extra.get("plan_steps", 0), "count")
    replay_s = s("replay")
    step_s = sum(acc[1] for name, acc in agg.items()
                 if name.startswith("replay."))
    out["compiler.replay.s"] = (replay_s, "s")
    for kind, labels in REPLAY_KINDS.items():
        out[f"compiler.replay.{kind}.s"] = (
            sum(s("replay." + label) for label in labels), "s")
    out["compiler.replay.coverage"] = (_ratio(step_s, replay_s), "frac")
    out["compiler.replay.bytes_gathered"] = (
        loop.counters.get("exec.bytes_gathered", 0), "B")

    # -- compiler: passes ---------------------------------------------------
    out["compiler.compile.s"] = (s("compile", every), "s")
    for name in PASSES:
        out[f"compiler.pass.{name}.s"] = (s("compile." + name, every), "s")
    out["compiler.instrs_in"] = (
        _attr_sum(all_events, "compile.copy-prop", "instrs_before"), "count")
    out["compiler.instrs_out"] = (
        _attr_sum(all_events, "compile.regalloc", "instrs_after"), "count")

    # -- arch, workloads, exp -------------------------------------------------
    out["arch.simulate.s"] = (s("sim.scoreboard"), "s")
    out["arch.simulations"] = (calls("sim.scoreboard"), "count")
    out["arch.sim_cycles"] = (extra.get("sim_cycles", 0), "cycles")
    out["workloads.build.s"] = (s("workloads.build", every), "s")
    point_s = s("exp.point")
    out["exp.point.s"] = (point_s, "s")
    overhead = 0.0
    if point_s:
        overhead = point_s - s("workloads.build") - s("compile") \
            - s("sim.scoreboard")
    out["exp.overhead_s"] = (overhead, "s")

    # -- the tracer itself, CPU ceilings, unit table -------------------------
    out["obs.overhead_frac"] = (_ratio(traced_s, untraced_s) - 1.0, "frac")
    units = {"cpu.shoup_rows_per_s": "rows/s", "cpu.copy_gb_per_s": "GB/s",
             "cpu.copy_footprint_mib": "MiB", "cpu.llc_mib": "MiB"}
    for name, unit in units.items():
        out[name] = (probes[name], unit)
    measured = _unit_shares_measured(out)
    simulated = extra.get("unit_busy_simulated", {})
    sim_total = sum(sum(simulated.get(u, 0) for u in sim_units)
                    for sim_units, _ in UNITS.values())
    for unit, (sim_units, _) in UNITS.items():
        busy = sum(simulated.get(u, 0) for u in sim_units)
        out[f"unit.{unit}.simulated_share"] = (_ratio(busy, sim_total),
                                               "frac")
        out[f"unit.{unit}.measured_share"] = (measured[unit], "frac")
    return out


def _unit_shares_measured(metrics: dict) -> dict:
    """Each unit's share of the replay time spent in the four unit
    kinds (copies and fills belong to none)."""
    times = {unit: sum(metrics[f"compiler.replay.{k}.s"][0] for k in kinds)
             for unit, (_, kinds) in UNITS.items()}
    total = sum(times.values())
    return {unit: _ratio(t, total) for unit, t in times.items()}
