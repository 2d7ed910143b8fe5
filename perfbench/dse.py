"""Workload ``dse-sweep``: a cold design-space sweep, in process.

Points: the Fig. 4 SRAM grid (bootstrapping at five SRAM sizes) plus
one HELR and one ResNet-20 point on the ASIC configuration, all at a
reduced ring degree.  Each point builds its workload, compiles and
simulates it, after ``clear_caches()`` and with no artifact store, so
nothing is reused between points.  The seed sets the order of the
points in each pass.  Simulated cycles must equal the expected file
next to this module, and within a pass the Fig. 4 runtime must never
rise as SRAM grows.
"""

from __future__ import annotations

import dataclasses
import json
import os
from time import perf_counter

import numpy as np

from repro.core.config import ASIC_EFFACT
from repro.exp.runner import fig4_spec
from repro.exp.sweep import SweepPoint, WorkloadSpec, run_sweep
from repro.nttmath.batched import clear_caches
from repro.obs import TRACER

RING_N = 1024
DETAIL = 0.1
EXPECTED = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "expected_dse.json")


def sweep_points() -> tuple[list[SweepPoint], dict[str, float]]:
    """The grid, and the SRAM size (MB) of each Fig. 4 point."""
    spec, sizes_mb = fig4_spec(n=RING_N, detail=DETAIL)
    points = spec.points()
    sram = {p.label: mb for p, mb in zip(points, sizes_mb)}
    for name in ("helr", "resnet"):
        points.append(SweepPoint(
            index=len(points), label=f"{name}/{ASIC_EFFACT.name}",
            workload=WorkloadSpec.make(name, n=RING_N, detail=DETAIL),
            config=ASIC_EFFACT, options=None))
    return points, sram


def run_point(point: SweepPoint):
    """Build, compile and simulate one point; returns its result."""
    with TRACER.span("exp.point"):
        with TRACER.span("workloads.build"):
            workload = point.workload.build()
            for segment in workload.segments:
                segment.packed_template()
        sweep = run_sweep([dataclasses.replace(point, index=0,
                                               workload=workload)],
                          jobs=1, store=None)
    return sweep.points[0]


class DseState:
    def __init__(self):
        self.points, self.sram_mb = sweep_points()
        self.expected = None
        self.sim_cycles = 0           # simulated cycles of one pass
        self.point_latencies_s: list = []


def _check_monotone(cycles: dict, sram_mb: dict) -> None:
    by_size = sorted((mb, cycles[label]) for label, mb in sram_mb.items())
    for (small, slow), (big, fast) in zip(by_size, by_size[1:]):
        if fast > slow:
            raise AssertionError(
                f"runtime rose from {slow} to {fast} cycles as SRAM "
                f"grew from {small:g} to {big:g} MB")


class DseSweep:
    """One unit of work is one pass over the grid, in a seeded order:
    its latency is what a user waits for a sweep, and it serves one
    request per point.  Per-point latencies are kept for the report."""

    name = "dse-sweep"
    ring_n = 0          # no FHE arithmetic: no NTT ceiling applies
    unit_name = "sweep point"
    setup_repeats = 15

    def setup(self, seed: int):
        return DseState()

    def measure(self, state, rec, seed: int, collector) -> None:
        with open(EXPECTED) as fh:
            state.expected = json.load(fh)["cycles"]
        _check_monotone(state.expected, state.sram_mb)
        rng = np.random.default_rng([seed, 2])

        def check(results):
            cycles = {}
            for point, result in results:
                if result.cycles != state.expected[point.label]:
                    raise AssertionError(
                        f"{point.label}: {result.cycles} simulated cycles,"
                        f" expected {state.expected[point.label]}")
                cycles[point.label] = result.cycles
            _check_monotone(cycles, state.sram_mb)
            state.sim_cycles = sum(cycles.values())

        while not rec.done:
            order = [state.points[k]
                     for k in rng.permutation(len(state.points))]

            def unit(order=order):
                results = []
                busy = 0.0
                for point in order:
                    collector.drain()
                    clear_caches()
                    t0 = perf_counter()
                    results.append((point, run_point(point)))
                    dt = perf_counter() - t0
                    busy += dt
                    state.point_latencies_s.append(dt)
                return results, [busy]

            rec.run(unit, len(order), check)
        collector.drain()

    def extra(self, state) -> dict:
        return {"sim_cycles": state.sim_cycles,
                "point_latencies_s": state.point_latencies_s}


def write_expected() -> None:
    """Record the current simulated cycles of every point (run once
    when the grid or the simulator's model changes on purpose)."""
    clear_caches()
    points, _ = sweep_points()
    cycles = {p.label: run_point(p).cycles for p in points}
    with open(EXPECTED, "w") as fh:
        json.dump({"n": RING_N, "detail": DETAIL, "cycles": cycles}, fh,
                  indent=1, sort_keys=True)
        fh.write("\n")
