"""Execution-backend benchmark: optimization passes are real.

The simulator has always *predicted* that CSE and MAC fusion help; the
execution backend lets us measure it.  This benchmark compiles the
ResNet conv block twice — all passes on, and with CSE (``code_opt``)
plus MAC fusion off — executes both on the batched engine, asserts the
outputs are bitwise identical, and guards a >1.0x executed-wall-time
speedup floor for the optimized compile.

Measured on the reference runner (2026-08-07, ``n=4096``, levels=7,
dnum=4, 8 conv diagonals): all-on 0.33-0.34 s / 4225 instrs vs.
pass-off 0.43 s / 5769 instrs — **1.25-1.33x** executed speedup across
runs.  The guard floor is deliberately just above
parity so noisy shared runners do not flake; the point it pins is the
*direction*: turning the passes off must never be faster.

Since PR 7 ``execute_packed`` replays a precompiled
:class:`~repro.compiler.exec_plan.ExecPlan`;
``test_exec_plan_speedup`` below guards the planned-replay speedup
over the PR 6 run-vectorized interpreter, and the dblookup profile
test pins that MAC fusion saves elementwise executed time.

Environment knobs: ``REPRO_BENCH_EXEC_N`` (ring degree, default 4096),
``REPRO_BENCH_EXEC_MIN_SPEEDUP`` (default 1.0),
``REPRO_BENCH_PLAN_N`` (default 512),
``REPRO_BENCH_PLAN_MIN_SPEEDUP`` (default 1.5).
"""

import os

import numpy as np

from repro import obs
from repro.compiler.exec_backend import (
    execute_interpreted,
    execute_packed,
    synthesize_bindings,
)
from repro.compiler.ir import PackedProgram
from repro.compiler.lowering import LoweringParams
from repro.compiler.pipeline import CompileOptions, compile_packed
from repro.nttmath.batched import clear_caches
from repro.workloads.dblookup import build_dblookup_program
from repro.workloads.resnet import ResNetShape, build_conv_block

EXEC_N = int(os.environ.get("REPRO_BENCH_EXEC_N", 4096))
MIN_SPEEDUP = float(os.environ.get("REPRO_BENCH_EXEC_MIN_SPEEDUP", "1.0"))
PLAN_N = int(os.environ.get("REPRO_BENCH_PLAN_N", 512))
PLAN_MIN_SPEEDUP = float(
    os.environ.get("REPRO_BENCH_PLAN_MIN_SPEEDUP", "1.5"))
REPEATS = 3


def _best_exec_time(compiled, bindings):
    """Best-of-N wall time (plus the first run's result for checking);
    best-of filters scheduler jitter on shared runners."""
    result = execute_packed(compiled, bindings)
    best = result.wall_s
    for _ in range(REPEATS - 1):
        best = min(best, execute_packed(compiled, bindings).wall_s)
    return best, result


def test_cse_and_mac_fusion_reduce_executed_wall_time():
    lp = LoweringParams(n=EXEC_N, levels=7, dnum=4, log_q=30)
    shape = ResNetShape(conv_diagonals=8, start_level=7)
    packed = PackedProgram.from_program(
        build_conv_block(lp, shape, name="conv-bench"))
    bindings = synthesize_bindings(packed)

    on = compile_packed(packed.copy(), CompileOptions())
    off = compile_packed(packed.copy(),
                         CompileOptions(code_opt=False, mac_fusion=False))
    assert on.packed.num_instrs < off.packed.num_instrs, \
        "passes removed no instructions; benchmark is measuring nothing"

    t_on, r_on = _best_exec_time(on, bindings)
    t_off, r_off = _best_exec_time(off, bindings)

    # The differential property rides along for free: both compiles of
    # the same program must agree bitwise on every output.
    assert set(r_on.outputs) == set(r_off.outputs)
    for vid in r_on.outputs:
        np.testing.assert_array_equal(r_on.outputs[vid],
                                      r_off.outputs[vid])

    speedup = t_off / t_on
    print(f"\nexec conv block n={EXEC_N}: "
          f"all-on {t_on:.3f}s/{on.packed.num_instrs} instrs, "
          f"pass-off {t_off:.3f}s/{off.packed.num_instrs} instrs "
          f"-> {speedup:.2f}x")
    assert speedup > MIN_SPEEDUP, (
        f"CSE+MAC-fuse executed speedup {speedup:.2f}x is under the "
        f"{MIN_SPEEDUP:.2f}x floor (all-on {t_on:.3f}s vs pass-off "
        f"{t_off:.3f}s): the optimization passes are no longer real "
        f"on the execution backend")


def test_exec_instruction_timing_breakdown_reported():
    """The backend's per-run accounting must cover the whole stream:
    instruction count in the result equals the compiled stream length
    (nothing silently skipped), and wall time is positive."""
    lp = LoweringParams(n=min(EXEC_N, 2048), levels=5, dnum=2,
                        log_q=30)
    shape = ResNetShape(conv_diagonals=4, start_level=5)
    packed = PackedProgram.from_program(
        build_conv_block(lp, shape, name="conv-acct"))
    compiled = compile_packed(packed.copy(), CompileOptions())
    result = execute_packed(compiled, synthesize_bindings(packed))
    assert result.instructions == compiled.packed.num_instrs
    assert result.wall_s > 0


def test_exec_plan_speedup():
    """Planned replay beats the PR 6 run-vectorized interpreter.

    The plan's wins are one-time analysis (run discovery, prime
    columns, gather indices all precomputed), no per-row buffer-dict
    round trips, and dataflow wavefront scheduling that merges
    independent same-kind steps across the whole program (the conv
    block's 4225 instructions replay in ~900 steps vs. the
    interpreter's ~3000 in-order runs, with every DRAM load in one
    batched gather).  Those are per-step *dispatch* savings, so the
    guard runs where dispatch dominates: ``n=512``.  Measured on the
    reference runner (2026-08-07, conv block, levels=7, dnum=4, 8
    diagonals, best-of-5): **1.9-2.1x** at n=512, 1.48x at n=2048,
    1.40x at n=4096 — the larger rings are bound by the stacked NTT
    transforms themselves (~60% of replay wall), which both engines
    share bitwise.  Floor 1.5x (``REPRO_BENCH_PLAN_MIN_SPEEDUP``).
    """
    lp = LoweringParams(n=PLAN_N, levels=7, dnum=4, log_q=30)
    shape = ResNetShape(conv_diagonals=8, start_level=7)
    packed = PackedProgram.from_program(
        build_conv_block(lp, shape, name="conv-plan-bench"))
    compiled = compile_packed(packed.copy(), CompileOptions())
    bindings = synthesize_bindings(packed)

    clear_caches()
    # Warm the plan and the stacked NTT engines once, then time.
    planned = execute_packed(compiled, bindings)
    interp = execute_interpreted(compiled, bindings)
    for vid in interp.outputs:
        np.testing.assert_array_equal(planned.outputs[vid],
                                      interp.outputs[vid])
    t_plan = min(execute_packed(compiled, bindings).wall_s
                 for _ in range(5))
    t_interp = min(execute_interpreted(compiled, bindings).wall_s
                   for _ in range(5))

    speedup = t_interp / t_plan
    print(f"\nexec plan n={PLAN_N}: planned {t_plan:.4f}s/"
          f"{planned.runs} steps, interpreter {t_interp:.4f}s/"
          f"{interp.runs} runs -> {speedup:.2f}x")
    assert planned.runs < interp.runs, \
        "wavefront scheduling merged nothing; plan build is broken"
    assert speedup > PLAN_MIN_SPEEDUP, (
        f"planned replay speedup {speedup:.2f}x is under the "
        f"{PLAN_MIN_SPEEDUP:.2f}x floor (planned {t_plan:.4f}s vs "
        f"interpreter {t_interp:.4f}s): precompiled plans are no "
        f"longer paying for themselves")


def test_mac_fusion_saves_elementwise_time_on_dblookup(monkeypatch):
    """MAC fusion removes elementwise instructions on dblookup, and the
    per-step profile shows the elementwise wall shrink with them.

    Fusion drops 9616 -> 9120 instructions (-5%, all elementwise) and
    touches no NTT-family step.  With the numpy NTT kernels the
    NTT-family steps (ntt/intt/auto) were 66-67% of replay wall in both
    compiles, which hid the saving: executed wall was flat within 1%
    (2026-08-07).  The native NTT kernel shrinks that family to 16-21%
    of replay wall, so the elementwise steps dominate both compiles
    (72-78%) and fusion's saving is visible.  Measured (2026-10-18,
    ``n=2048``, levels=7, dnum=2, 8 squarings, 2-vCPU x86-64 host,
    each step kind's best of 7 interleaved repeats, 5 runs):
    elementwise 107-120 ms fused vs 115-130 ms unfused, 6-9% less.
    Single repeats overlap by a few percent, hence the per-kind best.
    The assertions pin bitwise-equal outputs and fused elementwise
    wall below unfused.
    """
    lp = LoweringParams(n=2048, levels=7, dnum=2, log_q=30)
    packed = PackedProgram.from_program(
        build_dblookup_program(lp, squarings=8, name="db-fusion"))
    bindings = synthesize_bindings(packed)
    compiled = {fuse: compile_packed(packed.copy(),
                                     CompileOptions(mac_fusion=fuse))
                for fuse in (True, False)}

    results = {}
    # Best wall per step kind over interleaved repeats, per compile.
    best = {True: {}, False: {}}
    # The enabled tracer fills the per-step profile.
    monkeypatch.setattr(obs.TRACER, "enabled", True)
    try:
        for fuse in (True, False):             # warm plans and kernels
            results[fuse] = execute_packed(compiled[fuse], bindings)
        for _ in range(7):
            for fuse in (True, False):
                run = execute_packed(compiled[fuse], bindings)
                for lbl, (wall, _) in run.profile.items():
                    best[fuse][lbl] = min(best[fuse].get(lbl, wall), wall)
            obs.TRACER.drain()
    finally:
        obs.TRACER.drain()
    fused, plain = results[True], results[False]

    assert fused.instructions < plain.instructions, \
        "MAC fusion removed no instructions on dblookup"
    for vid in plain.outputs:
        np.testing.assert_array_equal(fused.outputs[vid],
                                      plain.outputs[vid])

    ew = {}
    for label, fuse in (("fused", True), ("unfused", False)):
        walls = best[fuse]
        ew[fuse] = sum(w for lbl, w in walls.items() if lbl.startswith("mm"))
        ntt_wall = sum(w for lbl, w in walls.items()
                       if lbl in ("ntt", "intt", "auto"))
        total = sum(walls.values())
        print(f"\ndblookup {label}: {results[fuse].instructions} instrs, "
              f"elementwise {ew[fuse] * 1e3:.1f} ms "
              f"({ew[fuse] / total:.0%}), ntt-family "
              f"{ntt_wall / total:.0%} of replay wall")
    assert ew[True] < ew[False], (
        f"fused elementwise wall {ew[True]:.4f}s is not below unfused "
        f"{ew[False]:.4f}s: the instructions MAC fusion removes no "
        f"longer save executed time")
