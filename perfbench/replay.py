"""Workload ``exec-replay``: compiled PackedPrograms replayed through
``execute_packed``, one client in a closed loop.

Set-up builds the three programs (ResNet conv block, DB lookup, BFV
dot product), compiles them, builds their execution plans and replays
each once.  The DRAM operands every program reads are drawn from the
seed.  Each replay's outputs must equal, bit for bit, what
``execute_reference`` computes once on the uncompiled program.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from repro.arch.simulator import simulate
from repro.compiler.exec_backend import (
    ExecBindings,
    execute_packed,
    execute_reference,
    synthesize_bindings,
)
from repro.compiler.exec_plan import get_exec_plan
from repro.compiler.ir import PackedProgram
from repro.compiler.lowering import LoweringParams
from repro.compiler.pipeline import CompileOptions, compile_packed
from repro.core.config import ASIC_EFFACT
from repro.obs import TRACER
from repro.workloads.bfv_dotproduct import build_bfv_dotproduct_program
from repro.workloads.dblookup import build_dblookup_program
from repro.workloads.resnet import ResNetShape, build_conv_block

#: Ring degree of the replayed programs.  At n=4096 the numpy kernels,
#: not per-step Python dispatch, take most of a replay (dispatch alone
#: is about 15% of it), which keeps replay times about as steady from
#: run to run as the FHE workloads'; the programs are kept small
#: enough that a run holds well over 100 replays (p90 needs ten
#: samples beyond it).
RING_N = 4096


def _programs():
    n = RING_N
    return {
        "conv": build_conv_block(
            LoweringParams(n=n, levels=7, dnum=4, log_q=30),
            ResNetShape(conv_diagonals=1, start_level=7),
            name="conv-block"),
        "dblookup": build_dblookup_program(
            LoweringParams(n=n, levels=3, dnum=2, log_q=30),
            squarings=2, name="dblookup"),
        "bfv_dot": build_bfv_dotproduct_program(
            LoweringParams(n=n, levels=3, dnum=4, log_q=30),
            name="bfv-dot"),
    }


#: One block of replays, shuffled by the seed.  Sorted by latency the
#: conv block (about 110 ms at n=4096) comes first and the BFV dot
#: product and DB lookup (about 240 ms each) after it, so p50 lands
#: inside the conv-block cluster (0-70%) and p90 inside the slow one
#: (70-100%).
REPLAY_MIX = (("conv", 7), ("bfv_dot", 1), ("dblookup", 2))


class Compiled:
    """One program, compiled and bound to seeded DRAM operands."""

    def __init__(self, program, rng):
        with TRACER.span("workloads.build"):
            packed = PackedProgram.from_program(program)
        self.program = program
        self.compiled = compile_packed(packed.copy(), CompileOptions())
        chain = synthesize_bindings(packed)
        dram = {}
        for value in program.values.values():
            if value.origin in ("dram", "const"):
                dram[value.name] = rng.integers(0, 1 << 30, RING_N,
                                                dtype=np.int64)
        self.bindings = ExecBindings(chain.q, chain.p, RING_N, dram=dram,
                                     strict=True)
        execute_packed(self.compiled, self.bindings)
        self.reference = None

    def unit(self):
        t0 = perf_counter()
        result = execute_packed(self.compiled, self.bindings)
        return result.outputs, [perf_counter() - t0]

    def check(self, outputs) -> None:
        ref = self.reference
        if outputs.keys() != ref.keys() or not all(
                np.array_equal(outputs[v], ref[v]) for v in ref):
            raise AssertionError(
                f"{self.program.name}: replay differs from the reference")


class ReplayState:
    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 1])
        with TRACER.span("workloads.build"):
            programs = _programs()
        self.programs = {name: Compiled(prog, rng)
                         for name, prog in programs.items()}
        self.traced_replays = dict.fromkeys(self.programs, 0)


class ExecReplay:
    name = "exec-replay"
    ring_n = RING_N
    unit_name = "replay"

    def setup(self, seed: int):
        return ReplayState(seed)

    def measure(self, state, rec, seed: int, collector) -> None:
        for prog in state.programs.values():
            prog.reference = execute_reference(prog.program, prog.bindings)
        rng = np.random.default_rng([seed, 2])
        order = [name for name, count in REPLAY_MIX for _ in range(count)]
        while not rec.done:
            for name in rng.permutation(order):
                prog = state.programs[name]
                rec.run(prog.unit, 1, prog.check)
                if rec.trace:
                    state.traced_replays[name] += 1
        collector.drain()

    def extra(self, state) -> dict:
        """Plan sizes, and the simulator's unit busy cycles for the
        traced replay mix (each program's busy cycles times the number
        of its traced replays)."""
        busy: dict = {}
        steps = 0
        for name, prog in state.programs.items():
            steps += len(get_exec_plan(prog.compiled, prog.bindings).steps)
            result = simulate(prog.compiled.packed, ASIC_EFFACT)
            for unit, cycles in result.unit_busy.items():
                busy[unit] = busy.get(unit, 0) + \
                    cycles * state.traced_replays[name]
        return {"plan_steps": steps, "unit_busy_simulated": busy}
