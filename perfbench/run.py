"""The repository benchmark.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fhe-single --seed 1 --seconds 10 --trace 0

Workloads (one client, closed loop, one process each):

* ``fhe-single``   one CKKS/BGV/BFV request at a time (n=4096, 8 limbs)
* ``ckks-batch8``  bursts of CKKS requests fused k=8 wide by ``batch``
* ``exec-replay``  compiled programs replayed through ``execute_packed``
* ``dse-sweep``    cold build + compile + simulate sweep points

``--trace 0`` measures the end-to-end metrics with the tracer off.
``--trace 1`` runs every unit of work twice, untraced and traced, and
reports the per-layer metrics, the CPU ceiling probes and the
predicted-vs-measured unit table; it also writes the spans as a Chrome
trace under ``perfbench/out/``.  Every output is checked; the last line
of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Exit status: 0 when every check passed, 1
when one failed, 2 when the package under ``src/`` cannot be loaded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("fhe-single", "ckks-batch8", "exec-replay", "dse-sweep")
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Per workload, the names the end-to-end report gives its throughput,
#: p50 and p90 (the contract metrics carry generic names, because every
#: workload must report every one of them).
REPORT_NAMES = {
    "fhe-single": ("req_per_s", "req_p50_ms", "req_p90_ms"),
    "ckks-batch8": ("req_per_s", None, None),
    "exec-replay": ("replay_per_s", "replay_p50_ms", "replay_p90_ms"),
    "dse-sweep": ("points_per_s", "sweep_p50_ms", "sweep_p90_ms"),
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-expected", action="store_true",
                        help="re-record dse-sweep's expected cycles")
    return parser.parse_args(argv)


def load_package() -> None:
    """Import ``repro`` from this checkout's ``src`` and nowhere else,
    with every ``REPRO_*`` setting cleared so the program sees only the
    benchmark's inputs."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise ImportError(f"repro resolved to {repro.__file__}")


def make_workload(name: str):
    import dse
    import fhe
    import replay

    return {"fhe-single": fhe.FheSingle, "ckks-batch8": fhe.CkksBatch8,
            "exec-replay": replay.ExecReplay,
            "dse-sweep": dse.DseSweep}[name]()


def end_to_end(workload, setup_times, rec, extra) -> tuple[dict, list]:
    """Contract metrics (name -> (value, unit)) and the report rows,
    which also carry the per-workload names of the same figures."""
    import statistics

    import harness

    setup_s = statistics.median(setup_times)
    rss = harness.peak_rss_mb()
    lat = rec.latencies_s
    p50 = harness.percentile(lat, 0.5)
    p90 = harness.percentile(lat, 0.9)
    rate = rec.served / rec.busy_s if rec.busy_s else 0.0
    metrics = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss, "MiB"),
        "throughput_per_s": (rate, "1/s"),
        "latency_p50_ms": (p50 * 1e3, "ms"),
        "latency_p90_ms": (p90 * 1e3, "ms"),
    }
    samples = f"measured, n={len(lat)}"
    rate_name, p50_name, p90_name = REPORT_NAMES[workload.name]
    rows = [
        ("setup_s", setup_s, "s", f"measured, median of {len(setup_times)}"),
        ("peak_rss_mb", rss, "MiB", "measured"),
        ("fail_frac", rec.failed / rec.attempted if rec.attempted else 1.0,
         "frac", f"{rec.failed}/{rec.attempted} {workload.unit_name}s"),
        (rate_name, rate, "1/s", f"measured, n={rec.served}"),
    ]
    if p50_name:
        rows.append((p50_name, p50 * 1e3, "ms", samples))
    if p90_name:
        rows.append((p90_name, p90 * 1e3, "ms", samples))
    if "point_latencies_s" in extra:
        points = extra["point_latencies_s"]
        rows.append(("point_p50_s", harness.percentile(points, 0.5), "s",
                     f"measured, n={len(points)}"))
    for name in ("ckks_prec_bits_min", "bgv_budget_bits_min"):
        if name in extra:
            rows.append((name, extra[name], "bits", "measured"))
    return metrics, rows


def write_json(path: str, payload) -> None:
    os.makedirs(OUT, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        load_package()
        import harness
        import layers
        workload = make_workload(args.workload)
    except ImportError as exc:
        print(f"perfbench: cannot load the package under {SRC}: {exc}",
              file=sys.stderr)
        return 2
    from repro.nttmath.batched import clear_caches
    from repro.obs import TRACER, chrome_trace

    if args.write_expected:
        import dse
        dse.write_expected()
        return 0

    meta = harness.run_metadata(ROOT, SRC, args)
    print("meta " + json.dumps(meta), flush=True)
    TRACER.enabled = False
    TRACER.reset()
    setup_events: list = []
    if args.trace:
        clear_caches()
        TRACER.enabled = True
        state = workload.setup(args.seed)
        TRACER.enabled = False
        setup_events, _ = TRACER.drain()
    else:
        repeats = getattr(workload, "setup_repeats", SETUP_REPEATS)
        setup_times, state = harness.timed_setups(
            lambda: workload.setup(args.seed), repeats)
    rec = harness.Recorder(seconds=args.seconds, trace=bool(args.trace))
    collector = layers.Collector()
    workload.measure(state, rec, args.seed, collector)
    extra = workload.extra(state)
    correct = rec.attempted > 0 and rec.failed == 0

    tag = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    if args.trace:
        probes = harness.ceiling_probes(args.seed)
        metrics = layers.layer_metrics(
            collector, setup_events, traced_s=rec.traced_s,
            untraced_s=rec.busy_s, ring_n=workload.ring_n, probes=probes,
            extra=extra)
        trace_path = os.path.join(OUT, f"trace_{tag}.json")
        write_json(trace_path, chrome_trace(
            setup_events + collector.events, dict(collector.counters),
            main_pid=os.getpid()))
        rows = [(name, value, unit, _label(name))
                for name, (value, unit) in metrics.items()]
        harness.print_table(
            f"{args.workload}: per-layer metrics (traced run; Chrome "
            f"trace in {os.path.relpath(trace_path, ROOT)})", rows)
    else:
        metrics, rows = end_to_end(workload, setup_times, rec, extra)
        harness.print_table(f"{args.workload}: end-to-end metrics", rows)
    for error in rec.errors:
        print(f"FAILED {error}")
    write_json(os.path.join(OUT, f"BENCH_{tag}.json"), {
        "meta": meta, "correct": correct, "attempted": rec.attempted,
        "failed": rec.failed, "errors": rec.errors,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}})
    print(harness.result_line(correct, rec.attempted, rec.failed, metrics))
    return 0 if correct else 1


def _label(name: str) -> str:
    """Whether a per-layer number is measured, computed or simulated."""
    if name.endswith("simulated_share") or name == "arch.sim_cycles":
        return "simulated"
    if name in ("compiler.replay.bytes_gathered", "cpu.copy_gb_per_s",
                "nttmath.ceiling_frac", "compiler.instrs_in",
                "compiler.instrs_out", "cpu.copy_footprint_mib",
                "cpu.llc_mib", "compiler.plan.steps"):
        return "computed"
    return "measured"


if __name__ == "__main__":
    sys.exit(main())
