"""Shared machinery of the benchmark: the measured loop, statistics,
run metadata, CPU ceiling probes and the final result line.

This module and the workload modules import ``repro``; ``run.py``
puts the checkout's ``src`` on ``sys.path`` before it loads them.
"""

from __future__ import annotations

import glob
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from repro.nttmath.batched import (
    clear_caches,
    shoup_companion,
    shoup_mul_lazy,
)
from repro.nttmath.primes import find_ntt_primes
from repro.obs import TRACER


# ----------------------------------------------------------------------
# The measured loop
# ----------------------------------------------------------------------
@dataclass
class Recorder:
    """Runs units of work (one request, burst, replay or sweep point)
    and keeps what the end-to-end metrics need.

    A unit is a callable returning ``(output, latencies_s)``: the
    latencies it measured from its own start, one per request it
    served or one for the whole unit.  Its busy time is the largest
    latency; throughput counts its requests.  In a traced run
    every unit runs twice, once with the tracer off and once with it
    on, so ``obs.overhead_frac`` compares the same work; the layer
    metrics come from the traced copies only.
    """

    seconds: float
    trace: bool
    busy_s: float = 0.0          # untraced busy time (throughput base)
    served: int = 0              # requests the untraced copies served
    traced_s: float = 0.0        # traced busy time (share base)
    latencies_s: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)

    @property
    def done(self) -> bool:
        return self.busy_s + self.traced_s >= self.seconds

    def run(self, unit, requests: int, check) -> None:
        """Run ``unit`` (twice when tracing) and ``check`` each output
        outside the timed interval.  ``check(output)`` raises on a
        wrong result.  A raise in either counts all ``requests`` of the
        copy as failed; the run carries on."""
        for traced in ((False, True) if self.trace else (False,)):
            self.attempted += requests
            TRACER.enabled = traced
            try:
                output, lat = unit()
            except Exception as exc:  # noqa: BLE001 - counted, run goes on
                self.fail(requests, "run", exc)
                continue
            finally:
                TRACER.enabled = False
            busy = max(lat)
            if traced:
                self.traced_s += busy
            else:
                self.busy_s += busy
                self.served += requests
                self.latencies_s.extend(lat)
            try:
                check(output)
            except Exception as exc:  # noqa: BLE001 - counted, run goes on
                self.fail(requests, "check", exc)

    def fail(self, requests: int, stage: str, exc: Exception) -> None:
        self.failed += requests
        if len(self.errors) < 5:
            self.errors.append(f"{stage}: {type(exc).__name__}: {exc}")


def timed_setups(setup, repeats: int):
    """Run ``setup()`` ``repeats`` times, each after ``clear_caches()``;
    returns ``(durations_s, state of the last setup)``."""
    times = []
    state = None
    for _ in range(repeats):
        state = None        # free the previous set-up before the next
        clear_caches()
        t0 = perf_counter()
        state = setup()
        times.append(perf_counter() - t0)
    return times, state


def percentile(samples, q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 1]): an observed sample,
    and the same one for a run of whole blocks however many blocks the
    run holds, since a block repeats one mix of work.  NaN when every
    unit failed."""
    if not samples:
        return math.nan
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def peak_rss_mb() -> float:
    """Peak resident set of this process, MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Run metadata
# ----------------------------------------------------------------------
def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> str:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{deps.get('name')} {deps.get('version')}"
    except Exception:  # noqa: BLE001 - metadata is best effort
        return "unknown"


def _git_rev(root: str) -> str:
    if not os.path.isdir(os.path.join(root, ".git")):
        return "none (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10,
                             check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def _src_digest(src: str) -> str:
    """SHA-256 over the package sources: identifies the code measured
    even where the checkout is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(src, "repro", "**", "*.py"),
                                 recursive=True)):
        digest.update(os.path.relpath(path, src).encode())
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()[:16]


def run_metadata(root: str, src: str, args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_model": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "git_rev": _git_rev(root),
        "src_sha256": _src_digest(src),
    }


# ----------------------------------------------------------------------
# CPU ceiling probes (traced runs only)
# ----------------------------------------------------------------------
#: Shape of the Shoup multiply-mod probe: one (L=8, N=4096) limb stack.
PROBE_SHAPE = (8, 4096)
#: Largest total footprint (source + destination) of the copy probe.
#: Four times a server's last-level caches can exceed a gigabyte;
#: the cap keeps the probe's memory small, and the report states both
#: sizes so a capped probe is visible as such.
COPY_FOOTPRINT_CAP_MIB = 512


def llc_mib() -> float:
    """Total L2 plus L3 capacity in MiB, from sysfs (0 if unknown).
    Each distinct cache instance counts once."""
    seen = {}
    for index in glob.glob("/sys/devices/system/cpu/cpu*/cache/index*"):
        try:
            with open(os.path.join(index, "level")) as fh:
                level = int(fh.read())
            with open(os.path.join(index, "size")) as fh:
                size = fh.read().strip()
            with open(os.path.join(index, "shared_cpu_list")) as fh:
                shared = fh.read().strip()
        except (OSError, ValueError):
            continue
        if level < 2:
            continue
        scale = {"K": 1 / 1024, "M": 1.0, "G": 1024.0}.get(size[-1], 0)
        seen[(level, shared)] = float(size[:-1]) * scale
    return sum(seen.values())


def _median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def ceiling_probes(seed: int) -> dict:
    """Measured CPU ceilings: numpy Shoup multiply-mod rows/s at
    :data:`PROBE_SHAPE`, and copy bandwidth on arrays larger than the
    last-level caches (bytes moved are computed, read + write)."""
    rows, n = PROBE_SHAPE
    rng = np.random.default_rng(seed)
    q_col = np.array(find_ntt_primes(30, n, rows),
                     dtype=np.uint64)[:, None]
    x, s_u = (rng.integers(0, q_col, size=PROBE_SHAPE, dtype=np.int64)
              .astype(np.uint64) for _ in range(2))
    s_sh = shoup_companion(s_u, q_col)
    out = np.empty_like(x)
    hi = np.empty_like(x)

    def mulmod():
        for _ in range(20):
            shoup_mul_lazy(x, s_u, s_sh, q_col, out=out, hi=hi)

    mulmod()
    shoup_rows_per_s = 20 * rows / _median_time(mulmod, 15)

    llc = llc_mib()
    footprint = min(max(4 * llc, 64), COPY_FOOTPRINT_CAP_MIB)
    half = int(footprint / 2 * 2 ** 20) // 8
    src = np.ones(half, dtype=np.int64)
    dst = np.zeros(half, dtype=np.int64)
    np.copyto(dst, src)
    copy_s = _median_time(lambda: np.copyto(dst, src), 5)
    del src, dst
    return {
        "cpu.shoup_rows_per_s": shoup_rows_per_s,
        "cpu.copy_gb_per_s": 2 * half * 8 / copy_s / 1e9,
        "cpu.copy_footprint_mib": 2 * half * 8 / 2 ** 20,
        "cpu.llc_mib": llc,
    }


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------
def print_table(title: str, rows) -> None:
    """``rows`` of ``(name, value, unit, label)``; label says whether a
    number is measured, computed or simulated."""
    print(f"== {title}")
    for name, value, unit, label in rows:
        if isinstance(value, float):
            text = f"{value:.6g}"
        else:
            text = str(value)
        print(f"  {name:<36} {text:>14} {unit:<8} {label}")


def result_line(correct: bool, attempted: int, failed: int,
                metrics: dict) -> str:
    """The final stdout line: ``metrics`` maps name -> (value, unit)."""
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    })
