"""Closed-loop runner, statistics and run environment for the benchmark.

One caller issues an operation, waits for its verdict, checks it against
the workload's oracle (untimed) and only then issues the next one.

Speed calibration: a shared two-core virtual machine changes speed by up
to 25% within seconds (other tenants), and a plain timing drifts with it.  Between operations the loop times a fixed
calibration chunk of interpreter work and scales each operation's latency
by CAL_REFERENCE_S over the median of the chunks timed around it.  Times
reported as end-to-end metrics are therefore "reference seconds": seconds
on the same machine running at the speed where the chunk takes
CAL_REFERENCE_S.  Raw seconds and the speed factors are kept next to them.
"""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import qcorr
from qcorr import kernels

TAIL_BEYOND = 10
RAW_CAP = 2.0
CAL_ITERS = 20000
CAL_REFERENCE_S = 2.0e-3
CAL_HALO_S = 0.5  # chunks timed this close to an operation calibrate it
CAL_EVERY_S = 0.1  # after an operation, one chunk per this much of its latency
CAL_BURST = 10  # ... but at most this many


def calibration_chunk() -> float:
    """Seconds taken by a fixed amount of interpreter work.

    Plain Python arithmetic tracks the library's speed across the machine's
    slow and fast phases better than small NumPy products do: measured on
    the two-core machine, an operation's log latency moved 0.8 times as far
    as this chunk's, against 0.55 times for a chunk of 4x4 matrix products.
    """
    t0 = perf_counter()
    acc = 0
    for i in range(CAL_ITERS):
        acc += i * i % 7
    return perf_counter() - t0


def calibration_median(n: int = 5) -> float:
    return median([calibration_chunk() for _ in range(n)])


@dataclass
class Pass:
    """Latencies, verdicts and failures of a sequence of operations, with
    the calibration chunks timed between them."""

    keys: list[str] = field(default_factory=list)
    starts: list[float] = field(default_factory=list)
    latencies: list[float] = field(default_factory=list)
    cal_t: list[float] = field(default_factory=list)
    cal: list[float] = field(default_factory=list)
    verdicts: list[dict] = field(default_factory=list)
    failures: list[dict] = field(default_factory=list)
    wall_s: float = 0.0

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def calibrate(self) -> None:
        """Time calibration chunks after the last operation, more after a
        longer one, so that the speed around every operation is known to a
        few percent."""
        last = self.latencies[-1] if self.latencies else CAL_BURST * CAL_EVERY_S
        for _ in range(min(CAL_BURST, max(1, round(last / CAL_EVERY_S)))):
            self.cal_t.append(perf_counter())
            self.cal.append(calibration_chunk())

    def recent_speed(self) -> float:
        return CAL_REFERENCE_S / median(self.cal[-CAL_BURST:])

    @property
    def speed(self) -> list[float]:
        """Per operation: CAL_REFERENCE_S over the median of the chunks timed
        within CAL_HALO_S of it."""
        out = []
        for start, lat in zip(self.starts, self.latencies):
            lo = bisect_left(self.cal_t, start - CAL_HALO_S)
            hi = bisect_right(self.cal_t, start + lat + CAL_HALO_S)
            out.append(CAL_REFERENCE_S / median(self.cal[lo:hi]))
        return out

    @property
    def normalized(self) -> list[float]:
        """Latencies in reference seconds."""
        return [lat * f for lat, f in zip(self.latencies, self.speed)]


def _one(workload, op, out: Pass, call) -> None:
    out.keys.append(op.key)
    t0 = perf_counter()
    out.starts.append(t0)
    try:
        result = call(op)
    except Exception:  # a raising verdict is a failed operation, not a crash
        out.latencies.append(perf_counter() - t0)
        out.verdicts.append({"raised": True})
        out.failures.append({"key": op.key, "seed": op.seed, "problems": [traceback.format_exc(limit=3)]})
        return
    out.latencies.append(perf_counter() - t0)
    try:
        out.verdicts.append(workload.verdict(op, result))
        problems = workload.check(op, result)
    except Exception:
        out.verdicts.append({"unreadable": True})
        problems = [traceback.format_exc(limit=3)]
    if problems:
        out.failures.append({"key": op.key, "seed": op.seed, "problems": problems})


def closed_loop(workload, ops, seconds: float) -> Pass:
    """Cycle through ops until their latencies add up to `seconds` reference
    seconds and the current round of the schedule is complete.  Whole rounds
    keep the mix of input classes the same in every run, and reference
    seconds keep the number of rounds the same however fast the machine is;
    a slow machine is cut off at RAW_CAP times `seconds` of wall time."""
    out = Pass()
    out.calibrate()
    t_start = perf_counter()
    spent = 0.0
    i = 0
    while not (spent >= seconds and i % workload.round_len == 0):
        if perf_counter() - t_start >= RAW_CAP * seconds:
            break
        _one(workload, ops[i % len(ops)], out, workload.run)
        out.calibrate()
        spent += out.latencies[-1] * out.recent_speed()
        i += 1
    out.wall_s = perf_counter() - t_start
    return out


def paired_pass(workload, ops, tracer) -> tuple[Pass, Pass]:
    """Run each op twice back to back, traced and untraced, alternating
    which goes first, so that drift in machine speed cancels from the
    tracing overhead.  The wrappers are installed only for the traced call,
    so the untraced call runs unmodified code."""
    traced, plain = Pass(), Pass()
    traced.calibrate()
    plain.calibrate()
    for i, op in enumerate(ops):
        def call_traced(op, i=i):
            with tracer:
                return tracer.run_op(i, workload.run, op)

        runs = [(traced, call_traced), (plain, workload.run)]
        for out, call in runs if i % 2 == 0 else runs[::-1]:
            _one(workload, op, out, call)
            out.calibrate()
    return traced, plain


def by_class(done: Pass) -> dict[str, dict]:
    """Median latency and count per input class."""
    groups: dict[str, list[float]] = {}
    for key, lat in zip(done.keys, done.latencies):
        groups.setdefault(key, []).append(lat)
    return {k: {"n": len(v), "median_s": median(v)} for k, v in sorted(groups.items())}


def unclassified_frac(done: Pass) -> float:
    """Share of verdicts labelled unclassified (no detector and no violation)."""
    return sum(v.get("label") == "unclassified" for v in done.verdicts) / done.attempted


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) at the highest percentile with
    TAIL_BEYOND samples above it: the (TAIL_BEYOND + 1)-th largest latency.
    With TAIL_BEYOND samples or fewer it is the maximum."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0, n - 1
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND - 1) / (n - 1), TAIL_BEYOND


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def median(xs) -> float:
    return float(statistics.median(xs))


def _blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS bundled with NumPy, if found."""
    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _git_rev(root: str) -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, env=env, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(root: str, seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_rev": _git_rev(root),
        "backend": kernels.backend_name,
        "qcorr_version": qcorr.__version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "seed": seed,
        "argv": sys.argv[1:],
    }
