"""Benchmark the compiled kernels against the pure-NumPy fallback.

Times the individual hot kernels and one end-to-end preservation verdict
under each backend.  Run from the repository root:

    python benchmarks/bench_kernels.py
"""

from __future__ import annotations

import time

import numpy as np

from qcorr import _kernels_py
from qcorr import kernels as active
from qcorr.sampling import haar_unitary, random_cptp, random_density, rng_from_seed

try:
    from qcorr import _kernels_c
except ImportError:
    _kernels_c = None

BACKENDS = [("python", _kernels_py)] + ([("compiled", _kernels_c)] if _kernels_c else [])


def timeit(fn, *, repeat: int, number: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        for _ in range(number):
            fn()
        best = min(best, (time.perf_counter() - t0) / number)
    return best


def bench_kernels() -> None:
    rng = rng_from_seed(1234)
    rows = []
    for d in (2, 3, 4, 8):
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        h = (g + g.conj().T) / 2
        ch = random_cptp(d, rng)
        u0 = haar_unitary(d, rng)
        theta = 0.2 * rng.standard_normal(d * d)
        rho2 = random_density(d * d, rng).mat
        cases = [
            (f"eigh d={d}", lambda k: k.eigh(h)),
            (f"pair_violation d={d}", lambda k: k.pair_violation(theta, u0, ch.ops)),
            (f"entangled_overlap d={d}", lambda k: k.entangled_overlap(theta, u0, rho2)),
            (f"apply_kraus d={d}", lambda k: k.apply_kraus(ch.ops, h)),
        ]
        for name, call in cases:
            times = {}
            for bname, mod in BACKENDS:
                number = 2000 if bname == "compiled" else 300
                times[bname] = timeit(lambda: call(mod), repeat=3, number=number)
            rows.append((name, times))

    print(f"{'kernel':28s} {'python':>12s} {'compiled':>12s} {'speedup':>9s}")
    for name, times in rows:
        py = times["python"] * 1e6
        if "compiled" in times:
            c = times["compiled"] * 1e6
            print(f"{name:28s} {py:10.2f}us {c:10.2f}us {py / c:8.1f}x")
        else:
            print(f"{name:28s} {py:10.2f}us {'-':>12s} {'-':>9s}")


def bench_end_to_end() -> None:
    from qcorr import classify
    from qcorr.sampling import substream

    print()
    print("end-to-end: commutativity-preservation verdict, qutrit isotropic channel")
    channel = None
    for bname, mod in BACKENDS:
        # route the active kernel table through this backend
        for fname in ("eigh", "expi_hermitian", "unpack_hermitian", "apply_kraus",
                      "commutator_fro", "pair_violation", "entangled_overlap"):
            setattr(active, fname, getattr(mod, fname))
        from qcorr.sampling import random_isotropic

        channel = random_isotropic(3, substream(7, 0))
        t0 = time.perf_counter()
        verdict = classify.is_commutativity_preserving(
            channel, rng=substream(7, 1), budget=20000
        )
        dt = time.perf_counter() - t0
        print(f"  {bname:9s}: {dt * 1e3:8.1f} ms  (preserving={verdict.preserving}, "
              f"evals/budget={verdict.evals}/{verdict.budget})")


if __name__ == "__main__":
    print(f"active backend at import: {active.backend_name}")
    if _kernels_c is None:
        print("compiled extension not built; showing python-only timings")
    bench_kernels()
    bench_end_to_end()
