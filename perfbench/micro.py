"""Isolated timings of the four hot kernels through ``qcorr.kernels``.

These are the kernel rows of ``benchmarks/bench_kernels.py`` (same kernels,
same dimensions), reported as ``kernels.<fn>.d<d>.us``: the median over
repeats of the mean time of one call, in microseconds, for the active
backend only.
"""

from __future__ import annotations

import statistics
from time import perf_counter

from qcorr import kernels
from qcorr.sampling import haar_unitary, random_cptp, random_density, rng_from_seed

DIMS = (2, 3, 4, 8)
KERNELS = ("eigh", "apply_kraus", "pair_violation", "entangled_overlap")
REPEATS = 5
REPEAT_S = 0.02


def _time_call(fn) -> float:
    number = 1
    while True:  # grow the loop until one repeat lasts REPEAT_S
        t0 = perf_counter()
        for _ in range(number):
            fn()
        if perf_counter() - t0 >= REPEAT_S:
            break
        number *= 2
    times = []
    for _ in range(REPEATS):
        t0 = perf_counter()
        for _ in range(number):
            fn()
        times.append((perf_counter() - t0) / number)
    return statistics.median(times)


def kernel_timings(seed: int) -> dict[str, float]:
    rng = rng_from_seed(seed)
    out = {}
    for d in DIMS:
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        h = (g + g.conj().T) / 2
        ops = random_cptp(d, rng).ops
        u0 = haar_unitary(d, rng)
        theta = 0.2 * rng.standard_normal(d * d)
        rho2 = random_density(d * d, rng).mat
        calls = {
            "eigh": lambda: kernels.eigh(h),
            "apply_kraus": lambda: kernels.apply_kraus(ops, h),
            "pair_violation": lambda: kernels.pair_violation(theta, u0, ops),
            "entangled_overlap": lambda: kernels.entangled_overlap(theta, u0, rho2),
        }
        for name in KERNELS:
            out[f"kernels.{name}.d{d}.us"] = _time_call(calls[name]) * 1e6
    return out
