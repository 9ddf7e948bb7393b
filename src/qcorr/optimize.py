"""Derivative-free multistart search over unitary-generator coordinates.

Objectives take (theta, u0) where theta parameterizes a Hermitian generator
(d^2 reals, see kernels.unpack_hermitian) and u0 is a fixed base unitary;
the point evaluated is u0 @ exp(iH(theta)).  Start 0 always uses u0 = I and
theta = 0 so the unoptimized reference point is part of every search;
further starts draw Haar bases from the supplied generator.  The budget is
a cap on total objective evaluations across starts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .sampling import haar_unitary

DEFAULT_BUDGET = 20000
DEFAULT_STARTS = 32


def nelder_mead(
    f: Callable[[np.ndarray], float],
    x0: np.ndarray,
    *,
    step: float = 0.25,
    max_evals: int = 1000,
    ftol: float = 1e-12,
    xtol: float = 1e-9,
) -> tuple[np.ndarray, float, int]:
    """Minimize f by the classic simplex method; returns (x_best, f_best, evals).

    Bookkeeping tracks the best point ever evaluated, so a mid-iteration
    budget cut still returns the true incumbent.
    """
    n = x0.size
    alpha, gamma, rho, sigma = 1.0, 2.0, 0.5, 0.5
    evals = 0

    best_x = x0.copy()
    best_f = np.inf

    def call(x: np.ndarray) -> float:
        nonlocal evals, best_x, best_f
        v = f(x)
        evals += 1
        if v < best_f:
            best_f = v
            best_x = x.copy()
        return v

    simplex = np.empty((n + 1, n))
    simplex[0] = x0
    for i in range(n):
        simplex[i + 1] = x0
        simplex[i + 1, i] += step
    values = np.empty(n + 1)
    for i in range(n + 1):
        if evals >= max_evals:
            return best_x, best_f, evals
        values[i] = call(simplex[i])

    while evals < max_evals:
        order = np.argsort(values, kind="stable")
        simplex = simplex[order]
        values = values[order]
        if values[-1] - values[0] < ftol:
            break
        if np.max(np.abs(simplex[1:] - simplex[0])) < xtol:
            break

        centroid = simplex[:-1].mean(axis=0)
        xr = centroid + alpha * (centroid - simplex[-1])
        fr = call(xr)
        if fr < values[0]:
            xe = centroid + gamma * (xr - centroid)
            if evals >= max_evals:
                break
            fe = call(xe)
            if fe < fr:
                simplex[-1], values[-1] = xe, fe
            else:
                simplex[-1], values[-1] = xr, fr
        elif fr < values[-2]:
            simplex[-1], values[-1] = xr, fr
        else:
            if fr < values[-1]:
                xc = centroid + rho * (xr - centroid)
            else:
                xc = centroid - rho * (centroid - simplex[-1])
            if evals >= max_evals:
                break
            fc = call(xc)
            if fc < min(fr, values[-1]):
                simplex[-1], values[-1] = xc, fc
            else:
                for i in range(1, n + 1):
                    if evals >= max_evals:
                        return best_x, best_f, evals
                    simplex[i] = simplex[0] + sigma * (simplex[i] - simplex[0])
                    values[i] = call(simplex[i])
    return best_x, best_f, evals


@dataclass(frozen=True)
class SearchResult:
    """Best point found by a multistart run."""

    value: float
    theta: np.ndarray
    u0: np.ndarray
    evals: int
    stopped_early: bool


def maximize_unitary_objective(
    objective: Callable[[np.ndarray, np.ndarray], float],
    dim: int,
    *,
    rng: np.random.Generator,
    budget: int = DEFAULT_BUDGET,
    starts: int = DEFAULT_STARTS,
    step: float = 0.25,
    early_stop: float | None = None,
) -> SearchResult:
    """Multistart maximization of objective(theta, u0) over U(dim).

    The remaining budget is split evenly over the remaining starts, so
    quickly converging starts donate their leftover evaluations.  When
    early_stop is given, the incumbent is compared with it after each start
    finishes, and the search returns once it is reached (the value is a
    decision threshold, not an optimum claim).  A start is never cut short:
    even if it passes early_stop in its first evaluations, it runs to
    convergence or to its share of the budget.
    """
    n = dim * dim
    identity = np.eye(dim, dtype=complex)
    best_value = -np.inf
    best_theta = np.zeros(n)
    best_u0 = identity
    evals = 0
    stopped = False
    for s in range(starts):
        remaining = budget - evals
        if remaining <= 0:
            break
        u0 = identity if s == 0 else haar_unitary(dim, rng)
        per_start = max(remaining // (starts - s), n + 2)
        per_start = min(per_start, remaining)
        x, fneg, used = nelder_mead(
            lambda th: -objective(th, u0), np.zeros(n), step=step, max_evals=per_start
        )
        evals += used
        if -fneg > best_value:
            best_value = -fneg
            best_theta = x
            best_u0 = u0
        if early_stop is not None and best_value >= early_stop:
            stopped = True
            break
    return SearchResult(
        value=best_value, theta=best_theta, u0=best_u0, evals=evals, stopped_early=stopped
    )
