"""Dense complex linear algebra for small (d <= 16) operator problems.

All functions are pure; matrices are plain complex ndarrays.  Default
tolerances: Hermiticity 1e-10, commutator checks 1e-9, both relative to the
operand norms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels

HERM_TOL = 1e-10
COMMUTATOR_TOL = 1e-9

_SIMDIAG_TRIES = 5


def dagger(m: np.ndarray) -> np.ndarray:
    return m.conj().T


def frobenius(m: np.ndarray) -> float:
    return float(np.linalg.norm(m))


def hermitian_part(m: np.ndarray) -> np.ndarray:
    return (m + m.conj().T) / 2


def antihermitian_part(m: np.ndarray) -> np.ndarray:
    """The Hermitian matrix B in the decomposition M = A + iB."""
    return (m - m.conj().T) / 2j


def is_hermitian(m: np.ndarray, tol: float = HERM_TOL) -> bool:
    return frobenius(m - m.conj().T) <= tol * (1 + frobenius(m))


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """ab - ba.  Antisymmetric in (a, b) by construction."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"need two square matrices of equal dimension, got {a.shape} and {b.shape}")
    return a @ b - b @ a


def commutation_defect(a: np.ndarray, b: np.ndarray) -> float:
    """||[a, b]||_F / (||a||_F ||b||_F); zero if either operand vanishes."""
    na = frobenius(a)
    nb = frobenius(b)
    if na == 0.0 or nb == 0.0:
        return 0.0
    return frobenius(commutator(a, b)) / (na * nb)


def is_normal(m: np.ndarray, tol: float = COMMUTATOR_TOL) -> bool:
    """True iff ||M M^dag - M^dag M||_F <= tol * (1 + ||M||_F^2)."""
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    defect = frobenius(m @ m.conj().T - m.conj().T @ m)
    return defect <= tol * (1 + frobenius(m) ** 2)


def normality_defect(m: np.ndarray) -> float:
    """||M M^dag - M^dag M||_F / ||M||_F^2; zero for the zero matrix."""
    n = frobenius(m)
    if n == 0.0:
        return 0.0
    return frobenius(m @ m.conj().T - m.conj().T @ m) / n**2


@dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition of a Hermitian matrix.

    eigenvalues are ascending; eigenvectors[:, k] belongs to eigenvalues[k].
    Within a degenerate cluster the eigenvector basis is an arbitrary gauge;
    callers must not rely on it.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def hermitian_eig(m: np.ndarray, tol: float = HERM_TOL) -> Spectrum:
    """Eigendecomposition of a Hermitian matrix via ``kernels.eigh``."""
    m = np.asarray(m, dtype=complex)
    if not is_hermitian(m, tol):
        raise ValueError("matrix is not Hermitian within tolerance")
    w, v = kernels.eigh(hermitian_part(m))
    return Spectrum(eigenvalues=np.asarray(w), eigenvectors=np.asarray(v))


def degenerate_clusters(eigenvalues: np.ndarray, rel_tol: float = 1e-8) -> list[list[int]]:
    """Group ascending eigenvalues into clusters closer than rel_tol * (1 + range)."""
    w = np.asarray(eigenvalues, dtype=float)
    if w.size == 0:
        return []
    gap = rel_tol * (1 + float(w[-1] - w[0]))
    clusters: list[list[int]] = [[0]]
    for i in range(1, w.size):
        if w[i] - w[clusters[-1][0]] <= gap:
            clusters[-1].append(i)
        else:
            clusters.append([i])
    return clusters


def von_neumann_entropy(eigenvalues_or_rho: np.ndarray, atol: float = 1e-10) -> float:
    """S = -sum_i p_i log2 p_i in bits; 0 log 0 := 0.

    Accepts a density matrix or its spectrum.  Eigenvalues slightly below
    zero (within atol) are clamped.
    """
    arr = np.asarray(eigenvalues_or_rho)
    if arr.ndim == 2:
        arr = hermitian_eig(arr).eigenvalues
    p = np.asarray(arr, dtype=float)
    if p.min() < -atol:
        raise ValueError(f"spectrum has eigenvalue {p.min():.3e} below -{atol:.0e}")
    p = np.clip(p, 0.0, None)
    nz = p[p > 0]
    return float(-np.sum(nz * np.log2(nz)))


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with the first factor indexing the outer blocks."""
    return np.kron(np.asarray(a), np.asarray(b))


def partial_trace(m: np.ndarray, dims: tuple[int, int], keep: str) -> np.ndarray:
    """Reduce a (dA*dB) x (dA*dB) operator to subsystem 'a' or 'b'."""
    da, db = dims
    m = np.asarray(m)
    if m.shape != (da * db, da * db):
        raise ValueError(f"matrix shape {m.shape} does not match dims {dims}")
    r = m.reshape(da, db, da, db)
    if keep == "a":
        return np.einsum("ijkj->ik", r)
    if keep == "b":
        return np.einsum("ijil->jl", r)
    raise ValueError("keep must be 'a' or 'b'")


def simultaneous_diagonalization(
    mats: list[np.ndarray] | tuple[np.ndarray, ...],
    tol: float = COMMUTATOR_TOL,
    max_tries: int = _SIMDIAG_TRIES,
) -> np.ndarray:
    """Common eigenbasis of a family of commuting normal matrices.

    Diagonalizes a random Hermitian combination of the Hermitian and
    anti-Hermitian parts (generic coefficients split accidental degeneracies
    with probability one), then verifies every conjugated matrix is diagonal;
    retries with fresh coefficients before giving up.  Returns the unitary V
    with V^dag M_i V diagonal within tol * (1 + ||M_i||_F).
    """
    if not mats:
        raise ValueError("need at least one matrix")
    mats = [np.asarray(m, dtype=complex) for m in mats]
    d = mats[0].shape[0]
    for m in mats:
        if m.shape != (d, d):
            raise ValueError("all matrices must be square with a common dimension")
        if not is_normal(m, tol):
            raise ValueError("family contains a non-normal matrix")
    for i, a in enumerate(mats):
        for b in mats[i + 1 :]:
            if commutation_defect(a, b) > tol:
                raise ValueError("family is not commuting within tolerance")

    parts = []
    for m in mats:
        parts.append(hermitian_part(m))
        parts.append(antihermitian_part(m))
    # Fixed internal stream: any verified draw is a valid answer, so a fixed
    # seed keeps the result reproducible without threading an rng through.
    rng = np.random.default_rng(0x51D1A6)
    for _ in range(max_tries):
        coeff = rng.standard_normal(len(parts))
        h = sum(c * p for c, p in zip(coeff, parts))
        v = hermitian_eig(h).eigenvectors
        if all(_is_diagonalized(v, m, tol) for m in mats):
            return v
    raise ValueError("failed to find a common eigenbasis (degenerate family?)")


def _is_diagonalized(v: np.ndarray, m: np.ndarray, tol: float) -> bool:
    t = v.conj().T @ m @ v
    off = t - np.diag(np.diag(t))
    return frobenius(off) <= tol * (1 + frobenius(m))
