"""Dense complex linear algebra for small (d <= 16) operator problems.

All functions are pure; matrices are plain complex ndarrays, and a family
of matrices is one stacked (n, d, d) array.  worst_commutation_defect is
the single "normal and pairwise commuting" test: the classical-on-B
detector and the decohering-channel detector call it, and
simultaneous_diagonalization calls it to name the fault of a family it
cannot diagonalize.  The tolerances below are the first rows of the
README's tolerance table, which states and channels continue.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels

HERM_TOL = 1e-10
COMMUTATOR_TOL = 1e-9
# an eigenvalue of a state (or a weight of a mixture) may be this far below 0
SPECTRUM_ATOL = 1e-10
# a member of at most this Frobenius norm is zero; rounding leaves ~d^2 eps (1.4e-14 at d = 8)
ZERO_MEMBER_ATOL = 1e-12

_SIMDIAG_TRIES = 5


def frobenius(m: np.ndarray) -> float:
    return float(np.linalg.norm(m))


def hermitian_part(m: np.ndarray) -> np.ndarray:
    return (m + m.conj().T) / 2


def is_hermitian(m: np.ndarray) -> bool:
    return frobenius(m - m.conj().T) <= HERM_TOL * (1 + frobenius(m))


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """ab - ba.  Antisymmetric in (a, b) by construction."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"need two square matrices of equal dimension, got {a.shape} and {b.shape}")
    return a @ b - b @ a


def worst_commutation_defect(
    mats: np.ndarray, *, skip: float = 0.0, stop: float = np.inf
) -> tuple[float, tuple[int, int] | None]:
    """Largest normalized defect of a stacked (n, d, d) family, and where it is.

    The pair defect of members i < j is ||[M_i, M_j]||_F / (||M_i||_F ||M_j||_F);
    the normality defect of member i is ||[M_i, M_i^dag]||_F / ||M_i||_F^2 and
    is reported as the pair (i, i).  Both vanish for every member exactly
    when the family is normal and pairwise commuting.  Members with norm at
    most skip are left out; the pair is None when no defect is positive.

    Scans row by row, member i against M_i^dag and members i+1..n-1 in one
    batched product, so no temporary grows like n^2 d^2.  Ties go to the
    first pair in row-major order.  Returns after the first row whose worst
    exceeds stop: the value is then a lower bound that already exceeds it.
    A non-finite entry raises: a NaN member would otherwise be skipped.
    """
    mats = np.asarray(mats)
    if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
        raise ValueError(f"need an (n, d, d) stack of square matrices, got shape {mats.shape}")
    # before any norm, which warns on an infinite complex entry
    if not np.isfinite(mats).all():
        raise ValueError("family has non-finite entries")
    norms = np.linalg.norm(mats, axis=(1, 2))
    keep = np.flatnonzero(norms > skip)
    members, norms = mats[keep], norms[keep]
    worst, pair = 0.0, None
    for r, a in enumerate(members):
        # others[0] = M_r^dag, so defects[0] is the normality defect of M_r
        others = np.concatenate((a.conj().T[None], members[r + 1 :]))
        defects = np.linalg.norm(a @ others - others @ a, axis=(1, 2)) / (norms[r] * norms[r:])
        k = int(np.argmax(defects))
        if defects[k] > worst:
            worst, pair = float(defects[k]), (int(keep[r]), int(keep[r + k]))
        if worst > stop:
            break
    return worst, pair


@dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition of a Hermitian matrix.

    eigenvalues are ascending; eigenvectors[:, k] belongs to eigenvalues[k].
    Within a degenerate cluster the eigenvector basis is an arbitrary gauge;
    callers must not rely on it.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def hermitian_eig(m: np.ndarray) -> Spectrum:
    """Eigendecomposition of a Hermitian matrix via ``kernels.eigh``."""
    m = np.asarray(m, dtype=complex)
    if not is_hermitian(m):
        raise ValueError("matrix is not Hermitian within tolerance")
    w, v = kernels.eigh(hermitian_part(m))
    return Spectrum(eigenvalues=np.asarray(w), eigenvectors=np.asarray(v))


def von_neumann_entropy(eigenvalues_or_rho: np.ndarray) -> float:
    """S = -sum_i p_i log2 p_i in bits; 0 log 0 := 0.

    Accepts a density matrix or its spectrum.  Eigenvalues slightly below
    zero (within SPECTRUM_ATOL) are clamped; a lower one, or NaN, raises.
    """
    arr = np.asarray(eigenvalues_or_rho)
    if arr.ndim == 2:
        arr = hermitian_eig(arr).eigenvalues
    p = np.asarray(arr, dtype=float)
    if not p.min() >= -SPECTRUM_ATOL:
        raise ValueError(f"spectrum has eigenvalue {p.min():.3e}, not >= -{SPECTRUM_ATOL:.0e}")
    p = np.clip(p, 0.0, None)
    nz = p[p > 0]
    return float(-np.sum(nz * np.log2(nz)))


def polar_factors(g: np.ndarray) -> np.ndarray:
    """Unitary polar factors W V^dag of a stack (n, d, d), G = W S V^dag.

    At d = 2 by the closed form (G + e^{i phi} adj(G)^dag) / (s_1 + s_2),
    e^{i phi} the phase of det G (1 when det G = 0).  For any unit phase
    the numerator has rows (p, q) and (-e^{i phi} q*, e^{i phi} p*), a
    multiple of a unitary, so its second row is built from its first and
    s_1 + s_2 is the first row's norm.  A zero G gives I, as the SVD does;
    a rank-1 G gives a unitary V with Re tr(V^dag G) = s_1.  Above d = 2 by
    one batched SVD.
    """
    g = np.asarray(g, dtype=complex)
    if g.shape[1:] != (2, 2):
        w, _, vh = np.linalg.svd(g)
        return w @ vh
    det = g[:, 0, 0] * g[:, 1, 1] - g[:, 0, 1] * g[:, 1, 0]
    mag = np.abs(det)
    phase = np.divide(det, mag, out=np.ones_like(det), where=mag > 0)
    num = np.empty_like(g)
    num[:, 0, 0] = g[:, 0, 0] + phase * g[:, 1, 1].conj()
    num[:, 0, 1] = g[:, 0, 1] - phase * g[:, 1, 0].conj()
    num[:, 1, 0] = -phase * num[:, 0, 1].conj()
    num[:, 1, 1] = phase * num[:, 0, 0].conj()
    scale = np.linalg.norm(num[:, 0], axis=1)
    zero = scale == 0
    if zero.any():
        scale[zero] = 1.0
        num[zero] = np.eye(2)
    return num / scale[:, None, None]


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
    mats: list[np.ndarray] | tuple[np.ndarray, ...] | np.ndarray,
    tol: float = COMMUTATOR_TOL,
) -> np.ndarray:
    """Common eigenbasis of a family of commuting normal matrices.

    Diagonalizes a random real combination of the Hermitian and
    anti-Hermitian parts (generic coefficients split accidental
    degeneracies with probability one), then verifies every conjugated
    matrix is diagonal; retries with fresh coefficients (_SIMDIAG_TRIES
    draws in all) before giving up.  Returns the unitary V with V^dag M_i V
    diagonal within tol * (1 + ||M_i||_F).  That bound is the whole
    contract: a family that passes it is accepted even when a member is
    non-normal, or a pair fails to commute, by less than it (e.g. a
    nilpotent member of norm below tol).
    The verification is the proof, so the family is scanned with
    worst_commutation_defect only when every try fails: the error then says
    whether a member is non-normal, a pair fails to commute within tol in
    the normalized sense, or the family was degenerate.
    """
    if len(mats) == 0:
        raise ValueError("need at least one matrix")
    d = np.shape(mats[0])[0]
    if any(np.shape(m) != (d, d) for m in mats):
        raise ValueError("all matrices must be square with a common dimension")
    stack = np.asarray(mats, dtype=complex)

    adj = stack.conj().transpose(0, 2, 1)
    # parts[2i] and parts[2i + 1] are the Hermitian A_i and B_i in M_i = A_i + i B_i
    parts = np.stack(((stack + adj) / 2, (stack - adj) / 2j), axis=1).reshape(-1, d, d)
    bound = tol * (1 + np.linalg.norm(stack, axis=(1, 2)))
    off_diag = ~np.eye(d, dtype=bool)
    # Fixed internal stream: any verified draw is a valid answer, so a fixed
    # seed keeps the result reproducible without threading an rng through.
    rng = np.random.default_rng(0x51D1A6)
    for _ in range(_SIMDIAG_TRIES):
        coeff = rng.standard_normal(len(parts))
        v = hermitian_eig(np.tensordot(coeff, parts, axes=1)).eigenvectors
        t = v.conj().T @ stack @ v
        if np.all(np.linalg.norm(t[:, off_diag], axis=1) <= bound):
            return v
    worst, pair = worst_commutation_defect(stack, stop=tol)
    if worst > tol:
        if pair[0] == pair[1]:
            raise ValueError("family contains a non-normal matrix")
        raise ValueError("family is not commuting within tolerance")
    raise ValueError("failed to find a common eigenbasis (degenerate family?)")
