"""Density matrices, bipartite states, and the classical-on-B detector.

A state is "classical on B" when it can be written as
sum_i p_i rho_A^i (x) |b_i><b_i| for some orthonormal basis {|b_i>} of B,
equivalently when some von Neumann measurement on B leaves it untouched.
The detector works on the B-side blocks C_kl = <k|_A rho |l>_A: the state is
classical on B iff every block is normal and all blocks pairwise commute.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg

TRACE_ATOL = 1e-10
PSD_CLAMP = 1e-10
KET_ATOL = 1e-12
ORTHONORMAL_ATOL = 1e-10
CLASSICALITY_TOL = 1e-9
# argument checks read "not x <= tol", so NaN input fails them


def check_ket(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=complex).reshape(-1)
    if not abs(np.linalg.norm(v) - 1.0) <= KET_ATOL:
        raise ValueError("state vector is not normalized")
    return v


def check_orthonormal(columns: np.ndarray) -> np.ndarray:
    """Validate that the columns of a matrix are orthonormal (Gram residual)."""
    b = np.asarray(columns, dtype=complex)
    if b.ndim != 2:
        raise ValueError("expected a matrix whose columns are basis vectors")
    gram = b.conj().T @ b
    if not linalg.frobenius(gram - np.eye(b.shape[1])) <= ORTHONORMAL_ATOL:
        raise ValueError("basis columns are not orthonormal within tolerance")
    return b


class DensityMatrix:
    """A validated density matrix: Hermitian, unit trace, PSD.

    The constructor validates: eigenvalues in [-1e-10, 0) are clamped to
    zero and the state is renormalized; anything more negative is rejected
    rather than masked.  Every matrix from outside the library (a JSON
    file, a caller's array) takes that path.

    Three constructors skip the eigh because their matrix is a density
    matrix by construction: pure and maximally_mixed, and from_psd for a
    PSD matrix the library built from checked parts (a Wishart state, a
    channel image, a half-classical or witness input, a dephased state,
    a commuting pair).  from_psd takes the Hermitian part and divides by
    its trace, so an image whose trace is off by a channel's accepted
    residual (up to TP_ATOL) is normalized, not rejected at TRACE_ATOL.
    """

    __slots__ = ("dim", "mat")

    def __init__(self, mat: np.ndarray, *, _validated: bool = False):
        mat = np.asarray(mat, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("density matrix must be square")
        if not _validated:
            mat = _validate_density(mat)
        self.mat = mat
        self.dim = mat.shape[0]
        self.mat.setflags(write=False)

    @classmethod
    def pure(cls, ket: np.ndarray) -> "DensityMatrix":
        v = check_ket(ket)
        return cls(np.outer(v, v.conj()), _validated=True)

    @classmethod
    def maximally_mixed(cls, dim: int) -> "DensityMatrix":
        return cls(np.eye(dim, dtype=complex) / dim, _validated=True)

    @classmethod
    def from_psd(cls, mat: np.ndarray) -> "DensityMatrix":
        """Normalize a matrix that is PSD by construction: Hermitian part over its trace.

        The operations and their order are those of the constructor's
        validation when no eigenvalue needs clamping, so a full-rank state
        comes out bit for bit the same.
        """
        mat = linalg.hermitian_part(np.asarray(mat, dtype=complex))
        return cls(mat / np.real(np.trace(mat)), _validated=True)

    def spectrum(self) -> linalg.Spectrum:
        return linalg.hermitian_eig(self.mat)

    def entropy(self) -> float:
        """Von Neumann entropy in bits."""
        return linalg.von_neumann_entropy(self.spectrum().eigenvalues)

    def purity(self) -> float:
        return float(np.real(np.trace(self.mat @ self.mat)))

    def __repr__(self) -> str:
        return f"DensityMatrix(dim={self.dim})"


def _validate_density(mat: np.ndarray) -> np.ndarray:
    if not linalg.is_hermitian(mat):
        raise ValueError("density matrix is not Hermitian within tolerance")
    mat = linalg.hermitian_part(mat)
    tr = float(np.real(np.trace(mat)))
    if abs(tr - 1.0) > TRACE_ATOL:
        raise ValueError(f"trace is {tr!r}, not 1 within {TRACE_ATOL:.0e}")
    spec = linalg.hermitian_eig(mat)
    wmin = float(spec.eigenvalues[0])
    if wmin < -PSD_CLAMP:
        raise ValueError(f"matrix has eigenvalue {wmin:.3e} below -{PSD_CLAMP:.0e}")
    if wmin < 0:
        w = np.clip(spec.eigenvalues, 0.0, None)
        v = spec.eigenvectors
        mat = linalg.hermitian_part((v * w) @ v.conj().T)
        mat /= np.real(np.trace(mat))
    else:
        mat = mat / tr
    return mat


class BipartiteState:
    """A density matrix on A (x) B with recorded local dimensions."""

    __slots__ = ("dim_a", "dim_b", "joint")

    def __init__(self, dim_a: int, dim_b: int, joint: DensityMatrix | np.ndarray):
        if dim_a < 1 or dim_b < 1:
            raise ValueError(f"local dimensions must be >= 1, got {dim_a} x {dim_b}")
        if not isinstance(joint, DensityMatrix):
            joint = DensityMatrix(joint)
        if joint.dim != dim_a * dim_b:
            raise ValueError(f"joint dimension {joint.dim} != {dim_a} * {dim_b}")
        self.dim_a = int(dim_a)
        self.dim_b = int(dim_b)
        self.joint = joint

    @property
    def mat(self) -> np.ndarray:
        return self.joint.mat

    def __repr__(self) -> str:
        return f"BipartiteState(dim_a={self.dim_a}, dim_b={self.dim_b})"


@dataclass(frozen=True)
class ClassicalityReport:
    """Outcome of the classical-on-B test.

    quantumness is the largest normalized commutator / non-normality defect
    over the B-side blocks; it vanishes exactly on classical-on-B states and
    is invariant under local unitaries on B.  worst_pair gives the block
    indices (k, l), (m, n) achieving the maximum ((k, l) twice for a
    normality defect).
    """

    is_classical_on_b: bool
    quantumness: float
    worst_pair: tuple[tuple[int, int], tuple[int, int]] | None


def make_half_classical(
    weights,
    cond_a,
    basis_b: np.ndarray,
) -> BipartiteState:
    """Build sum_i p_i rho_A^i (x) |b_i><b_i|.

    weights must form a probability vector, basis_b an orthonormal set of
    column vectors on B (at most dim_b of them), cond_a a matching list of
    density matrices on A.  The parts are checked; their mixture is only
    normalized (from_psd).
    """
    p = np.asarray(weights, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise ValueError("weights must be a nonempty vector")
    if not (p.min() >= -1e-12 and abs(p.sum() - 1.0) <= 1e-10):
        raise ValueError("weights must be nonnegative and sum to 1")
    p = np.clip(p, 0.0, None)
    basis = check_orthonormal(basis_b)
    dim_b = basis.shape[0]
    if basis.shape[1] != p.size or len(cond_a) != p.size:
        raise ValueError("weights, cond_a and basis_b must have matching lengths")
    if p.size > dim_b:
        raise ValueError("more basis states than the dimension of B")
    rhos = [r if isinstance(r, DensityMatrix) else DensityMatrix(r) for r in cond_a]
    dim_a = rhos[0].dim
    if any(r.dim != dim_a for r in rhos):
        raise ValueError("conditional A states must share one dimension")
    cond = np.stack([r.mat for r in rhos])
    # joint[(k, a), (l, b)] = sum_i p_i cond_i[k, l] b_i[a] conj(b_i[b])
    joint = np.einsum("i,ikl,ai,bi->kalb", p, cond, basis, basis.conj())
    n = dim_a * dim_b
    return BipartiteState(dim_a, dim_b, DensityMatrix.from_psd(joint.reshape(n, n)))


def block_decompose(state: BipartiteState) -> np.ndarray:
    """B-side blocks C[k, l] = <k|_A rho |l>_A, shape (dA, dA, dB, dB).

    sum_k C[k, k] has unit trace and C[l, k] = C[k, l]^dag; the state is
    recovered as sum_kl |k><l| (x) C[k, l].
    """
    da, db = state.dim_a, state.dim_b
    return state.mat.reshape(da, db, da, db).transpose(0, 2, 1, 3)


def reassemble_blocks(blocks: np.ndarray) -> np.ndarray:
    """Inverse of block_decompose (returns the raw joint matrix)."""
    da, _, db, _ = blocks.shape
    return blocks.transpose(0, 2, 1, 3).reshape(da * db, da * db)


def is_classical_on_b(state: BipartiteState) -> ClassicalityReport:
    """Test whether a bipartite state is classical on B.

    Classical iff every block C_kl is normal and all pairs commute within
    CLASSICALITY_TOL (normalized defects).  Only the defect is computed: a
    caller that needs the non-disturbing measurement basis diagonalizes the
    blocks jointly (linalg has the routine).
    """
    da, db = state.dim_a, state.dim_b
    # flat[k * da + l] = C_kl
    flat = block_decompose(state).reshape(da * da, db, db)
    worst, pair = linalg.worst_commutation_defect(flat, skip=1e-14)
    return ClassicalityReport(
        is_classical_on_b=worst <= CLASSICALITY_TOL,
        quantumness=worst,
        worst_pair=None if pair is None else (divmod(pair[0], da), divmod(pair[1], da)),
    )


def measure_and_dephase(state: BipartiteState, basis_b: np.ndarray) -> BipartiteState:
    """Project B onto an orthonormal basis: sum_j (I (x) P_j) rho (I (x) P_j).

    Idempotent; leaves a classical-on-B state unchanged when measured in its
    own basis.  A pinched state is a state, so it is only normalized.
    """
    basis = check_orthonormal(basis_b)
    if basis.shape != (state.dim_b, state.dim_b):
        raise ValueError("basis must be a full orthonormal basis of B")
    bt = basis.conj().T
    # every block B_kl goes to basis diag(bt B_kl basis) bt
    diag = np.diagonal(bt @ block_decompose(state) @ basis, axis1=-2, axis2=-1)
    out = (basis * diag[..., None, :]) @ bt
    return BipartiteState(state.dim_a, state.dim_b, DensityMatrix.from_psd(reassemble_blocks(out)))
