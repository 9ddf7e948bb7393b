"""Trace-preserving channels in Kraus and Choi form, plus named constructors.

Choi convention used throughout (and in the JSON file format): the channel
acts on the first leg of a maximally entangled pair,

    J(L) = (L (x) I)(|Phi+><Phi+|),   |Phi+> = (1/sqrt d) sum_i |ii>,

normalized to unit trace.  With this convention J is PSD iff the map is
completely positive, and tracing out the first (output) leg of a
trace-preserving channel gives I/d.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import kernels, linalg
from .states import BipartiteState, DensityMatrix

TP_ATOL = 1e-9
CHOI_PSD_ATOL = 1e-8
KRAUS_DROP_TOL = 1e-12
UNITARY_ATOL = 1e-9


def is_unitary(u: np.ndarray, atol: float = UNITARY_ATOL) -> bool:
    u = np.asarray(u)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        return False
    return linalg.frobenius(u.conj().T @ u - np.eye(u.shape[0])) <= atol * (1 + u.shape[0])


def maximally_entangled_ket(d: int) -> np.ndarray:
    """(1/sqrt d) sum_i |ii>."""
    v = np.zeros(d * d, dtype=complex)
    v[:: d + 1] = 1 / np.sqrt(d)
    return v


class KrausChannel:
    """A channel given by Kraus operators {E_i} acting as sum_i E_i rho E_i^dag.

    Always trace preserving: the constructor rejects any Kraus list with
    ||sum_i E_i^dag E_i - I||_F > TP_ATOL.  Any Kraus list is completely
    positive: its Choi matrix is a Gram matrix.  The adjoint map, which is
    trace preserving only for unital channels, is an action (apply_adjoint),
    not a channel.
    kind/params carry optional constructor metadata for serialization.
    """

    __slots__ = ("dim", "ops", "kind", "params", "_images")

    def __init__(
        self,
        ops: Sequence[np.ndarray] | np.ndarray,
        *,
        kind: str | None = None,
        params: dict | None = None,
    ):
        arr = np.array([np.asarray(e, dtype=complex) for e in ops])
        if arr.ndim != 3 or arr.shape[0] == 0 or arr.shape[1] != arr.shape[2]:
            raise ValueError("need a nonempty list of square matrices of one dimension")
        if not np.all(np.isfinite(arr.view(float))):
            raise ValueError("Kraus operators contain non-finite entries")
        d = arr.shape[1]
        resid = linalg.frobenius(np.einsum("kji,kjl->il", arr.conj(), arr) - np.eye(d))
        if resid > TP_ATOL:
            raise ValueError(
                f"not trace preserving: ||sum E^dag E - I||_F = {resid:.3e} > {TP_ATOL:.0e}"
            )
        self.ops = arr
        self.ops.setflags(write=False)
        self.dim = d
        self.kind = kind
        self.params = params or {}
        self._images = None

    def __repr__(self) -> str:
        kind = f", kind={self.kind!r}" if self.kind else ""
        return f"KrausChannel(dim={self.dim}, n_kraus={len(self.ops)}{kind})"

    def apply_matrix(self, m: np.ndarray) -> np.ndarray:
        """Linear action sum_i E_i m E_i^dag on an arbitrary matrix."""
        m = np.asarray(m, dtype=complex)
        if m.shape != (self.dim, self.dim):
            raise ValueError(f"expected a {self.dim} x {self.dim} matrix")
        return np.asarray(kernels.apply_kraus(self.ops, m))

    def apply_adjoint(self, m: np.ndarray) -> np.ndarray:
        """L*(m) = sum_i E_i^dag m E_i on a d x d matrix or a (..., d, d) stack.

        Tr(A L(B)) = Tr(L*(A) B).  L* keeps traces only if L is unital, so
        its images are matrices, not renormalized states.
        """
        m = np.asarray(m, dtype=complex)
        if m.shape[-2:] != (self.dim, self.dim):
            raise ValueError(f"expected {self.dim} x {self.dim} matrices")
        return np.asarray(kernels.apply_kraus(self.ops.conj().transpose(0, 2, 1), m))

    def apply(self, rho: DensityMatrix) -> DensityMatrix:
        if rho.dim != self.dim:
            raise ValueError(f"channel dimension {self.dim} != state dimension {rho.dim}")
        return DensityMatrix.from_psd(self.apply_matrix(rho.mat))

    def apply_local_b(self, state: BipartiteState) -> BipartiteState:
        """(I_A (x) L)(rho_AB); acts blockwise as C_kl -> L(C_kl)."""
        if state.dim_b != self.dim:
            raise ValueError(f"channel dimension {self.dim} != dim_b {state.dim_b}")
        da, db = state.dim_a, state.dim_b
        blocks = state.mat.reshape(da, db, da, db).transpose(0, 2, 1, 3)  # blocks[k, l] = C_kl
        out = kernels.apply_kraus(self.ops, blocks).transpose(0, 2, 1, 3)
        return BipartiteState(da, db, DensityMatrix.from_psd(out.reshape(da * db, da * db)))

    def unit_images(self) -> np.ndarray:
        """The superoperator as a (d, d, d, d) array: [i, j] holds L(E_ij).

        E_ij is the matrix unit |i><j|, and L(E_ij)[a, b] = sum_k
        E_k[a, i] conj(E_k[b, j]): one Gram product of the Kraus columns.
        Built on the first call; every call returns that one read-only,
        C-contiguous array (ops is read-only too, so it cannot go stale).
        """
        if self._images is None:
            d = self.dim
            cols = self.ops.transpose(2, 1, 0).reshape(d * d, -1)  # cols[(i, a), k] = E_k[a, i]
            images = (cols @ cols.conj().T).reshape(d, d, d, d).transpose(0, 2, 1, 3)
            self._images = np.ascontiguousarray(images)
            self._images.setflags(write=False)
        return self._images


def choi_matrix(ch: KrausChannel) -> np.ndarray:
    """Unit-trace Choi matrix J = (1/d) sum_k |E_k>><<E_k| (row-major vec)."""
    vecs = ch.ops.reshape(len(ch.ops), -1)
    return np.einsum("ka,kb->ab", vecs, vecs.conj()) / ch.dim


def kraus_from_choi(
    j: np.ndarray,
    *,
    kind: str | None = None,
    params: dict | None = None,
) -> KrausChannel:
    """Extract a minimal Kraus set from a unit-trace Choi matrix.

    Gauge: eigenvectors scaled by sqrt(d * eigenvalue), eigenvalues below
    KRAUS_DROP_TOL discarded.  Raises if J has an eigenvalue below
    -CHOI_PSD_ATOL or if the resulting map is not trace preserving.
    """
    j = np.asarray(j, dtype=complex)
    n = j.shape[0]
    d = int(round(np.sqrt(n)))
    if j.shape != (n, n) or d * d != n:
        raise ValueError("Choi matrix must be d^2 x d^2")
    spec = linalg.hermitian_eig(j)
    if float(spec.eigenvalues[0]) < -CHOI_PSD_ATOL:
        raise ValueError(
            f"Choi matrix has eigenvalue {float(spec.eigenvalues[0]):.3e} < -{CHOI_PSD_ATOL:.0e}"
        )
    ops = []
    for w, v in zip(spec.eigenvalues, spec.eigenvectors.T):
        if w > KRAUS_DROP_TOL:
            ops.append(np.sqrt(d * w) * v.reshape(d, d))
    if not ops:
        raise ValueError("Choi matrix has no eigenvalue above the drop tolerance")
    return KrausChannel(ops, kind=kind, params=params)


def channel_action_distance(a: KrausChannel, b: KrausChannel) -> float:
    """max_ij ||A(E_ij) - B(E_ij)||_F over the matrix units E_ij."""
    if a.dim != b.dim:
        raise ValueError("channels act on different dimensions")
    diff = a.unit_images() - b.unit_images()
    return float(np.linalg.norm(diff, axis=(2, 3)).max())


# ---------------------------------------------------------------------------
# Named constructors
# ---------------------------------------------------------------------------


def identity_channel(d: int) -> KrausChannel:
    return KrausChannel([np.eye(d, dtype=complex)], kind="identity", params={"dim": d})


def unitary_channel(u: np.ndarray) -> KrausChannel:
    if not is_unitary(u):
        raise ValueError("matrix is not unitary within tolerance")
    return KrausChannel([np.asarray(u, dtype=complex)], kind="unitary")


def isotropic_p_range(d: int, gamma: str) -> tuple[float, float]:
    """Interval of p for which p Gamma + (1-p) I/d is completely positive.

    For Gamma a unitary conjugation the Choi is p |Phi_U><Phi_U| +
    (1-p) I/d^2, giving p in [-1/(d^2-1), 1]; mere positivity of the map
    would allow p down to -1/(d-1), but such maps fail complete positivity.
    For Gamma unitarily equivalent to transpose the swap eigenvalues +-1
    give p in [-1/(d-1), 1/(d+1)].
    """
    if gamma == "unitary":
        return (-1.0 / (d * d - 1), 1.0)
    if gamma == "transpose":
        return (-1.0 / (d - 1), 1.0 / (d + 1))
    raise ValueError("gamma must be 'unitary' or 'transpose'")


def isotropic_choi(d: int, p: float, gamma: str = "unitary", u: np.ndarray | None = None) -> np.ndarray:
    """Choi matrix of p Gamma(rho) + (1-p) I/d for any real p (no PSD check)."""
    if u is None:
        u = np.eye(d, dtype=complex)
    u = np.asarray(u, dtype=complex)
    if not is_unitary(u):
        raise ValueError("u must be unitary")
    if gamma == "unitary":
        vec = u.reshape(-1) / np.sqrt(d)  # (u (x) I)|Phi+> in row-major layout
        jg = np.outer(vec, vec.conj())
    elif gamma == "transpose":
        swap = np.zeros((d * d, d * d), dtype=complex)
        for i in range(d):
            for j in range(d):
                swap[i * d + j, j * d + i] = 1.0
        uk = linalg.tensor(u, np.eye(d))
        jg = uk @ (swap / d) @ uk.conj().T
    else:
        raise ValueError("gamma must be 'unitary' or 'transpose'")
    return p * jg + (1 - p) * np.eye(d * d) / (d * d)


def isotropic(d: int, p: float, gamma: str = "unitary", u: np.ndarray | None = None) -> KrausChannel:
    """The channel p Gamma(rho) + (1-p) I/d with spectrum-preserving Gamma.

    Gamma is a unitary conjugation rho -> u rho u^dag ('unitary') or a
    unitarily rotated transpose rho -> u rho^T u^dag ('transpose').  p must
    lie in isotropic_p_range(d, gamma); the Choi matrix is checked for
    positivity at build time, which rejects anything outside that interval.
    """
    j = isotropic_choi(d, p, gamma, u)
    lo, hi = isotropic_p_range(d, gamma)
    try:
        ch = kraus_from_choi(
            j,
            kind="isotropic",
            params={
                "p": float(p),
                "gamma": gamma,
                "u": None if u is None else np.asarray(u, dtype=complex),
            },
        )
    except ValueError as exc:
        raise ValueError(
            f"p={p} is outside the completely positive range [{lo:.6g}, {hi:.6g}] "
            f"for the {gamma} case (Choi PSD violated)"
        ) from exc
    return ch


def min_choi_eigenvalue(j: np.ndarray) -> float:
    return float(linalg.hermitian_eig(j).eigenvalues[0])


def isotropic_boundary(
    d: int,
    gamma: str,
    side: str,
    u: np.ndarray | None = None,
    tol: float = 1e-12,
) -> float:
    """Locate by bisection the p where the isotropic Choi stops being PSD.

    side='lower' finds the negative-p crossing, side='upper' the positive-p
    one.  The minimum Choi eigenvalue is concave in p and positive at p = 0,
    so each side has exactly one sign change.
    """
    def f(p: float) -> float:
        return min_choi_eigenvalue(isotropic_choi(d, p, gamma, u))

    brackets = {"lower": (-1.5, 0.0), "upper": (1.5, 0.0)}
    if side not in brackets:
        raise ValueError("side must be 'lower' or 'upper'")
    # f < 0 at outside and f >= 0 at inside; each step halves the bracket
    outside, inside = brackets[side]
    if f(outside) >= 0:
        raise ValueError("no crossing in the bracket")
    while abs(outside - inside) > tol:
        mid = 0.5 * (outside + inside)
        if f(mid) < 0:
            outside = mid
        else:
            inside = mid
    return 0.5 * (outside + inside)


def depolarizing(d: int, p: float) -> KrausChannel:
    """p rho + (1-p) I/d (the gamma='unitary', u=I isotropic channel)."""
    ch = isotropic(d, p, gamma="unitary", u=None)
    return KrausChannel(ch.ops, kind="depolarizing", params={"p": float(p), "dim": d})


def completely_decohering(basis: np.ndarray, povm: Sequence[np.ndarray]) -> KrausChannel:
    """rho -> sum_i Tr(F_i rho) |b_i><b_i|: measure a POVM, output basis states.

    Every output is diagonal in the given basis, so all outputs commute.
    Kraus operators are |b_i><f_im| with F_i = sum_m |f_im><f_im|.
    """
    from .states import check_orthonormal

    b = check_orthonormal(basis)
    d = b.shape[0]
    if b.shape[1] != len(povm):
        raise ValueError("need one POVM element per basis vector")
    total = np.zeros((d, d), dtype=complex)
    ops = []
    for i, f in enumerate(povm):
        f = np.asarray(f, dtype=complex)
        if f.shape != (d, d) or not linalg.is_hermitian(f):
            raise ValueError(f"POVM element {i} is not a Hermitian {d} x {d} matrix")
        spec = linalg.hermitian_eig(f)
        if float(spec.eigenvalues[0]) < -1e-10:
            raise ValueError(f"POVM element {i} is not PSD")
        total += f
        for w, v in zip(spec.eigenvalues, spec.eigenvectors.T):
            if w > KRAUS_DROP_TOL:
                ops.append(np.outer(b[:, i], np.sqrt(w) * v.conj()))
    if linalg.frobenius(total - np.eye(d)) > TP_ATOL:
        raise ValueError("POVM elements do not sum to the identity")
    return KrausChannel(ops, kind="completely_decohering")


def unital_mixture(weights, unitaries: Sequence[np.ndarray]) -> KrausChannel:
    """Random-unitary channel sum_i w_i U_i rho U_i^dag (always unital)."""
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size != len(unitaries) or w.size == 0:
        raise ValueError("weights and unitaries must have matching nonzero length")
    if w.min() < -1e-12 or abs(w.sum() - 1.0) > 1e-10:
        raise ValueError("weights must be a probability vector")
    ops = []
    for wi, u in zip(w, unitaries):
        u = np.asarray(u, dtype=complex)
        if not is_unitary(u):
            raise ValueError("mixture member is not unitary within tolerance")
        ops.append(np.sqrt(wi) * u)
    return KrausChannel(ops, kind="unital_mixture", params={"weights": w})


def block_unitary_mixture(e_weights, block_unitaries: Sequence[np.ndarray]) -> KrausChannel:
    """Channel fixing the top basis state while mixing unitaries on the rest.

    Kraus set {P_top} + {e_i V_i P_block} where P_block projects onto the
    first d-1 levels and the V_i are unitaries acting inside that block;
    requires sum_i e_i^2 = 1.  Unital and trace preserving for any choice of
    block unitaries.  With two or more distinct blocks this channel can turn
    classical-on-B states quantum: an orthogonal pure pair whose components
    inside the block are neither orthogonal nor proportional yields
    non-commuting outputs.
    """
    e = np.asarray(e_weights, dtype=float)
    if e.ndim != 1 or e.size != len(block_unitaries) or e.size == 0:
        raise ValueError("e_weights and block_unitaries must have matching nonzero length")
    if e.min() < 0 or abs(np.sum(e**2) - 1.0) > 1e-10:
        raise ValueError("e_weights must be nonnegative with squares summing to 1")
    blocks = [np.asarray(v, dtype=complex) for v in block_unitaries]
    db = blocks[0].shape[0]
    d = db + 1
    for v in blocks:
        if v.shape != (db, db) or not is_unitary(v):
            raise ValueError("block members must be unitaries of one common dimension")
    top = np.zeros((d, d), dtype=complex)
    top[d - 1, d - 1] = 1.0
    ops = [top]
    for ei, v in zip(e, blocks):
        full = np.zeros((d, d), dtype=complex)
        full[:db, :db] = v
        ops.append(ei * full)
    return KrausChannel(ops, kind="block_unitary_mixture", params={"e_weights": e})
