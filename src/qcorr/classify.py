"""Decision procedures for quantum-correlation creation.

A trace-preserving channel acting locally on B can turn some classical-on-B
state into a quantumly correlated one exactly when it fails to preserve
commutativity, i.e. when some orthogonal pure pair (phi, psi) has
non-commuting outputs.  This module provides:

* the preservation decision: an exact linear-algebra certificate that
  bounds the output commutator defect over every orthogonal pair (a bound
  below tol proves preservation), and otherwise a batched screen of pairs
  whose best is polished by Riemannian quasi-Newton ascent (a violation found
  is a constructive proof; a search pass the certificate cannot confirm is
  "no violation found within budget"),
* witness construction: the offending pair embedded in a two-term
  classical-on-B state whose image fails the classicality test,
* structure detectors (unital, completely decohering, isotropic) and the
  dimension-specific classifiers built from them,
* the maximal entangled-fraction optimizer and the fidelity
  non-improvement check for unital channels,
* a census scan that flags channels breaking the expected equivalence
  between commutativity preservation and the known channel families.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import channels as chn
from . import kernels, linalg
# Nothing here calls maximize_unitary_objective.  The import stays because
# perfbench's tracer resolves qcorr.classify.maximize_unitary_objective; it
# goes with optimize.py once the benchmark drops that lookup.
from .optimize import DEFAULT_BUDGET, DEFAULT_STARTS, maximize_unitary_objective  # noqa: F401
from .sampling import (
    haar_unitary,
    random_block_unitary_mixture,
    random_completely_decohering,
    random_cptp,
    random_isotropic,
    random_ket,
    random_unital_mixture,
    substream,
)
from .states import (
    BipartiteState,
    DensityMatrix,
    check_ket,
    is_classical_on_b,
    make_half_classical,
)

CP_TOL = 1e-7
DETECTOR_TOL = 1e-9
WITNESS_CONFIRM_FACTOR = 10.0
ORTHO_ATOL = 1e-9

LABEL_CD = "completely_decohering"
LABEL_UNITAL = "unital_mixing"
LABEL_ISOTROPIC = "isotropic"
LABEL_CREATOR = "creator"
LABEL_UNKNOWN = "unclassified"


# ---------------------------------------------------------------------------
# Commutativity preservation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CPVerdict:
    """Result of the commutativity-preservation decision.

    preserving means no violation above tol exists (certified) or none was
    found within the budget; a False verdict carries the offending
    orthogonal pair.  max_violation is recomputed directly from a pair (not
    read off the search), so the witness survives independent checking.
    upper_bound is preservation_bound(channel) when it was computed (None
    when the first pair already proved a violation).  certified marks a
    verdict that is a proof: every creator, and a pass whose upper_bound is
    at most tol.  evals counts pair evaluations, at most budget: the
    screened pairs plus one per polished frame per ascent step.  A
    certified pass ran no search, so its evals is 0.
    """

    preserving: bool
    max_violation: float
    witness_pair: tuple[np.ndarray, np.ndarray] | None
    tol: float
    evals: int
    budget: int
    upper_bound: float | None
    certified: bool


def pair_from_coords(theta: np.ndarray, u0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The orthogonal pure pair parameterized by generator coordinates.

    Only the reference test of kernels.pair_violation uses it; both stay
    while perfbench looks that kernel up by name.
    """
    d = u0.shape[0]
    w = u0 @ kernels.expi_hermitian(kernels.unpack_hermitian(np.asarray(theta, float), d))
    return np.asarray(w)[:, 0].copy(), np.asarray(w)[:, 1].copy()


def pair_violation_direct(channel: chn.KrausChannel, phi: np.ndarray, psi: np.ndarray) -> float:
    """Normalized ||[L(phi phi^dag), L(psi psi^dag)]||_F via the dense path.

    Independent re-evaluation used to confirm optimizer results.
    """
    a = channel.apply_matrix(np.outer(phi, np.conj(phi)))
    b = channel.apply_matrix(np.outer(psi, np.conj(psi)))
    return linalg.frobenius(linalg.commutator(a, b)) / (linalg.frobenius(a) * linalg.frobenius(b))


@lru_cache(maxsize=None)
def pair_constraint_basis(d: int) -> np.ndarray:
    """Orthonormal real columns spanning the complement of S in M_d (x) M_d.

    Coordinates of X (x) Y are (i, j, k, l) -> X[i, j] Y[k, l].  S is the
    common kernel of mu and mu o swap, where mu(X (x) Y) = XY, i.e.
    mu(E_ij (x) E_kl) = delta_jk E_il and mu(swap(E_ij (x) E_kl)) =
    delta_li E_kj.  Their 2d^2
    rows have rank 2d^2 - 1 (both give Tr XY), so the result is
    d^4 x (2d^2 - 1) and dim S = (d^2 - 1)^2.  It comes from eigh of the
    rows' Gram matrix, whose nonzero eigenvalues are d and 2d.  Cached per d
    and read-only.
    """
    n = d * d
    rows = np.zeros((2, d, d, d, d, d, d))  # (map, a, b, i, j, k, l)
    a, b, j = np.meshgrid(np.arange(d), np.arange(d), np.arange(d), indexing="ij")
    rows[0, a, b, a, j, j, b] = 1.0  # mu: (XY)[a, b] = sum_j X[a, j] Y[j, b]
    rows[1, a, b, j, b, a, j] = 1.0  # mu o swap: (YX)[a, b] = sum_j Y[a, j] X[j, b]
    rows = rows.reshape(2 * n, n * n)
    w, v = np.linalg.eigh(rows @ rows.T)
    keep = w > 0.5
    basis = rows.T @ (v[:, keep] / np.sqrt(w[keep]))
    basis.setflags(write=False)
    return basis


def preservation_bound(channel: chn.KrausChannel) -> float:
    """Upper bound d ||B_L Pi_S||_op on every normalized pair violation.

    B_L(X (x) Y) = L(X)L(Y) - L(Y)L(X) is linear, with the d^4 commutators
    [L(E_ij), L(E_kl)] as its columns.  An orthogonal pure pair has PQ = QP
    = 0, so P (x) Q lies in S (see pair_constraint_basis) with unit norm,
    and for a trace-preserving channel ||L(P)||_F ||L(Q)||_F >= 1/d.  The
    pairs span S, so the bound is zero exactly when L preserves
    commutativity.
    """
    d = channel.dim
    n = d * d
    # images[(i, j)] = L(E_ij); L(E_ij)[a, b] = sum_k E_k[a, i] conj(E_k[b, j])
    cols = channel.ops.transpose(2, 1, 0).reshape(n, -1)
    images = (cols @ cols.conj().T).reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(n, d, d)
    # prod[p, a, q, c] = (L_p L_q)[a, c]
    prod = images.reshape(n * d, d) @ images.transpose(1, 0, 2).reshape(d, n * d)
    prod = prod.reshape(n, d, n, d).transpose(1, 3, 0, 2)
    b_l = (prod - prod.transpose(0, 1, 3, 2)).reshape(n, n * n)
    # Project off the constraint rows directly: forming B B^dag minus its
    # projection cancels to ~1e-8 on preserving channels, too near tol.
    q = pair_constraint_basis(d)
    b_s = b_l - (b_l @ q) @ q.T
    top = np.linalg.eigvalsh(b_s @ b_s.conj().T)[-1]
    return float(d * np.sqrt(max(top, 0.0)))


def is_commutativity_preserving(
    channel: chn.KrausChannel,
    *,
    budget: int = DEFAULT_BUDGET,
    tol: float = CP_TOL,
    rng: np.random.Generator,
    starts: int = DEFAULT_STARTS,
    early_stop: float | None = None,
) -> CPVerdict:
    """Decide whether some orthogonal pure pair has non-commuting channel outputs.

    The computational pair (e0, e1) is evaluated first.  If it does not
    violate, preservation_bound decides: a bound at most tol is a certified
    pass and no search runs.  Otherwise _search_pairs screens starts pairs
    and polishes the best (more of them to a tighter tolerance when the
    best stays below early_stop, default max(100 tol, 1e-3)); the checks
    before it draw nothing from rng.  A violation is a proof; a search pass
    whose bound exceeds tol only says none was found within the budget.
    """
    d = channel.dim
    if d < 2:
        return CPVerdict(True, 0.0, None, tol, 0, budget, 0.0, True)
    if early_stop is None:
        early_stop = max(100 * tol, 1e-3)

    eye = np.eye(d)
    upper = None
    probe = pair_violation_direct(channel, eye[0], eye[1])
    if probe <= tol:
        upper = preservation_bound(channel)
        if upper <= tol:
            return CPVerdict(True, probe, None, tol, 0, budget, upper, True)

    frame, evals = _search_pairs(
        channel.ops, rng=rng, budget=budget, starts=starts, early_stop=early_stop
    )
    phi, psi = frame[:, 0].copy(), frame[:, 1].copy()
    violation = pair_violation_direct(channel, phi, psi)
    preserving = violation <= tol
    return CPVerdict(
        preserving=preserving,
        max_violation=violation,
        witness_pair=None if preserving else (phi, psi),
        tol=tol,
        evals=evals,
        budget=budget,
        upper_bound=upper,
        certified=not preserving,
    )


PAIR_STEP = 0.3
PAIR_STEP_GROW = 1.5
PAIR_POLISH_RTOL = 1e-6
PAIR_BAND_RTOL = 1e-9
PAIR_BAND_FRAMES = 4


def _search_pairs(
    kraus: np.ndarray, *, rng: np.random.Generator, budget: int, starts: int, early_stop: float
) -> tuple[np.ndarray, int]:
    """Best orthonormal pair frame (d, 2) found, and the pair evaluations used.

    Screen: min(starts, budget) frames in one batched call, frame 0 being
    (e0, e1) and frame i the first two columns of the i-th haar_unitary
    draw.  The screened winner is polished to PAIR_POLISH_RTOL.  Only if it
    is still below early_stop do the best PAIR_BAND_FRAMES screened frames
    (the polished winner among them) ascend together to PAIR_BAND_RTOL.
    budget caps the evaluations: one per screened frame plus one per
    polished frame per step.
    """
    d = kraus.shape[1]
    n = max(1, min(starts, budget))
    frames = np.empty((n, d, 2), dtype=complex)
    frames[0] = np.eye(d)[:, :2]
    for i in range(1, n):
        frames[i] = haar_unitary(d, rng)[:, :2]
    f, grad = kernels.pair_violation_grad(frames, kraus)
    evals = n
    order = np.argsort(-f, kind="stable")
    evals += _ascend_pairs(
        frames, f, grad, kraus, order[:1], budget=budget - evals, rtol=PAIR_POLISH_RTOL
    )
    if f.max() < early_stop:
        evals += _ascend_pairs(
            frames, f, grad, kraus, order[:PAIR_BAND_FRAMES], budget=budget - evals,
            rtol=PAIR_BAND_RTOL,
        )
    return frames[int(np.argmax(f))], evals


def _ascend_pairs(
    frames: np.ndarray,
    f: np.ndarray,
    grad: np.ndarray,
    kraus: np.ndarray,
    active: np.ndarray,
    *,
    budget: int,
    rtol: float,
) -> int:
    """Riemannian quasi-Newton ascent of the frames listed in active; returns evaluations.

    frames, f and grad (from kernels.pair_violation_grad) are updated in
    place.  A frame climbs log f^2, which is scale-free, so a violation
    near tol moves as fast as a large one.  Its direction is an inverse
    Hessian estimate applied to the tangent part of the gradient, and it
    retracts by QR with R's diagonal positive.  The estimate starts at
    PAIR_STEP times the identity, so the first step is a plain gradient
    step, and takes a BFGS update from every step taken (tangent vectors
    move to the new frame by projection).  Plain gradient steps crawl along
    the nearly flat ridges of eps-perturbed symmetric channels for
    thousands of steps; the updates learn the ridge's curvature.  The step
    length starts at 1, grows by PAIR_STEP_GROW when taken and halves when
    refused; a step that would lower f is never taken.  A frame is done
    once a taken step gains at most rtol f^2, or once a refused step was
    too short to gain more than that to first order.
    """
    k, d, _ = frames.shape
    hinv = np.broadcast_to(PAIR_STEP * np.eye(4 * d), (k, 4 * d, 4 * d)).copy()
    step = np.ones(k)
    xi = np.zeros_like(frames)
    xi[active] = _log_gradient(frames[active], grad[active], f[active] ** 2)
    evals = 0
    while active.size and evals < budget:
        active = active[: budget - evals]
        w, f2, t, g = frames[active], f[active] ** 2, step[active], _real(xi[active])
        p = _tangent(w, _complex(hinv[active] @ g[..., None]))
        slope = (_real(p) * g).sum(axis=-1)
        # QR retraction with R's diagonal positive: Gram-Schmidt on two columns
        v = w + t[:, None, None] * p
        q0 = v[..., 0] / np.linalg.norm(v[..., 0], axis=-1, keepdims=True)
        v1 = v[..., 1] - q0 * (q0.conj() * v[..., 1]).sum(axis=-1, keepdims=True)
        q = np.stack([q0, v1 / np.linalg.norm(v1, axis=-1, keepdims=True)], axis=-1)
        f_new, g_new = kernels.pair_violation_grad(q, kraus)
        evals += active.size
        gain = f_new**2 - f2
        take = gain >= 0
        moved, q = active[take], q[take]
        xi_new = _log_gradient(q, g_new[take], f_new[take] ** 2)
        s = _real(t[take, None, None] * p[take])
        y = _real(_tangent(q, xi[moved]) - xi_new)
        hinv[moved] = _bfgs_update(hinv[moved], s, y)
        frames[moved], f[moved], grad[moved], xi[moved] = q, f_new[take], g_new[take], xi_new
        step[active] = np.where(take, t * PAIR_STEP_GROW, t / 2)
        done = np.where(take, gain, t * slope * f2) <= rtol * f2
        active = active[~done]
    return evals


def _tangent(w: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Projection of z onto the tangent spaces of the orthonormal frames w."""
    wz = w.conj().swapaxes(-1, -2) @ z
    return z - w @ ((wz + wz.conj().swapaxes(-1, -2)) / 2)


def _log_gradient(w: np.ndarray, grad: np.ndarray, f2: np.ndarray) -> np.ndarray:
    """Tangent part of the gradient of log f^2, from the gradient of f^2."""
    return _tangent(w, grad) / np.where(f2 > 0, f2, 1.0)[:, None, None]


def _real(z: np.ndarray) -> np.ndarray:
    """(k, d, 2) complex frames as (k, 4d) real vectors: Re tr(x^dag y) = x . y."""
    return np.ascontiguousarray(z).view(float).reshape(z.shape[0], 4 * z.shape[1])


def _complex(v: np.ndarray) -> np.ndarray:
    """Inverse of _real for a (k, 4d) or (k, 4d, 1) real array."""
    return np.ascontiguousarray(v).reshape(v.shape[0], v.shape[1] // 4, 4).view(complex)


def _bfgs_update(hinv: np.ndarray, s: np.ndarray, y: np.ndarray) -> np.ndarray:
    """BFGS update of a stack of inverse Hessian estimates for minimizing -log f^2.

    s is the step and y the fall of the gradient of log f^2 along it.  An
    estimate whose step saw no clear downward curvature (s . y at most
    1e-12 |s| |y|) is left as it is, which keeps every estimate positive
    definite.
    """
    sy = (s * y).sum(axis=-1)
    curved = sy > 1e-12 * np.sqrt((s * s).sum(axis=-1) * (y * y).sum(axis=-1))
    rho = np.where(curved, 1.0 / np.where(curved, sy, 1.0), 0.0)
    hy = (hinv @ y[..., None])[..., 0]
    ss = s[:, :, None] * s[:, None, :]
    cross = s[:, :, None] * hy[:, None, :]
    return (
        hinv
        - rho[:, None, None] * (cross + cross.swapaxes(-1, -2))
        + (rho * (1.0 + rho * (y * hy).sum(axis=-1)))[:, None, None] * ss
    )


# ---------------------------------------------------------------------------
# Creation witnesses
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CreationWitness:
    """A classical-on-B input whose image under I (x) L is not classical on B.

    The input is (|0><0|_A (x) phi + |1><1|_A (x) psi)/2 built from the
    offending orthogonal pair; output_quantumness equals the pair's
    normalized output commutator defect.  confirmed marks witnesses that
    clear ten times the decision tolerance.
    """

    pair: tuple[np.ndarray, np.ndarray]
    input_state: BipartiteState
    output_state: BipartiteState
    input_quantumness: float
    output_quantumness: float
    confirmed: bool


def witness_from_pair(
    channel: chn.KrausChannel,
    phi: np.ndarray,
    psi: np.ndarray,
    *,
    tol: float = CP_TOL,
) -> CreationWitness:
    """Build and check the two-term witness state for a given orthogonal pair."""
    phi = check_ket(phi)
    psi = check_ket(psi)
    if abs(np.vdot(phi, psi)) > ORTHO_ATOL:
        raise ValueError("witness pair must be orthogonal")
    e0 = np.zeros(2)
    e0[0] = 1
    e1 = np.zeros(2)
    e1[1] = 1
    state = make_half_classical(
        [0.5, 0.5],
        [DensityMatrix.pure(e0), DensityMatrix.pure(e1)],
        np.column_stack([phi, psi]),
    )
    out = channel.apply_local_b(state)
    in_rep = is_classical_on_b(state)
    out_rep = is_classical_on_b(out)
    return CreationWitness(
        pair=(phi, psi),
        input_state=state,
        output_state=out,
        input_quantumness=in_rep.quantumness,
        output_quantumness=out_rep.quantumness,
        confirmed=out_rep.quantumness > WITNESS_CONFIRM_FACTOR * tol,
    )


def creation_witness(
    channel: chn.KrausChannel,
    *,
    budget: int = DEFAULT_BUDGET,
    tol: float = CP_TOL,
    rng: np.random.Generator,
    starts: int = DEFAULT_STARTS,
) -> CreationWitness | None:
    """Search for a creation witness; absent when the channel looks preserving."""
    verdict = is_commutativity_preserving(
        channel, budget=budget, tol=tol, rng=rng, starts=starts
    )
    if verdict.preserving:
        return None
    assert verdict.witness_pair is not None
    return witness_from_pair(channel, *verdict.witness_pair, tol=tol)


def block_overlap(phi: np.ndarray, psi: np.ndarray) -> complex:
    """<phi_r|psi_r> of the components inside the first d-1 levels."""
    phi = np.asarray(phi, dtype=complex).reshape(-1)
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    if phi.shape != psi.shape:
        raise ValueError("vectors must have equal dimension")
    return complex(np.vdot(phi[:-1], psi[:-1]))


def block_overlap_enables_creation(
    phi: np.ndarray, psi: np.ndarray, tol: float = ORTHO_ATOL
) -> bool:
    """Can a generic block-unitary mixture create correlation from this pair?

    For the channel family fixing the top level and mixing unitaries on the
    rest, outputs on an orthogonal pair fail to commute for generic block
    choices iff the reduced vectors are neither orthogonal nor proportional:
    g = <phi_r|psi_r> must satisfy g != 0 and |g| != ||phi_r|| ||psi_r||
    (Cauchy-Schwarz equality is exactly proportionality; reduced vectors of
    an orthogonal unit pair can never both saturate norm one, so the
    proportional case is the honest reading of "overlap one").
    """
    phi = check_ket(phi)
    psi = check_ket(psi)
    if abs(np.vdot(phi, psi)) > ORTHO_ATOL:
        raise ValueError("pair must be orthogonal")
    g = abs(block_overlap(phi, psi))
    prod = float(np.linalg.norm(phi[:-1]) * np.linalg.norm(psi[:-1]))
    return g > tol and abs(g - prod) > tol


# ---------------------------------------------------------------------------
# Structure detectors
# ---------------------------------------------------------------------------


def is_unital(channel: chn.KrausChannel, tol: float = DETECTOR_TOL) -> bool:
    """||L(I) - I||_F <= tol."""
    return linalg.frobenius(channel.apply_to_identity() - np.eye(channel.dim)) <= tol


def is_mixing_sampled(
    channel: chn.KrausChannel,
    *,
    n_samples: int = 200,
    tol: float = DETECTOR_TOL,
    rng: np.random.Generator,
) -> bool:
    """Entropy never decreases on sampled inputs (cross-check for unitality).

    The maximally mixed state is probed first: it maximizes entropy
    uniquely, so any non-unital channel strictly lowers its entropy, which
    random (mostly rather pure) samples can easily miss.
    """
    from .sampling import random_density

    probes = [DensityMatrix.maximally_mixed(channel.dim)]
    probes += [random_density(channel.dim, rng) for _ in range(n_samples)]
    for rho in probes:
        if channel.apply(rho).entropy() < rho.entropy() - tol:
            return False
    return True


def hermitian_basis(d: int) -> list[np.ndarray]:
    """d^2 Hermitian matrices spanning the operator space."""
    out = []
    for i in range(d):
        e = np.zeros((d, d), dtype=complex)
        e[i, i] = 1.0
        out.append(e)
    for i in range(d):
        for j in range(i + 1, d):
            s = np.zeros((d, d), dtype=complex)
            s[i, j] = s[j, i] = 1 / np.sqrt(2)
            out.append(s)
            a = np.zeros((d, d), dtype=complex)
            a[i, j] = -1j / np.sqrt(2)
            a[j, i] = 1j / np.sqrt(2)
            out.append(a)
    return out


def find_decohering_basis(
    channel: chn.KrausChannel, tol: float = DETECTOR_TOL
) -> np.ndarray | None:
    """Basis in which every channel output is diagonal, if one exists.

    Applies the channel to a Hermitian operator basis; when all images
    pairwise commute (within normalized tol) their common eigenbasis
    diagonalizes L(rho) for every rho by linearity.  Returns None otherwise.
    """
    outs = [channel.apply_matrix(h) for h in hermitian_basis(channel.dim)]
    members = [o for o in outs if linalg.frobenius(o) > 1e-12]
    worst = 0.0
    for i, a in enumerate(members):
        for b in members[i + 1 :]:
            worst = max(worst, linalg.commutation_defect(a, b))
            if worst > tol:
                return None
    if not members:
        return np.eye(channel.dim, dtype=complex)
    return linalg.simultaneous_diagonalization(members, tol=max(tol, 10 * worst))


@dataclass(frozen=True)
class IsotropicFit:
    """Fitted decomposition L = p Gamma + (1-p) I/d.

    gamma is 'unitary' or 'transpose'; both it and u are None for the
    degenerate p = 0 fit, where Gamma is unidentifiable.
    """

    p: float
    gamma: str | None
    u: np.ndarray | None


def _polar_unitary(k: np.ndarray) -> np.ndarray:
    u, _, vh = np.linalg.svd(k)
    w = u @ vh
    # gauge: make the largest-magnitude entry real positive
    idx = np.unravel_index(np.argmax(np.abs(w)), w.shape)
    ph = w[idx] / abs(w[idx])
    return w / ph


def fit_isotropic(
    channel: chn.KrausChannel,
    *,
    tol: float = CP_TOL,
    rng: np.random.Generator | None = None,
) -> IsotropicFit | None:
    """Detect L = p Gamma + (1-p) I/d with spectrum-preserving Gamma.

    Requires unitality; fits p from the output spectrum of one random pure
    state (which must look like {p + (1-p)/d} + {(1-p)/d  x (d-1)}),
    reconstructs Gamma on the matrix units, demands a rank-one Choi for
    Gamma (unitary case) or for Gamma composed with transpose, and accepts
    only if the refitted channel reproduces the action on all matrix units
    within tol.
    """
    if not is_unital(channel, max(tol, DETECTOR_TOL)):
        return None
    d = channel.dim
    if rng is None:
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(0xF17)))

    units = []
    outs = []
    for i in range(d):
        row_u, row_o = [], []
        for j in range(d):
            e = np.zeros((d, d), dtype=complex)
            e[i, j] = 1.0
            row_u.append(e)
            row_o.append(channel.apply_matrix(e))
        units.append(row_u)
        outs.append(row_o)

    eye_over_d = np.eye(d) / d
    depol_dist = max(
        linalg.frobenius(outs[i][j] - (eye_over_d if i == j else 0))
        for i in range(d)
        for j in range(d)
    )
    if depol_dist <= tol:
        return IsotropicFit(p=0.0, gamma=None, u=None)

    probe = random_ket(d, rng)
    w = linalg.hermitian_eig(channel.apply_matrix(np.outer(probe, probe.conj()))).eigenvalues
    candidates = []
    if d >= 2:
        candidates.append(1.0 - d * float(np.mean(w[:-1])))  # odd eigenvalue on top
        candidates.append(1.0 - d * float(np.mean(w[1:])))  # odd eigenvalue at bottom
    gate = max(1e-4, 100 * tol)

    for p in candidates:
        if abs(p) <= max(10 * tol, 1e-6):
            continue
        gamma_out = np.empty((d, d, d, d), dtype=complex)
        for i in range(d):
            for j in range(d):
                corr = (1 - p) / d * np.eye(d) if i == j else 0.0
                gamma_out[i, j] = (outs[i][j] - corr) / p
        for gamma in ("unitary", "transpose"):
            if gamma == "unitary":
                j_mat = gamma_out.transpose(2, 0, 3, 1).reshape(d * d, d * d) / d
            else:
                # Choi of Gamma o T, rank one iff Gamma is a rotated transpose
                j_mat = gamma_out.transpose(2, 1, 3, 0).reshape(d * d, d * d) / d
            spec = linalg.hermitian_eig(linalg.hermitian_part(j_mat))
            if spec.eigenvalues[-1] < 1 - gate or abs(spec.eigenvalues[:-1]).max() > gate:
                continue
            k = spec.eigenvectors[:, -1].reshape(d, d) * np.sqrt(d)
            if linalg.frobenius(k.conj().T @ k - np.eye(d)) > gate * d:
                continue
            u = _polar_unitary(k)
            lo, hi = chn.isotropic_p_range(d, gamma)
            if not lo - 1e-12 <= p <= hi + 1e-12:
                continue
            fitted = chn.isotropic(d, float(np.clip(p, lo, hi)), gamma=gamma, u=u)
            dist = max(
                linalg.frobenius(fitted.apply_matrix(units[i][j]) - outs[i][j])
                for i in range(d)
                for j in range(d)
            )
            if dist <= tol:
                return IsotropicFit(p=float(p), gamma=gamma, u=u)
    return None


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClassificationVerdict:
    """Channel class label plus the evidence that justifies it.

    evidence: decohering basis for completely_decohering, IsotropicFit for
    isotropic, CreationWitness for creator.  cp carries the (optional)
    commutativity-preservation cross-check; consistent records whether the
    label and the CP verdict agree with the dimension's theorem (None when
    no completeness claim applies).
    """

    label: str
    basis: np.ndarray | None = None
    iso_fit: IsotropicFit | None = None
    witness: CreationWitness | None = None
    cp: CPVerdict | None = None
    consistent: bool | None = None


def classify_qubit(
    channel: chn.KrausChannel,
    *,
    budget: int = DEFAULT_BUDGET,
    tol: float = CP_TOL,
    detector_tol: float = DETECTOR_TOL,
    rng: np.random.Generator,
    starts: int = DEFAULT_STARTS,
    check_cp: bool = True,
) -> ClassificationVerdict:
    """Qubit trichotomy: unital (mixing), completely decohering, or creator.

    For qubits, commutativity preservation is equivalent to being unital or
    completely decohering, so any other channel should yield a witness; the
    CP cross-check records whether the search agreed.
    """
    if channel.dim != 2:
        raise ValueError("classify_qubit expects a qubit channel")
    return _classify_common(
        channel,
        detectors=("unital", "cd"),
        budget=budget,
        tol=tol,
        detector_tol=detector_tol,
        rng=rng,
        starts=starts,
        check_cp=check_cp,
        has_theorem=True,
    )


def classify_qutrit(
    channel: chn.KrausChannel,
    *,
    budget: int = DEFAULT_BUDGET,
    tol: float = CP_TOL,
    detector_tol: float = DETECTOR_TOL,
    rng: np.random.Generator,
    starts: int = DEFAULT_STARTS,
    check_cp: bool = True,
) -> ClassificationVerdict:
    """Qutrit trichotomy: completely decohering, isotropic, or creator.

    Unitality alone does not protect a qutrit channel: generic mixtures of
    two unitaries already create correlation, and only the isotropic subset
    of unital channels is commutativity preserving.
    """
    if channel.dim != 3:
        raise ValueError("classify_qutrit expects a qutrit channel")
    return _classify_common(
        channel,
        detectors=("cd", "iso"),
        budget=budget,
        tol=tol,
        detector_tol=detector_tol,
        rng=rng,
        starts=starts,
        check_cp=check_cp,
        has_theorem=True,
    )


def classify_channel(
    channel: chn.KrausChannel,
    *,
    budget: int = DEFAULT_BUDGET,
    tol: float = CP_TOL,
    detector_tol: float = DETECTOR_TOL,
    rng: np.random.Generator,
    starts: int = DEFAULT_STARTS,
    check_cp: bool = True,
) -> ClassificationVerdict:
    """Dimension-dispatching classifier.

    d = 2 and d = 3 use the proven trichotomies.  For d >= 4 the detector
    trio runs without a completeness claim: completely decohering and
    isotropic channels are labeled as such, a found violation labels the
    channel creator, and anything else is reported unclassified.
    """
    if channel.dim == 2:
        return classify_qubit(
            channel, budget=budget, tol=tol, detector_tol=detector_tol,
            rng=rng, starts=starts, check_cp=check_cp,
        )
    if channel.dim == 3:
        return classify_qutrit(
            channel, budget=budget, tol=tol, detector_tol=detector_tol,
            rng=rng, starts=starts, check_cp=check_cp,
        )
    return _classify_common(
        channel,
        detectors=("cd", "iso", "unital"),
        budget=budget,
        tol=tol,
        detector_tol=detector_tol,
        rng=rng,
        starts=starts,
        check_cp=check_cp,
        has_theorem=False,
    )


def _classify_common(
    channel, *, detectors, budget, tol, detector_tol, rng, starts, check_cp, has_theorem
) -> ClassificationVerdict:
    label = None
    basis = None
    iso = None
    for kind in detectors:
        if kind == "unital" and is_unital(channel, detector_tol):
            label = LABEL_UNITAL
            break
        if kind == "cd":
            basis = find_decohering_basis(channel, detector_tol)
            if basis is not None:
                label = LABEL_CD
                break
        if kind == "iso":
            iso = fit_isotropic(channel, tol=tol, rng=rng)
            if iso is not None:
                label = LABEL_ISOTROPIC
                break

    cp = None
    if label is not None:
        if check_cp:
            cp = is_commutativity_preserving(
                channel, budget=budget, tol=tol, rng=rng, starts=starts
            )
        consistent = (cp.preserving if cp is not None else None) if has_theorem else None
        return ClassificationVerdict(
            label=label,
            basis=basis if label == LABEL_CD else None,
            iso_fit=iso if label == LABEL_ISOTROPIC else None,
            cp=cp,
            consistent=consistent,
        )

    # No structure detector fired: hunt for a witness.
    cp = is_commutativity_preserving(channel, budget=budget, tol=tol, rng=rng, starts=starts)
    if not cp.preserving:
        witness = witness_from_pair(channel, *cp.witness_pair, tol=tol)
        return ClassificationVerdict(
            label=LABEL_CREATOR,
            witness=witness,
            cp=cp,
            consistent=True if has_theorem else None,
        )
    # Theorems say this cannot happen at d = 2, 3; report it rather than guess.
    return ClassificationVerdict(
        label=LABEL_UNKNOWN,
        cp=cp,
        consistent=False if has_theorem else None,
    )


# ---------------------------------------------------------------------------
# Maximal entangled fraction and the fidelity bound
# ---------------------------------------------------------------------------


MSF_STEP_TOL = 1e-15


@dataclass(frozen=True)
class MsfResult:
    """Maximal overlap with maximally entangled states |Phi_U> = (I (x) U)|Phi+>.

    fidelity is the average-teleportation value (d F + 1)/(d + 1).  F is a
    lower bound on the true maximum: the overlap at the best unitary found,
    never below the overlap at U = I.  converged says every start met the
    stopping rule (a step gaining at most MSF_STEP_TOL) within the budget;
    evals counts objective-and-gradient evaluations summed over starts and
    iterations counts the ascent steps of the longest-running start.
    """

    f_value: float
    fidelity: float
    unitary: np.ndarray
    evals: int
    converged: bool
    iterations: int


def msf(
    state: BipartiteState,
    *,
    budget: int = DEFAULT_BUDGET,
    starts: int = DEFAULT_STARTS,
    rng: np.random.Generator,
) -> MsfResult:
    """Maximize <Phi_U|rho|Phi_U> over unitaries on B by multistart see-saw ascent.

    f(U) = vec(U)^dag M vec(U) is a PSD quadratic form in the entries of U,
    so replacing U by the polar factor of the gradient G = M U never lowers
    f: the polar factor maximizes the linear minorant 2 Re<V, G> - f(U).
    Start 0 is U = I; the others are Haar draws, and all starts step
    together as one batch.  A start leaves the batch once a step gains at
    most MSF_STEP_TOL (a step that would lower f is not taken).  budget caps
    the evaluations summed over starts, one per start per step.
    """
    if state.dim_a != state.dim_b:
        raise ValueError("maximal entangled fraction needs equal local dimensions")
    d = state.dim_a
    n = d * d
    # f(U) = sum conj(U[a, i]) rho[(i, a), (j, b)] U[b, j] / d
    m_t = state.mat.reshape(d, d, d, d).transpose(1, 0, 3, 2).reshape(n, n).T / d

    def grad_and_value(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        g = (u.reshape(-1, n) @ m_t).reshape(u.shape)
        return g, np.einsum("kai,kai->k", u.conj(), g).real

    n_starts = max(1, min(starts, budget))
    u = np.empty((n_starts, d, d), dtype=complex)
    u[0] = np.eye(d)
    for s in range(1, n_starts):
        u[s] = haar_unitary(d, rng)
    g, f = grad_and_value(u)
    evals = n_starts
    iterations = 0
    converged = np.zeros(n_starts, dtype=bool)
    active = np.arange(n_starts)
    while active.size and evals < budget:
        active = active[: budget - evals]
        w, _, vh = np.linalg.svd(g[active])
        u_new = w @ vh
        g_new, f_new = grad_and_value(u_new)
        evals += active.size
        iterations += 1
        gain = f_new - f[active]
        take = gain >= 0
        u[active[take]] = u_new[take]
        g[active[take]] = g_new[take]
        f[active[take]] = f_new[take]
        done = gain <= MSF_STEP_TOL
        converged[active[done]] = True
        active = active[~done]

    best = u[int(np.argmax(f))]
    f_value = entangled_overlap_direct(state, best)
    return MsfResult(
        f_value=f_value,
        fidelity=(d * f_value + 1) / (d + 1),
        unitary=best,
        evals=evals,
        converged=bool(converged.all()),
        iterations=iterations,
    )


def entangled_overlap_direct(state: BipartiteState, u: np.ndarray) -> float:
    """<Phi_U|rho|Phi_U> evaluated directly for a given unitary."""
    d = state.dim_a
    w = (np.asarray(u, dtype=complex).T / np.sqrt(d)).reshape(-1)
    return float(np.real(w.conj() @ state.mat @ w))


@dataclass(frozen=True)
class MsfBoundCheck:
    """Entangled fraction before/after a local unital channel on B."""

    before: MsfResult
    after: MsfResult
    slack: float
    holds: bool


def verify_msf_bound(
    state: BipartiteState,
    channel: chn.KrausChannel,
    *,
    budget: int = DEFAULT_BUDGET,
    starts: int = DEFAULT_STARTS,
    rng: np.random.Generator,
    slack: float = 1e-6,
    unital_tol: float = DETECTOR_TOL,
) -> MsfBoundCheck:
    """Check that a unital channel on B does not raise the entangled fraction.

    Rejects non-unital channels outright: the non-improvement claim is made
    only for entropy-non-decreasing (equivalently unital) channels.  slack
    absorbs the optimizer gap between the two searches.
    """
    if channel.dim != state.dim_b:
        raise ValueError("channel dimension must match dim_b")
    if not is_unital(channel, unital_tol):
        raise ValueError("bound check requires a unital channel")
    before = msf(state, budget=budget, starts=starts, rng=rng)
    after = msf(channel.apply_local_b(state), budget=budget, starts=starts, rng=rng)
    return MsfBoundCheck(
        before=before,
        after=after,
        slack=slack,
        holds=after.f_value <= before.f_value + slack,
    )


# ---------------------------------------------------------------------------
# Census scan
# ---------------------------------------------------------------------------

SCAN_FAMILIES = (
    "completely_decohering",
    "isotropic_unitary",
    "isotropic_transpose",
    "unital_mixture",
    "block_unitary_mixture",
    "random_cptp",
)


def _sample_family(family: str, dim: int, rng: np.random.Generator) -> chn.KrausChannel:
    if family == "completely_decohering":
        return random_completely_decohering(dim, rng)
    if family == "isotropic_unitary":
        return random_isotropic(dim, rng, gamma="unitary")
    if family == "isotropic_transpose":
        return random_isotropic(dim, rng, gamma="transpose")
    if family == "unital_mixture":
        return random_unital_mixture(dim, rng, n_unitaries=int(rng.integers(2, 4)))
    if family == "block_unitary_mixture":
        return random_block_unitary_mixture(dim, rng)
    if family == "random_cptp":
        return random_cptp(dim, rng)
    raise ValueError(f"unknown channel family {family!r}")


@dataclass(frozen=True)
class ScanRow:
    index: int
    family: str
    label: str
    cp_preserving: bool
    cp_certified: bool
    max_violation: float
    is_cd: bool
    is_iso: bool
    is_unital: bool
    anomaly: str | None


@dataclass(frozen=True)
class ScanReport:
    """Census of sampled channels against the expected family structure.

    At d = 2 a channel should preserve commutativity iff it is unital or
    completely decohering; at d >= 3 iff it is completely decohering or
    isotropic (a theorem at d = 3, the conjectured extension at d >= 4).
    Any channel breaking the equivalence is listed in anomalies.
    family_counts holds the label counts and cp_pass per family; each row
    says whether its verdict is certified (the JSON report also counts
    cp_certified per family).
    """

    dim: int
    seed: int
    rows: tuple[ScanRow, ...]
    family_counts: dict
    anomalies: tuple[ScanRow, ...]


def _scan_one(
    dim: int,
    seed: int,
    index: int,
    family: str,
    budget: int,
    tol: float,
    detector_tol: float,
    starts: int,
) -> ScanRow:
    sample_rng = substream(seed, 2 * index)
    search_rng = substream(seed, 2 * index + 1)
    channel = _sample_family(family, dim, sample_rng)

    basis = find_decohering_basis(channel, detector_tol)
    iso = fit_isotropic(channel, tol=tol, rng=search_rng)
    unital = is_unital(channel, detector_tol)
    cp = is_commutativity_preserving(
        channel, budget=budget, tol=tol, rng=search_rng, starts=starts
    )

    if basis is not None:
        label = LABEL_CD
    elif iso is not None:
        label = LABEL_ISOTROPIC
    elif not cp.preserving:
        label = LABEL_CREATOR
    elif unital:
        label = LABEL_UNITAL
    else:
        label = LABEL_UNKNOWN

    in_families = (basis is not None) or (iso is not None) or (dim == 2 and unital)
    anomaly = None
    if cp.preserving and not in_families:
        anomaly = "preserving_outside_known_families"
    elif in_families and not cp.preserving:
        anomaly = "violation_inside_known_families"

    return ScanRow(
        index=index,
        family=family,
        label=label,
        cp_preserving=cp.preserving,
        cp_certified=cp.certified,
        max_violation=cp.max_violation,
        is_cd=basis is not None,
        is_iso=iso is not None,
        is_unital=unital,
        anomaly=anomaly,
    )


def scan_channels(
    dim: int,
    n_channels: int,
    *,
    seed: int,
    budget: int = DEFAULT_BUDGET,
    tol: float = CP_TOL,
    detector_tol: float = DETECTOR_TOL,
    starts: int = DEFAULT_STARTS,
    families: tuple[str, ...] | None = None,
    workers: int = 1,
) -> ScanReport:
    """Sample channels from every constructor family and flag anomalies.

    Channel i draws from substreams (2i, 2i+1) of the master seed, so the
    report is reproducible and independent of the worker count.
    """
    if dim < 2:
        raise ValueError("scan needs dimension >= 2")
    if families is None:
        families = tuple(f for f in SCAN_FAMILIES if f != "block_unitary_mixture" or dim >= 3)
    tasks = [
        (dim, seed, i, families[i % len(families)], budget, tol, detector_tol, starts)
        for i in range(n_channels)
    ]
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_scan_one_star, tasks, chunksize=4))
    else:
        rows = [_scan_one(*t) for t in tasks]

    counts: dict = {}
    for row in rows:
        fam = counts.setdefault(
            row.family,
            Counter(cd=0, isotropic=0, unital=0, creator=0, unclassified=0, cp_pass=0),
        )
        key = {
            LABEL_CD: "cd",
            LABEL_ISOTROPIC: "isotropic",
            LABEL_UNITAL: "unital",
            LABEL_CREATOR: "creator",
            LABEL_UNKNOWN: "unclassified",
        }[row.label]
        fam[key] += 1
        if row.cp_preserving:
            fam["cp_pass"] += 1
    return ScanReport(
        dim=dim,
        seed=seed,
        rows=tuple(rows),
        family_counts={k: dict(v) for k, v in counts.items()},
        anomalies=tuple(r for r in rows if r.anomaly),
    )


def _scan_one_star(args) -> ScanRow:
    return _scan_one(*args)
