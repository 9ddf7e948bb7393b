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
from collections.abc import Sequence
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
    haar_isometries,
    haar_unitaries,
    random_block_unitary_mixture,
    random_completely_decohering,
    random_cptp,
    random_density,
    random_isotropic,
    random_ket,  # noqa: F401  unused; perfbench's tracer resolves qcorr.classify.random_ket
    random_unital_mixture,
    rng_from_seed,
    substream,
)
from .states import (
    ORTHONORMAL_ATOL,
    BipartiteState,
    DensityMatrix,
    check_orthonormal,
    check_tolerance,
    is_classical_on_b,
    make_half_classical,
)

CP_TOL = 1e-7
WITNESS_CONFIRM_FACTOR = 10.0

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
    certified pass ran no search, so its evals is 0.  band says which phase
    the search ran: True when the screened maximum was below max(100 tol,
    1e-3) and the best PAIR_BAND_FRAMES screened pairs climbed together,
    False when the winner alone was polished or no search ran.  The search
    screens a fixed sequence of pairs, so on one NumPy/BLAS build every
    field is a function of the channel, budget and tol alone.  Across builds
    a band verdict's evals can move: many ascent steps along a flat ridge
    amplify last-bit rounding.
    """

    preserving: bool
    max_violation: float
    witness_pair: tuple[np.ndarray, np.ndarray] | None
    tol: float
    evals: int
    budget: int
    upper_bound: float | None
    certified: bool
    band: bool


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
    images = channel.unit_images().reshape(n, d, d)  # images[i * d + j] = L(E_ij)
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
) -> CPVerdict:
    """Decide whether some orthogonal pure pair has non-commuting channel outputs.

    The computational pair (e0, e1) is evaluated first.  If it does not
    violate, preservation_bound decides: a bound at most tol is a certified
    pass and no search runs.  Otherwise _search_pairs screens the first
    DEFAULT_STARTS of the fixed screen_frames and polishes the best; when
    the screened best is below max(100 tol, 1e-3) it runs the band instead,
    the best PAIR_BAND_FRAMES together to a tighter tolerance (the verdict's
    band).  Nothing is random: the verdict, its witness pair and evals
    depend only on the channel, budget and tol (evals on one NumPy/BLAS
    build; see CPVerdict).  A violation is a proof; a
    search pass whose bound exceeds tol only says none was found within the
    budget.
    tol must be finite and positive (check_tolerance): an infinite one
    would certify every channel.  budget must be at least 1, because a
    search evaluates at least one pair.
    """
    check_tolerance(tol)
    if budget < 1:
        raise ValueError(f"budget must be at least 1, got {budget!r}")
    d = channel.dim
    if d < 2:
        return CPVerdict(True, 0.0, None, tol, 0, budget, 0.0, True, False)

    eye = np.eye(d)
    upper = None
    probe = pair_violation_direct(channel, eye[0], eye[1])
    if probe <= tol:
        upper = preservation_bound(channel)
        if upper <= tol:
            return CPVerdict(True, probe, None, tol, 0, budget, upper, True, False)

    frame, evals, band = _search_pairs(channel.ops, budget=budget, tol=tol)
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
        band=band,
    )


PAIR_STEP = 0.3
PAIR_STEP_GROW = 1.5
PAIR_STEP_LINEAR = 0.75
PAIR_POLISH_RTOL = 1e-6
PAIR_BAND_RTOL = 1e-9
PAIR_BAND_FRAMES = 4
SCREEN_SEED = 0x5C4EE7


_SCREENS: dict[int, np.ndarray] = {}


def screen_frames(d: int, n: int) -> np.ndarray:
    """The first n pair frames of the fixed screen at dimension d, as (n, d, 2).

    Frame 0 is (e0, e1) and frame i is the i-th d x 2 Haar isometry drawn
    from the Philox stream of SCREEN_SEED (the first two columns of the
    i-th haar_unitary draw, with only those two QR-factored).  The draws come
    in order, so a shorter screen is a prefix of a longer one: one read-only
    sequence per d (DEFAULT_STARTS frames, redrawn longer only when a caller
    asks for more) is kept, and every call returns a view of its first n.
    """
    frames = _SCREENS.get(d)
    if frames is None or len(frames) < n:
        rng = rng_from_seed(SCREEN_SEED)
        frames = np.empty((max(n, DEFAULT_STARTS), d, 2), dtype=complex)
        frames[0] = np.eye(d)[:, :2]
        frames[1:] = haar_isometries(d, 2, len(frames) - 1, rng)
        frames.setflags(write=False)
        _SCREENS[d] = frames
    return frames[:n]


def _search_pairs(kraus: np.ndarray, *, budget: int, tol: float) -> tuple[np.ndarray, int, bool]:
    """Best orthonormal pair frame (d, 2) found, evaluations used, and whether the band ran.

    Screen: the first min(DEFAULT_STARTS, budget) screen_frames in one
    batched kernels.pair_violation_grad call, whose gradients the ascent
    reads for its first step; only frames and f come back from it.  The
    screened maximum picks the phase.  At or above
    max(100 tol, 1e-3) the winner alone is polished to PAIR_POLISH_RTOL.
    Below it the best PAIR_BAND_FRAMES screened frames (the winner among
    them) ascend together to PAIR_BAND_RTOL, the band, and the winner gets
    no separate polish first.  budget caps the evaluations: one per
    screened frame plus one per polished frame per step.  Nothing is
    random, so the result depends on the channel, budget and tol alone.
    """
    d = kraus.shape[1]
    n = min(DEFAULT_STARTS, budget)
    frames = screen_frames(d, n).copy()
    f, grad = kernels.pair_violation_grad(frames, kraus)
    evals = n
    order = np.argsort(-f, kind="stable")
    band = bool(f[order[0]] < max(100 * tol, 1e-3))
    if band:
        active, rtol = order[:PAIR_BAND_FRAMES], PAIR_BAND_RTOL
    else:
        active, rtol = order[:1], PAIR_POLISH_RTOL
    evals += _ascend_pairs(frames, f, grad, kraus, active, budget=budget - evals, rtol=rtol)
    return frames[int(np.argmax(f))], evals, band


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

    frames and f are updated in place; grad (from kernels.pair_violation_grad,
    with f) is only read, for the first direction.  A frame climbs log f^2,
    which is scale-free, so a violation near tol moves as fast as a large
    one.  Its direction is an inverse Hessian estimate applied to the
    tangent part of the gradient, and it retracts by QR with R's diagonal
    positive.  The estimate starts at PAIR_STEP times the identity, so the
    first step is a plain gradient step, and takes a BFGS update from every
    step taken (tangent vectors move to the new frame by projection).  Plain
    gradient steps crawl along the nearly flat ridges of eps-perturbed
    symmetric channels for thousands of steps; the updates learn the ridge's
    curvature.  The step length starts at 1 and halves when refused; a step
    that would lower f is never taken.  A taken step grows it by
    PAIR_STEP_GROW only while the frame is still on a straight stretch: when
    its gain in log f^2 is at least PAIR_STEP_LINEAR times the first-order
    prediction step * slope.  Otherwise the length stays, because near a
    maximum the quasi-Newton step of length 1 is the right one and a longer
    trial is refused.  A frame is done once a taken step gains at most
    rtol f^2, or once a refused step was too short to gain more than that
    to first order.

    The climbing frames live in contiguous local arrays (the log-gradient
    xi in the real (k, 4d) layout of _real) and are written back to frames
    and f only when they finish or the budget ends.  When every frame's step
    was taken, they are updated through a slice, not a mask: no gathers.
    """
    k, d = active.size, frames.shape[1]
    w, fk = frames[active], f[active]
    xi = _log_gradient(w, grad[active], fk * fk)
    hinv = np.broadcast_to(PAIR_STEP * np.eye(4 * d), (k, 4 * d, 4 * d)).copy()
    step = np.ones(k)

    def write_back(rows):
        frames[active[rows]], f[active[rows]] = w[rows], fk[rows]

    evals = 0
    while active.size and evals < budget:
        if active.size > budget - evals:
            cut = budget - evals
            write_back(slice(cut, None))
            active, w, fk, xi, hinv, step = (
                a[:cut] for a in (active, w, fk, xi, hinv, step)
            )
        k = active.size
        f2 = fk * fk
        p = _tangent(w, _complex(hinv @ xi[:, :, None]))
        p_real = _real(p)
        slope = (p_real * xi).sum(axis=-1)
        q = _retract(w + step[:, None, None] * p)
        f_new, g_new = kernels.pair_violation_grad(q, kraus)
        evals += k
        f2_new = f_new * f_new
        gain = f2_new - f2
        take = gain >= 0
        # a taken step's gain in log f^2 against its first-order prediction
        ratio = np.divide(f2_new, f2, out=np.ones(k), where=take & (f2 > 0))
        linear = np.log(ratio) >= PAIR_STEP_LINEAR * step * slope
        done = np.where(take, gain, step * slope * f2) <= rtol * f2
        moved = np.count_nonzero(take)
        if moved:
            # a slice, not a mask, when every frame moved: no gathers in the common case
            rows = slice(None) if moved == k else take
            q, f_new = q[rows], f_new[rows]
            xi_new, carried = _log_gradient(q, g_new[rows], f2_new[rows], xi[rows])
            s = step[rows, None] * p_real[rows]
            hinv[rows] = _bfgs_update(hinv[rows], s, carried - xi_new)
            w[rows], fk[rows], xi[rows] = q, f_new, xi_new
        step = step * np.where(take, np.where(linear, PAIR_STEP_GROW, 1.0), 0.5)
        if np.count_nonzero(done):
            write_back(done)
            keep = ~done
            active, w, fk, xi, hinv, step = (
                a[keep] for a in (active, w, fk, xi, hinv, step)
            )
    write_back(slice(None))
    return evals


def _tangent(w: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Projection of z onto the tangent spaces of the orthonormal frames w.

    z may be a (m, k, d, 2) stack of m vectors per frame of the (k, d, 2) w.
    """
    wz = w.conj().swapaxes(-1, -2) @ z
    return z - w @ ((wz + wz.conj().swapaxes(-1, -2)) / 2)


def _retract(v: np.ndarray) -> np.ndarray:
    """Q of the QR factorization of contiguous (k, d, 2) frames, R's diagonal positive.

    Gram-Schmidt, in place: v is overwritten and returned.  The column
    norms are sums of squares over v's real view.
    """
    a, b = v[..., 0], v[..., 1]
    parts = v.view(float)  # (k, d, 4): Re a, Im a, Re b, Im b
    a /= np.sqrt((parts[..., :2] ** 2).sum(axis=(-2, -1)))[:, None]
    b -= a * (a.conj() * b).sum(axis=-1, keepdims=True)
    b /= np.sqrt((parts[..., 2:] ** 2).sum(axis=(-2, -1)))[:, None]
    return v


def _log_gradient(
    w: np.ndarray, grad: np.ndarray, f2: np.ndarray, carried: np.ndarray | None = None
) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """Tangent part of the gradient of log f^2, from the gradient of f^2, as (k, 4d) reals.

    Given carried, an earlier (k, 4d) tangent vector, returns the pair
    (log-gradient, carried projected onto the same tangent spaces), both
    from one _tangent call on a stack of the two.
    """
    z = grad / np.where(f2 > 0, f2, 1.0)[:, None, None]
    if carried is None:
        return _real(_tangent(w, z))
    xi, carried = _tangent(w, np.array((z, _complex(carried))))
    return _real(xi), _real(carried)


def _real(z: np.ndarray) -> np.ndarray:
    """Contiguous (k, d, 2) complex frames as (k, 4d) real vectors: Re tr(x^dag y) = x . y."""
    return z.reshape(z.shape[0], 2 * z.shape[1]).view(float)


def _complex(v: np.ndarray) -> np.ndarray:
    """Inverse of _real for a contiguous (k, 4d) or (k, 4d, 1) real array."""
    return v.reshape(v.shape[0], v.shape[1] // 4, 4).view(complex)


def _bfgs_update(hinv: np.ndarray, s: np.ndarray, y: np.ndarray) -> np.ndarray:
    """BFGS update of a stack of inverse Hessian estimates for minimizing -log f^2.

    s is the step and y the fall of the gradient of log f^2 along it.  The
    result H + (s v^T + v s^T), with v = rho ((1 + rho y . Hy)/2 s - Hy) and
    rho = 1/(s . y), is the usual H - rho (s Hy^T + Hy s^T) +
    rho (1 + rho y . Hy) s s^T; it is exactly symmetric and meets the
    secant condition H y = s.  An estimate whose step saw no clear downward
    curvature (s . y at most 1e-12 |s| |y|) is left as it is, which keeps
    every estimate positive definite.
    """
    hy = hinv @ y[..., None]
    # every dot product needed, from one Gram matrix of (s, y, Hy)
    vecs = np.concatenate((s[:, None], y[:, None], hy.swapaxes(-1, -2)), axis=1)
    gram = vecs @ vecs.swapaxes(-1, -2)
    sy = gram[:, 0, 1]
    curved = sy > 1e-12 * np.sqrt(gram[:, 0, 0] * gram[:, 1, 1])
    rho = np.divide(1.0, sy, out=np.zeros_like(sy), where=curved)
    v = rho[:, None] * (((1.0 + rho * gram[:, 1, 2]) / 2)[:, None] * s - hy[..., 0])
    sv = s[:, :, None] * v[:, None, :]
    return hinv + (sv + sv.swapaxes(-1, -2))


# ---------------------------------------------------------------------------
# Creation witnesses
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CreationWitness:
    """A classical-on-B input whose image under I (x) L is not classical on B.

    The input is (|0><0|_A (x) phi + |1><1|_A (x) psi)/2 built from the
    offending orthogonal pair; output_quantumness equals the pair's
    normalized output commutator defect.  tol is the decision tolerance the
    witness was built at, and confirmed marks witnesses whose output
    quantumness clears WITNESS_CONFIRM_FACTOR times it.
    """

    pair: tuple[np.ndarray, np.ndarray]
    input_state: BipartiteState
    output_state: BipartiteState
    input_quantumness: float
    output_quantumness: float
    tol: float

    @property
    def confirmed(self) -> bool:
        return bool(self.output_quantumness > WITNESS_CONFIRM_FACTOR * self.tol)


def witness_from_pair(
    channel: chn.KrausChannel,
    phi: np.ndarray,
    psi: np.ndarray,
    *,
    tol: float = CP_TOL,
) -> CreationWitness:
    """Build and check the two-term witness state for a given orthogonal pair.

    The input is make_half_classical([1/2, 1/2], [|0><0|, |1><1|], [phi psi]),
    so the pair is checked there, as an orthonormal set.
    """
    phi = np.asarray(phi, dtype=complex).reshape(-1)
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    cond = [DensityMatrix.pure(e) for e in np.eye(2)]
    state = make_half_classical([0.5, 0.5], cond, np.column_stack([phi, psi]))
    out = channel.apply_local_b(state)
    in_rep = is_classical_on_b(state)
    out_rep = is_classical_on_b(out)
    return CreationWitness(
        pair=(phi, psi),
        input_state=state,
        output_state=out,
        input_quantumness=in_rep.quantumness,
        output_quantumness=out_rep.quantumness,
        tol=tol,
    )


def block_overlap(phi: np.ndarray, psi: np.ndarray) -> complex:
    """<phi_r|psi_r> of the components inside the first d-1 levels."""
    phi = np.asarray(phi, dtype=complex).reshape(-1)
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    if phi.shape != psi.shape:
        raise ValueError("vectors must have equal dimension")
    return complex(np.vdot(phi[:-1], psi[:-1]))


def block_overlap_enables_creation(
    phi: np.ndarray, psi: np.ndarray, tol: float = ORTHONORMAL_ATOL
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
    phi, psi = check_orthonormal(np.column_stack([phi, psi])).T
    g = abs(block_overlap(phi, psi))
    prod = float(np.linalg.norm(phi[:-1]) * np.linalg.norm(psi[:-1]))
    return g > tol and abs(g - prod) > tol


# ---------------------------------------------------------------------------
# Structure detectors
# ---------------------------------------------------------------------------


def _images(channel: chn.KrausChannel, m: np.ndarray) -> np.ndarray:
    """L(m) for a (d, d) matrix or a (k, d, d) stack, read off the unit images.

    L(m) = sum_ij m[i, j] L(E_ij), so it is one product of the flattened
    matrices with channel.unit_images() as a (d^2, d^2) matrix.
    """
    n = channel.dim**2
    return (m.reshape(-1, n) @ channel.unit_images().reshape(n, n)).reshape(m.shape)


def is_unital(channel: chn.KrausChannel, tol: float = CP_TOL) -> bool:
    """||L(I) - I||_F <= tol, by default the decision tolerance CP_TOL."""
    eye = np.eye(channel.dim)
    return linalg.frobenius(_images(channel, eye) - eye) <= tol


def is_mixing_sampled(
    channel: chn.KrausChannel,
    *,
    n_samples: int = 200,
    tol: float = CP_TOL,
    rng: np.random.Generator,
) -> bool:
    """Entropy never decreases on sampled inputs (cross-check for unitality).

    The maximally mixed state is probed first: it maximizes entropy
    uniquely, so any non-unital channel strictly lowers its entropy, which
    random (mostly rather pure) samples can easily miss.
    """
    probes = [DensityMatrix.maximally_mixed(channel.dim)]
    probes += [random_density(channel.dim, rng) for _ in range(n_samples)]
    for rho in probes:
        if channel.apply(rho).entropy() < rho.entropy() - tol:
            return False
    return True


@lru_cache(maxsize=None)
def hermitian_basis(d: int) -> np.ndarray:
    """d^2 Hermitian matrices spanning the operator space, as (d^2, d, d).

    The d diagonal units come first, then for each i < j the symmetric and
    the antisymmetric off-diagonal unit.  Cached per d and read-only.
    """
    out = np.zeros((d * d, d, d), dtype=complex)
    out[np.arange(d), np.arange(d), np.arange(d)] = 1.0
    k = d
    for i in range(d):
        for j in range(i + 1, d):
            out[k, i, j] = out[k, j, i] = 1 / np.sqrt(2)
            out[k + 1, i, j] = -1j / np.sqrt(2)
            out[k + 1, j, i] = 1j / np.sqrt(2)
            k += 2
    out.setflags(write=False)
    return out


def find_decohering_basis(
    channel: chn.KrausChannel, tol: float = CP_TOL
) -> np.ndarray | None:
    """Basis in which every channel output is diagonal, if one exists.

    Applies the channel to a Hermitian operator basis; when all images are
    normal and pairwise commute within normalized tol (by default the
    decision tolerance CP_TOL) their common eigenbasis diagonalizes L(rho)
    for every rho by linearity.  Returns None otherwise.
    """
    skip = linalg.ZERO_MEMBER_ATOL
    outs = _images(channel, hermitian_basis(channel.dim))
    worst, _ = linalg.worst_commutation_defect(outs, skip=skip, stop=tol)
    if worst > tol:
        return None
    members = outs[np.linalg.norm(outs, axis=(1, 2)) > skip]
    if not len(members):
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


def fit_isotropic(channel: chn.KrausChannel, *, tol: float = CP_TOL) -> IsotropicFit | None:
    """Detect L = p Gamma + (1-p) I/d with spectrum-preserving Gamma.

    Requires unitality within tol.  The unit images obey S - D = p (Gamma -
    D), D those of the completely depolarizing channel, and ||Gamma - D||_F^2
    = d^2 - 1 for both kinds of Gamma, so |p| = ||S - D||_F / sqrt(d^2 - 1).
    For p = +|p|, then -|p|, the candidate Gamma has unit images g[i, j] =
    D + (S - D)/p.  A unitary Gamma has g[i, j] = u_i u_j^dag (u_i the
    columns of u) and a rotated transpose has g[j, i] = u_i u_j^dag, so both
    kinds are one fit, of g or of g with i, j swapped: every Choi column is
    vec(u) times a scalar, and u is the polar factor of the column with the
    largest diagonal entry.  A candidate is accepted iff p lies in the CP
    range (within the slack isotropic() allows) and |p| max_ij ||g[i, j] -
    u_i u_j^dag||_F <= tol, which is the
    action distance max_ij ||L(E_ij) - F(E_ij)||_F to the fitted channel F.
    """
    if not is_unital(channel, tol):
        return None
    d = channel.dim
    # [i, j] = delta_ij I/d: the unit images of the completely depolarizing channel
    depol = np.einsum("ij,ab->ijab", np.eye(d), np.eye(d)) / d
    diff = channel.unit_images() - depol
    if np.linalg.norm(diff, axis=(2, 3)).max() <= tol:
        return IsotropicFit(p=0.0, gamma=None, u=None)

    p_abs = linalg.frobenius(diff) / np.sqrt(d * d - 1)
    # isotropic() accepts p up to d^2 choi_atol(d) outside the CP range, where the
    # least Choi eigenvalue falls at slope >= 1/d^2; twice that allows for rounding
    slack = chn.TP_ATOL - ORTHONORMAL_ATOL
    for p in (p_abs, -p_abs):
        g = depol + diff / p
        # the Choi diagonal g[j, j][b, b] is the same for both kinds
        j, b = np.unravel_index(np.argmax(np.einsum("jjbb->jb", g).real), (d, d))
        for gamma, units in (("unitary", g), ("transpose", g.swapaxes(0, 1))):
            lo, hi = chn.isotropic_p_range(d, gamma)
            if not lo - slack <= p <= hi + slack:
                continue
            # units[i, j][a, b] = u[a, i] conj(u[b, j]), so this column is u conj(u[b, j])
            u = _polar_unitary(units[:, j, :, b].T)
            resid = units - np.einsum("ai,bj->ijab", u, u.conj())
            if abs(p) * np.linalg.norm(resid, axis=(2, 3)).max() <= tol:
                return IsotropicFit(p=float(p), gamma=gamma, u=u)
    return None


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClassificationVerdict:
    """Channel class label plus the evidence that justifies it.

    evidence: decohering basis for completely_decohering, IsotropicFit for
    isotropic, CreationWitness for creator.  cp is the
    commutativity-preservation verdict every label is checked against;
    consistent records whether the label and cp agree with the dimension's
    theorem (None at d >= 4, where no completeness claim applies).  Nothing
    in it depends on a seed, only on the channel, budget and tol.
    """

    label: str
    cp: CPVerdict
    basis: np.ndarray | None = None
    iso_fit: IsotropicFit | None = None
    witness: CreationWitness | None = None
    consistent: bool | None = None


def _agrees(d: int, label: str, cp: CPVerdict) -> bool:
    """Whether the label names a preserving family exactly when cp preserves.

    The preserving families are mixing (unital) or completely decohering at
    d = 2 and completely decohering or isotropic at d = 3 (both theorems);
    d >= 4 takes the conjectured extension of the qutrit statement.
    """
    families = (LABEL_UNITAL, LABEL_CD) if d == 2 else (LABEL_CD, LABEL_ISOTROPIC)
    return (label in families) == cp.preserving


def _label(
    channel: chn.KrausChannel, *, budget: int, tol: float
) -> tuple[str, np.ndarray | None, IsotropicFit | None, CPVerdict]:
    """(label, decohering basis, isotropic fit, preservation verdict) of a channel.

    The family label comes from the detectors of the dimension's theorem:
    unital, then completely decohering at d = 2; completely decohering, then
    isotropic at d >= 3.  Every detector judges closeness to its family at
    the decision's tol, so one threshold decides the label and the verdict
    it is checked against.  The preservation decision always runs, first, so
    its tol and budget checks run before any detector; a channel with no
    family label is a creator when it violates and unclassified otherwise.
    """
    cp = is_commutativity_preserving(channel, budget=budget, tol=tol)
    basis = iso = label = None
    if channel.dim == 2 and is_unital(channel, tol):
        label = LABEL_UNITAL
    elif (basis := find_decohering_basis(channel, tol)) is not None:
        label = LABEL_CD
    elif channel.dim >= 3 and (iso := fit_isotropic(channel, tol=tol)) is not None:
        label = LABEL_ISOTROPIC
    if label is None:
        label = LABEL_UNKNOWN if cp.preserving else LABEL_CREATOR
    return label, basis, iso, cp


def classify_channel(
    channel: chn.KrausChannel,
    *,
    budget: int = DEFAULT_BUDGET,
    tol: float = CP_TOL,
) -> ClassificationVerdict:
    """Label a channel by the families of its dimension and check the label.

    d = 2: unital_mixing or completely_decohering; d >= 3:
    completely_decohering or isotropic.  A channel in none of them is a
    creator, with a witness built from the violating pair, when the
    preservation decision finds a violation, and unclassified otherwise.
    consistent says whether the label and the decision agree with the
    theorem at d = 2 and 3; at d >= 4 no completeness claim applies and it
    is None.  Nothing is random: the verdict depends on the channel, budget
    and tol alone.
    """
    label, basis, iso, cp = _label(channel, budget=budget, tol=tol)
    witness = None
    if label == LABEL_CREATOR:
        witness = witness_from_pair(channel, *cp.witness_pair, tol=tol)
    consistent = _agrees(channel.dim, label, cp) if channel.dim in (2, 3) else None
    return ClassificationVerdict(
        label=label, cp=cp, basis=basis, iso_fit=iso, witness=witness, consistent=consistent
    )


def classify_qubit(
    channel: chn.KrausChannel, *, budget: int = DEFAULT_BUDGET, tol: float = CP_TOL
) -> ClassificationVerdict:
    """Qubit trichotomy: unital (mixing), completely decohering, or creator.

    For qubits, commutativity preservation is equivalent to being unital or
    completely decohering, so any other channel should yield a witness.
    """
    if channel.dim != 2:
        raise ValueError("classify_qubit expects a qubit channel")
    return classify_channel(channel, budget=budget, tol=tol)


def classify_qutrit(
    channel: chn.KrausChannel, *, budget: int = DEFAULT_BUDGET, tol: float = CP_TOL
) -> ClassificationVerdict:
    """Qutrit trichotomy: completely decohering, isotropic, or creator.

    Unitality alone does not protect a qutrit channel: generic mixtures of
    two unitaries already create correlation, and only the isotropic subset
    of unital channels is commutativity preserving.
    """
    if channel.dim != 3:
        raise ValueError("classify_qutrit expects a qutrit channel")
    return classify_channel(channel, budget=budget, tol=tol)


# ---------------------------------------------------------------------------
# Maximal entangled fraction and the fidelity bound
# ---------------------------------------------------------------------------


MSF_STEP_TOL = 1e-15
# f and f_upper round the same maximum two ways (a quadratic form and
# eigvalsh); at d = 2 they disagree by up to ~16 eps |f_upper|, so the
# bracket counts as closed within that much on top of MSF_STEP_TOL.
MSF_ROUNDING = 16 * np.finfo(float).eps
MSF_SLACK = 1e-6
MSF_ESCAPE_RADIUS = 1.0
MSF_FLAT_FRACTION = 0.02
# The Newton step costs O(d^6) per start (its (d^2 - 1)-square Hessian and
# eigh) against O(d^4) for the polar step.  Timed on a 2-vCPU x86-64
# machine with OpenBLAS, its fewer steps pay for that at d = 2 and 3;
# at d = 4 and 5 the total time is about even and the median check slower,
# and at d = 6 and 8 it is slower, so larger d climbs by the polar step
# alone.
MSF_NEWTON_MAX_DIM = 3


@lru_cache(maxsize=None)
def _traceless_basis(d: int) -> np.ndarray:
    """An orthonormal basis of the traceless Hermitian d x d matrices, (d^2 - 1, d, d).

    The d - 1 diagonal generators diag(1, ..., 1, -j, 0, ..., 0) /
    sqrt(j (j + 1)) (j ones, j = 1 .. d - 1) come first, then the
    off-diagonal units of hermitian_basis.  Orthonormal in tr(A B).
    Cached per d and read-only.
    """
    out = np.zeros((d * d - 1, d, d), dtype=complex)
    for j in range(1, d):
        out[j - 1, np.arange(j), np.arange(j)] = 1.0
        out[j - 1, j, j] = -j
        out[j - 1] /= np.sqrt(j * (j + 1))
    out[d - 1 :] = hermitian_basis(d)[d:]
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def _newton_layouts(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """_traceless_basis(d) laid out for the Newton model's contractions.

    Returns (cols, t_basis, t_anti), read-only: cols lays the H_k side by
    side, so U @ cols holds every U H_k; for any K, K.reshape(d^2) @ t_basis
    gives tr(K H_k) and K.reshape(d^2) @ t_anti gives tr(K {H_k, H_l}/2),
    flattened over k, l.  Cached per d.
    """
    basis = _traceless_basis(d)
    k = len(basis)
    prods = basis[:, None] @ basis[None, :]
    anti = (prods + prods.transpose(1, 0, 2, 3)) / 2
    cols = np.ascontiguousarray(basis.transpose(1, 0, 2).reshape(d, k * d))
    t_basis = np.ascontiguousarray(basis.transpose(2, 1, 0).reshape(d * d, k))
    t_anti = np.ascontiguousarray(anti.transpose(3, 2, 0, 1).reshape(d * d, k * k))
    for a in (cols, t_basis, t_anti):
        a.setflags(write=False)
    return cols, t_basis, t_anti


@dataclass(frozen=True)
class MsfResult:
    """Maximal overlap with maximally entangled states |Phi_U> = (I (x) U)|Phi+>.

    fidelity is the average-teleportation value (d F + 1)/(d + 1).  F is a
    lower bound on the true maximum: the overlap at the best unitary found,
    never below the overlap at U = I.  f_upper is entangled_fraction_upper:
    the exact maximum at d = 2, and an upper bound on it above.  converged
    says the search stopped by its own rule within the budget: either the
    bracket closed (the best start came within MSF_STEP_TOL plus
    MSF_ROUNDING |f_upper| of f_upper, which at d >= 3 happens only where
    the bound is tight, as on pure states) or every start met the stopping
    rule (a step gaining at most MSF_STEP_TOL).  evals counts
    objective-and-gradient evaluations summed over this state's starts,
    one per candidate: two per active start per step (the polar and the
    Newton candidate) for d <= MSF_NEWTON_MAX_DIM, one above, however a
    candidate is computed (the polar factor is a closed form at d = 2).
    iterations counts the steps of this state's longest-running start.  When several
    states climb in one batch (msf_batch), evals, iterations, converged
    and the budget they are measured against are each state's own.
    """

    f_value: float
    fidelity: float
    unitary: np.ndarray
    evals: int
    converged: bool
    iterations: int
    f_upper: float


def _overlap_matrix(state: BipartiteState) -> np.ndarray:
    """M^T for f(U) = vec(U)^dag M vec(U), so that U.reshape(d^2) @ M^T is vec(M U)."""
    d = state.dim_a
    # f(U) = sum conj(U[a, i]) rho[(i, a), (j, b)] U[b, j] / d
    return state.mat.reshape(d, d, d, d).transpose(1, 0, 3, 2).reshape(d * d, d * d).T / d


def _join(parts: list[np.ndarray]) -> np.ndarray:
    """np.concatenate, skipped for a single part."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _times_m(x: np.ndarray, m_ts: list[np.ndarray], counts: list[int]) -> np.ndarray:
    """x times M, state by state: the first counts[0] items of x take m_ts[0], and so on.

    An item's entries flatten to rows of length d^2, and each state's
    contiguous block of rows takes one 2-D matmul with its own M, so no M
    is gathered per item.
    """
    n = len(m_ts[0])
    if len(m_ts) == 1:
        return (x.reshape(-1, n) @ m_ts[0]).reshape(x.shape)
    parts, lo = [], 0
    for m_t, count in zip(m_ts, counts):
        parts.append(x[lo : lo + count].reshape(-1, n) @ m_t)
        lo += count
    return np.concatenate(parts).reshape(x.shape)


def _rows_times(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x @ y for a 2-D x, each row rounded alike however many rows x has.

    NumPy multiplies a single row by gemv and several rows by gemm, which
    round differently.  A lone row is doubled, so a start's Newton step does
    not depend on which other starts share its batch.
    """
    if len(x) == 1:
        return (np.concatenate([x, x]) @ y)[:1]
    return x @ y


def _newton_model(
    u: np.ndarray, g: np.ndarray, m_ts: list[np.ndarray], counts: list[int]
) -> tuple[np.ndarray, np.ndarray]:
    """Gradient and Hessian of f(U e^{iH}) at H = 0 per start, (a, k) and (a, k, k).

    In the orthonormal basis H_k of _traceless_basis, the gradient is
    g_k = -2 Im tr(K H_k) and the Hessian 2 [Re<U H_k, M U H_l> -
    Re tr(K {H_k, H_l}/2)], with K = G^dag U.  The phase direction H = I
    is left out: f(e^{it} U) = f(U), so its gradient and its row of the
    Hessian vanish.  The starts of one state are contiguous: the first
    counts[0] take M from m_ts[0], and so on (_times_m).
    """
    a, d, _ = u.shape
    n = d * d
    cols, t_basis, t_anti = _newton_layouts(d)
    k = t_basis.shape[1]
    kk = (g.conj().transpose(0, 2, 1) @ u).reshape(a, n)
    grad = -2 * _rows_times(kk, t_basis).imag
    uh = (u.reshape(a * d, d) @ cols).reshape(a, d, k, d).transpose(0, 2, 1, 3).reshape(a, k, n)
    muh = _times_m(uh, m_ts, counts)
    anti = _rows_times(kk, t_anti).real.reshape(a, k, k)
    return grad, 2 * ((uh.conj() @ muh.transpose(0, 2, 1)).real - anti)


def _newton_candidates(
    u: np.ndarray, g: np.ndarray, m_ts: list[np.ndarray], counts: list[int]
) -> np.ndarray:
    """One Riemannian Newton step on U(d) per start, retracted by the Cayley map.

    The model is _newton_model's, on the d^2 - 1 traceless generators, so
    its eigh is (d^2 - 1)-square.  Along eigenvectors of negative
    curvature the step is Newton's; along those of positive curvature (a
    saddle or a minimum) it is MSF_ESCAPE_RADIUS times the sign of the
    gradient component, which escapes saddles.  A curvature
    within MSF_FLAT_FRACTION of the largest |curvature| of zero counts as
    flat and takes the gradient component over that floor instead: there
    the quadratic model says nothing about the step length, and both full
    steps overshoot.  The step norm is capped at MSF_ESCAPE_RADIUS.
    """
    a, d, _ = u.shape
    basis = _traceless_basis(d)
    k = len(basis)
    grad, hess = _newton_model(u, g, m_ts, counts)
    curv, vecs = np.linalg.eigh(hess)
    proj = (grad[:, None] @ vecs)[:, 0]
    radius = MSF_ESCAPE_RADIUS
    flat = MSF_FLAT_FRACTION * np.abs(curv).max(axis=1, keepdims=True, initial=0.0)
    scale = np.where(curv < -flat, -curv, np.where(curv > flat, np.abs(proj) / radius, flat))
    step = np.divide(proj, scale, out=np.zeros_like(proj), where=scale > 0)
    norm = np.linalg.norm(step, axis=1, keepdims=True)
    step *= radius / np.maximum(norm, radius)
    h = _rows_times((vecs @ step[..., None])[..., 0], basis.reshape(k, d * d)).reshape(a, d, d)
    eye = np.eye(d)
    return u @ np.linalg.solve(eye - 0.5j * h, eye + 0.5j * h)


def msf(
    state: BipartiteState,
    *,
    budget: int = DEFAULT_BUDGET,
    starts: int = DEFAULT_STARTS,
    rng: np.random.Generator,
) -> MsfResult:
    """Maximize <Phi_U|rho|Phi_U> over unitaries on B by multistart ascent.

    This is msf_batch with one state; see there for the ascent, the stops,
    the budget and the order of the Haar draws.
    """
    return msf_batch([state], budget=budget, starts=starts, rng=rng)[0]


def msf_batch(
    states: Sequence[BipartiteState],
    *,
    budget: int = DEFAULT_BUDGET,
    starts: int = DEFAULT_STARTS,
    rng: np.random.Generator,
) -> tuple[MsfResult, ...]:
    """msf of several d x d states, climbed together in one batch.

    f(U) = vec(U)^dag M vec(U) is a PSD quadratic form in the entries of U,
    with one M per state.  Each step evaluates the polar factor of the
    gradient G = M U, which never lowers f (it maximizes the linear
    minorant 2 Re<V, G> - f(U)).  For d <= MSF_NEWTON_MAX_DIM it also
    evaluates a Riemannian Newton step with saddle escape
    (_newton_candidates), which converges quadratically near a maximum, and
    keeps the better of the two.  A step that would lower f is not taken.

    Each state has min(starts, budget) starts: start 0 is U = I and the
    others are Haar draws from one haar_unitaries call, the first state's
    draws first, so the results and rng's final state equal those of one
    msf call per state, in order.  Every start still climbing, of every
    state, steps in one batch: one linalg.polar_factors call (a closed
    form at d = 2, one batched SVD above), for d <= MSF_NEWTON_MAX_DIM one
    Newton model with its (d^2 - 1)-square eigh and one Cayley solve, and
    one gradient product per state on its contiguous block of starts.  The
    stops and the budget are each state's own, as if it climbed alone.  A
    start leaves the batch once a step gains at most MSF_STEP_TOL, and a
    state's ascent ends, every start counted converged, once its bracket
    closes: its best start is within MSF_STEP_TOL plus MSF_ROUNDING
    |f_upper| (the rounding of the two evaluations) of f_upper =
    entangled_fraction_upper(state).  f_upper is exact at d = 2, so there
    the ascent stops as soon as a start reaches the maximum.  budget caps a
    state's evaluations summed over its starts, one per candidate: when it
    runs short, the polar candidates come first.  budget and starts must be
    at least 1, because start 0 is always evaluated.
    """
    states = tuple(states)
    if not states:
        raise ValueError("msf_batch needs at least one state")
    if any(st.dim_a != st.dim_b for st in states):
        raise ValueError("maximal entangled fraction needs equal local dimensions")
    d = states[0].dim_a
    if any(st.dim_a != d for st in states):
        raise ValueError("states climbed in one batch need one local dimension")
    if budget < 1 or starts < 1:
        raise ValueError(f"budget and starts must be at least 1, got {budget!r} and {starts!r}")
    k = len(states)
    m_ts = [_overlap_matrix(st) for st in states]
    f_upper = [entangled_fraction_upper(st) for st in states]
    close_at = [fu - MSF_STEP_TOL - MSF_ROUNDING * abs(fu) for fu in f_upper]
    n_starts = min(starts, budget)
    u = np.empty((k, n_starts, d, d), dtype=complex)
    u[:, 0] = np.eye(d)
    u[:, 1:] = haar_unitaries(d, k * (n_starts - 1), rng).reshape(k, n_starts - 1, d, d)
    u = u.reshape(k * n_starts, d, d)
    g = _times_m(u, m_ts, [n_starts] * k)
    f = np.einsum("kai,kai->k", u.conj(), g).real
    blocks = [slice(s * n_starts, (s + 1) * n_starts) for s in range(k)]
    evals = [n_starts] * k
    iterations = [0] * k
    active = [np.arange(b.start, b.stop) for b in blocks]
    closed = [f[b].max() >= c for b, c in zip(blocks, close_at)]
    converged = np.zeros(k * n_starts, dtype=bool)
    use_newton = d <= MSF_NEWTON_MAX_DIM
    while True:
        # (state, its starts stepping now, how many of them also get a Newton candidate)
        climbing, ms, sizes = [], [], []
        for s in range(k):
            left = budget - evals[s]
            if active[s].size and left > 0 and not closed[s]:
                act = active[s][:left]
                nn = min(act.size, left - act.size) if use_newton else 0
                climbing.append((s, act, nn))
                ms.append(m_ts[s])
                sizes.append(act.size + nn)
        if not climbing:
            break
        rows = _join([act for _, act, _ in climbing])
        polar = linalg.polar_factors(g[rows])
        # the candidates, state by state: its polar candidates, then its Newton ones
        pieces = [polar]
        if use_newton:
            newton_rows = _join([act[:nn] for _, act, nn in climbing])
            if newton_rows.size:
                newton = _newton_candidates(
                    u[newton_rows], g[newton_rows], ms, [nn for *_, nn in climbing]
                )
                pieces, r, q = [], 0, 0
                for _, act, nn in climbing:
                    pieces += [polar[r : r + act.size], newton[q : q + nn]]
                    r, q = r + act.size, q + nn
        cand = _join(pieces)
        g_cand = _times_m(cand, ms, sizes)
        f_cand = np.einsum("kai,kai->k", cand.conj(), g_cand).real
        # index into cand of the better candidate per start: the Newton one where it gains more
        pick = np.arange(rows.size)
        c = r = 0
        for _, act, nn in climbing:
            if c > r:
                pick[r : r + act.size] += c - r
            if nn:
                better = f_cand[c + act.size : c + act.size + nn] > f_cand[c : c + nn]
                pick[r : r + nn][better] += act.size
            c, r = c + act.size + nn, r + act.size
        gain = f_cand[pick] - f[rows]
        take = gain >= 0
        dst, src = rows[take], pick[take]
        u[dst] = cand[src]
        g[dst] = g_cand[src]
        f[dst] = f_cand[src]
        done = gain <= MSF_STEP_TOL
        converged[rows[done]] = True
        r = 0
        for s, act, nn in climbing:
            active[s] = act[~done[r : r + act.size]]
            evals[s] += act.size + nn
            iterations[s] += 1
            closed[s] = f[blocks[s]].max() >= close_at[s]
            r += act.size

    results = []
    for s, st in enumerate(states):
        b = blocks[s]
        best = u[b][int(np.argmax(f[b]))]
        f_value = entangled_overlap_direct(st, best)
        results.append(
            MsfResult(
                f_value=f_value,
                fidelity=(d * f_value + 1) / (d + 1),
                unitary=best,
                evals=evals[s],
                converged=bool(closed[s] or converged[b].all()),
                iterations=iterations[s],
                f_upper=f_upper[s],
            )
        )
    return tuple(results)


# the two-qubit magic basis, one state per column
_MAGIC = np.array([[1, 0, 0, 1], [-1j, 0, 0, 1j], [0, 1, -1, 0], [0, -1j, -1j, 0]]).T / np.sqrt(2)
_MAGIC.setflags(write=False)


def entangled_fraction_upper(state: BipartiteState) -> float:
    """An upper bound on F, exact at d = 2.

    At d = 2 it is F itself, lambda_max(Re(M^dag rho M)) with M the magic
    basis (Bennett, DiVincenzo, Smolin and Wootters, PRA 54, 3824 (1996)):
    the maximally entangled states are a phase times a real unit vector r
    in that basis, so F = max_r r^T Re(M^dag rho M) r.  For d >= 3 it is
    min(lambda_max(rho), ||rho^T_B||_1 / d): <Phi_U|rho|Phi_U> =
    tr(rho^T_B Phi_U^T_B) and ||Phi_U^T_B||_inf = 1/d.
    """
    d = state.dim_a
    if d == 2:
        return float(np.linalg.eigvalsh((_MAGIC.conj().T @ state.mat @ _MAGIC).real)[-1])
    pt = state.mat.reshape(d, d, d, d).transpose(0, 3, 2, 1).reshape(d * d, d * d)
    top = np.linalg.eigvalsh(state.mat)[-1]
    return float(min(top, np.abs(np.linalg.eigvalsh(pt)).sum() / d))


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
) -> MsfBoundCheck:
    """Check that a unital channel on B does not raise the entangled fraction.

    Rejects non-unital channels outright: the non-improvement claim is made
    only for entropy-non-decreasing (equivalently unital) channels.
    MSF_SLACK absorbs the optimizer gap between the two searches.  rho and
    its image climb together in one msf_batch, rho's Haar starts drawn
    first, so before and after equal two msf calls on one rng, rho's first;
    each has its own budget, evals, iterations and converged.
    """
    if channel.dim != state.dim_b:
        raise ValueError("channel dimension must match dim_b")
    if not is_unital(channel):
        raise ValueError("bound check requires a unital channel")
    before, after = msf_batch(
        [state, channel.apply_local_b(state)], budget=budget, starts=starts, rng=rng
    )
    return MsfBoundCheck(
        before=before,
        after=after,
        slack=MSF_SLACK,
        holds=after.f_value <= before.f_value + MSF_SLACK,
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
    anomaly: str | None


@dataclass(frozen=True)
class ScanReport:
    """Census of sampled channels against the expected family structure.

    Each row is labelled by the same rule as classify_channel: unital_mixing
    or completely_decohering at d = 2, completely_decohering or isotropic at
    d >= 3, otherwise creator when the preservation decision finds a
    violation and unclassified when it does not.  A channel should preserve
    commutativity iff it carries a family label (a theorem at d = 2 and 3,
    the conjectured extension at d >= 4); any row breaking that equivalence
    is listed in anomalies.  family_counts holds the label counts and
    cp_pass per family; each row says whether its verdict is certified (the
    JSON report also counts cp_certified per family).  The scan builds no
    witnesses.
    """

    dim: int
    seed: int
    rows: tuple[ScanRow, ...]
    family_counts: dict
    anomalies: tuple[ScanRow, ...]


def _scan_one(dim: int, seed: int, index: int, family: str, budget: int, tol: float) -> ScanRow:
    channel = _sample_family(family, dim, substream(seed, 2 * index))
    label, _, _, cp = _label(channel, budget=budget, tol=tol)
    anomaly = None
    if not _agrees(dim, label, cp):
        anomaly = (
            "preserving_outside_known_families" if cp.preserving
            else "violation_inside_known_families"
        )
    return ScanRow(
        index=index,
        family=family,
        label=label,
        cp_preserving=cp.preserving,
        cp_certified=cp.certified,
        max_violation=cp.max_violation,
        anomaly=anomaly,
    )


def scan_channels(
    dim: int,
    n_channels: int,
    *,
    seed: int,
    budget: int = DEFAULT_BUDGET,
    tol: float = CP_TOL,
    families: tuple[str, ...] | None = None,
    workers: int = 1,
) -> ScanReport:
    """Sample channels from every constructor family and flag anomalies.

    Channel i is sampled from substream 2i of the master seed and labelled
    without randomness, so the report is reproducible and independent of
    the worker count.
    """
    if dim < 2:
        raise ValueError("scan needs dimension >= 2")
    if families is None:
        families = tuple(f for f in SCAN_FAMILIES if f != "block_unitary_mixture" or dim >= 3)
    if not families:
        raise ValueError("scan needs at least one channel family")
    tasks = [
        (dim, seed, i, families[i % len(families)], budget, tol)
        for i in range(n_channels)
    ]
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_scan_one, *zip(*tasks), chunksize=4))
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
