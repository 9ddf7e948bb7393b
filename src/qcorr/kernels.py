"""NumPy implementations of the hot numerical kernels.

Library code looks these up as ``kernels.<name>`` at call time.  The
library itself calls eigh, apply_kraus and pair_violation_grad.
pair_violation, unpack_hermitian, expi_hermitian and entangled_overlap have
no library caller; they stay because perfbench resolves them by name
(tracing.TARGETS, micro.KERNELS) and go when the benchmark drops those
lookups.
"""

from __future__ import annotations

import numpy as np

backend_name = "python"


def eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hermitian eigendecomposition, eigenvalues ascending, eigenvectors as columns."""
    return np.linalg.eigh(a)


def expi_hermitian(h: np.ndarray) -> np.ndarray:
    """exp(iH) for Hermitian H via eigendecomposition."""
    # np.linalg.eigh, not this module's eigh: perfbench traces kernels.eigh,
    # and one exponential per objective evaluation would swamp its count.
    w, v = np.linalg.eigh(h)
    return (v * np.exp(1j * w)) @ v.conj().T


def unpack_hermitian(theta: np.ndarray, d: int) -> np.ndarray:
    """Map d^2 real parameters to a d x d Hermitian matrix.

    Layout: entries 0..d-1 are the diagonal, the remainder are (re, im)
    pairs for the upper triangle in row-major order.
    """
    h = np.zeros((d, d), dtype=np.complex128)
    k = d
    for i in range(d):
        h[i, i] = theta[i]
        for j in range(i + 1, d):
            h[i, j] = theta[k] + 1j * theta[k + 1]
            h[j, i] = theta[k] - 1j * theta[k + 1]
            k += 2
    return h


def apply_kraus(kraus: np.ndarray, m: np.ndarray) -> np.ndarray:
    """sum_k E_k m E_k^dag for a stacked (n, d, d) Kraus array.

    m is one d x d matrix or a (..., d, d) stack of them.  Two plain matrix
    products over the stacked Kraus index; at these sizes einsum's path
    planning costs more than the arithmetic.
    """
    n, d, _ = kraus.shape
    lead = m.shape[:-2]
    # left[..., a, (k, e)] = (E_k m)[a, e]
    left = (kraus.reshape(n * d, d) @ m).reshape(*lead, n, d, d).swapaxes(-3, -2)
    return left.reshape(*lead, d, n * d) @ kraus.conj().transpose(0, 2, 1).reshape(n * d, d)


# 4 [C, B] = 4 (CB + (CB)^dag) and 4 [A, C] = -4 (CA + (CA)^dag), as C is anti-Hermitian
_SIGNS = np.array([4.0, -4.0])


def pair_violation_grad(frames: np.ndarray, kraus: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Violations f and the Euclidean gradients of f^2 on a stack of pair frames.

    frames is an (s, d, 2) stack whose columns are the orthonormal pairs
    (phi, psi).  With A = L(phi phi^dag), B = L(psi psi^dag), C = [A, B],
    a = ||A||^2, b = ||B||^2 and f^2 = ||C||^2 / (a b), the gradient with
    respect to the real and imaginary parts of (phi, psi) has the columns
    4 L^dag([C, B]/(a b) - f^2 A/a) phi and 4 L^dag([A, C]/(a b) - f^2 B/b) psi,
    with L^dag(X) = sum_k E_k^dag X E_k.  Returns f (s,) and grad (s, d, 2).

    A and B are Hermitian and C anti-Hermitian, so BA = (AB)^dag, and with
    P = [C; -C] [B; A] the two commutators are P + P^dag; A, B and C share
    one buffer, whose real view gives a, b and ||C||^2 in one reduction.
    """
    n, d, _ = kraus.shape
    s = frames.shape[0]
    flat = kraus.reshape(n * d, d)
    # images[s, j, k, :] = E_k w_j for the frame columns w_0 = phi, w_1 = psi
    images = (frames.swapaxes(-1, -2) @ flat.T).reshape(s, 2, n, d)
    conj = images.conj()
    mats = np.empty((s, 3, d, d), dtype=complex)
    outs = np.matmul(images.swapaxes(-1, -2), conj, out=mats[:, :2])  # A and B
    ab = outs[:, 0] @ outs[:, 1]
    c_mat = np.subtract(ab, ab.conj().swapaxes(-1, -2), out=mats[:, 2])
    real = mats.view(float).reshape(s, 3, 2 * d * d)
    norm2 = (real * real).sum(axis=-1)  # (s, 3): a, b and ||C||^2
    prod = norm2[:, 0] * norm2[:, 1]
    f2 = norm2[:, 2] / prod
    # P = (4/(a b)) [C; -C] [B; A], then 4 [C, B]/(a b) and 4 [A, C]/(a b) are P + P^dag
    p = (c_mat[:, None] * (_SIGNS / prod[:, None])[..., None, None]) @ outs[:, ::-1]
    x = p + p.conj().swapaxes(-1, -2)
    x -= (4 * f2[:, None] / norm2[:, :2])[..., None, None] * outs
    # conj(y)[s, j, k, :] = conj(E_k w_j)^T X_j, X_j being Hermitian; then
    # grad[s, j] = sum_k E_k^dag y[s, j, k, :]
    y_conj = (conj @ x).reshape(s, 2, n * d)
    grad = (y_conj @ flat).conj()
    return np.sqrt(f2), grad.swapaxes(-1, -2)


def pair_violation(theta: np.ndarray, u0: np.ndarray, kraus: np.ndarray) -> float:
    """Normalized commutator defect of channel outputs on an orthogonal pure pair.

    The pair is columns 0 and 1 of u0 @ exp(iH(theta)); the outputs are unit
    trace, so the normalization ||A||_F ||B||_F is bounded away from zero.
    """
    d = u0.shape[0]
    w = u0 @ expi_hermitian(unpack_hermitian(theta, d))
    ea = kraus @ w[:, 0]
    eb = kraus @ w[:, 1]
    a = np.einsum("ki,kj->ij", ea, ea.conj())
    b = np.einsum("ki,kj->ij", eb, eb.conj())
    c = a @ b - b @ a
    return float(np.linalg.norm(c) / (np.linalg.norm(a) * np.linalg.norm(b)))


def entangled_overlap(theta: np.ndarray, u0: np.ndarray, rho: np.ndarray) -> float:
    """<Phi_U|rho|Phi_U> with |Phi_U> = (I (x) U)|Phi+> and U = u0 exp(iH(theta))."""
    d = u0.shape[0]
    u = u0 @ expi_hermitian(unpack_hermitian(theta, d))
    w = (u.T / np.sqrt(d)).reshape(-1)  # component (i, a) of |Phi_U> is U[a, i]/sqrt(d)
    return float(np.real(w.conj() @ rho @ w))
