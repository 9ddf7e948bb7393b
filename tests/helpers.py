"""Brute-force oracles shared by the test modules.

These deliberately avoid the library's search/detector code paths: the grid
oracle scans measurement bases directly, the magic-basis formula is a
closed form, and the Bloch-grid scan enumerates orthogonal qubit pairs.
"""

from __future__ import annotations

import numpy as np

from qcorr.states import BipartiteState, block_decompose

# Columns are the magic basis; a two-qubit state is maximally entangled iff
# its coordinates in this basis are a common phase times a real vector, so
# the maximal entangled fraction is the top eigenvalue of Re(M).
MAGIC = (
    np.array(
        [
            [1, 0, 0, 1],
            [-1j, 0, 0, 1j],
            [0, 1, -1, 0],
            [0, -1j, -1j, 0],
        ],
        dtype=complex,
    ).T
    / np.sqrt(2)
)


def exact_entangled_fraction_2q(rho: np.ndarray) -> float:
    m = MAGIC.conj().T @ np.asarray(rho, dtype=complex) @ MAGIC
    return float(np.linalg.eigvalsh((m + m.conj().T).real / 2).max())


def qubit_basis_grid(n_theta: int = 100, n_phi: int = 100) -> np.ndarray:
    """(N, 2, 2) stack of orthonormal qubit bases over the Bloch sphere."""
    thetas = np.linspace(0, np.pi, n_theta)
    phis = np.linspace(0, 2 * np.pi, n_phi, endpoint=False)
    tg, pg = np.meshgrid(thetas, phis, indexing="ij")
    c = np.cos(tg / 2).ravel()
    s = np.sin(tg / 2).ravel()
    ph = np.exp(1j * pg.ravel())
    b = np.zeros((c.size, 2, 2), dtype=complex)
    b[:, 0, 0] = c
    b[:, 1, 0] = ph * s
    b[:, 0, 1] = -np.conj(ph) * s
    b[:, 1, 1] = c
    return b


_GRID_CACHE: dict[tuple[int, int], np.ndarray] = {}

# Floor for truly classical states is set by the grid resolution (the
# disturbance grows linearly in the basis angle); 100 x 100 gives ~2e-2,
# while random states sit above ~5e-2.
GRID_ORACLE_THRESHOLD = 0.03


def grid_min_disturbance(state: BipartiteState, n_theta: int = 100, n_phi: int = 100) -> float:
    """min over a (theta, phi) basis grid of ||rho - dephase(rho, basis)||_F.

    Dephasing is an orthogonal projector in Hilbert-Schmidt space, so the
    squared distance is ||rho||^2 minus the projected norm, computed here
    for the whole grid at once.
    """
    if state.dim_b != 2:
        raise ValueError("grid oracle only supports dim_b = 2")
    key = (n_theta, n_phi)
    if key not in _GRID_CACHE:
        _GRID_CACHE[key] = qubit_basis_grid(n_theta, n_phi)
    bases = _GRID_CACHE[key]
    blocks = block_decompose(state).reshape(-1, 2, 2)
    t = np.einsum("naj,mab,nbj->nmj", bases.conj(), blocks, bases, optimize=True)
    proj2 = np.sum(np.abs(t) ** 2, axis=(1, 2))
    total = np.sum(np.abs(blocks) ** 2)
    return float(np.sqrt(np.clip(total - proj2, 0, None).min()))


def grid_oracle_is_classical(state: BipartiteState) -> bool:
    return grid_min_disturbance(state) <= GRID_ORACLE_THRESHOLD


def qubit_pair_grid(n_theta: int = 100, n_phi: int = 100) -> tuple[np.ndarray, np.ndarray]:
    """All orthogonal qubit pure pairs on a Bloch grid (pair = basis columns)."""
    b = qubit_basis_grid(n_theta, n_phi)
    return b[:, :, 0], b[:, :, 1]


def pair_violations(channel, phis: np.ndarray, psis: np.ndarray) -> np.ndarray:
    """Normalized output-commutator defects of stacked pairs, by explicit Kraus sums."""
    ops = channel.ops

    def outputs(kets):
        return np.einsum("kab,nb,kcd,nd->nac", ops, kets, ops.conj(), kets.conj(), optimize=True)

    a, b = outputs(phis), outputs(psis)
    num = np.linalg.norm(a @ b - b @ a, axis=(1, 2))
    return num / (np.linalg.norm(a, axis=(1, 2)) * np.linalg.norm(b, axis=(1, 2)))


def qubit_cp_grid_max(channel, n_theta: int = 100, n_phi: int = 100) -> float:
    """Grid maximum of the normalized output-commutator defect (qubit only)."""
    return float(pair_violations(channel, *qubit_pair_grid(n_theta, n_phi)).max())


def brute_force_msf(rho: np.ndarray, d: int, n_samples: int, rng: np.random.Generator) -> float:
    """Best overlap with (I (x) U)|Phi+> over Haar-sampled unitaries."""
    z = (
        rng.standard_normal((n_samples, d, d)) + 1j * rng.standard_normal((n_samples, d, d))
    ) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    diag = np.einsum("nii->ni", r)
    q = q * (diag / np.abs(diag))[:, None, :]
    vecs = q.swapaxes(1, 2).reshape(n_samples, d * d) / np.sqrt(d)
    vals = np.einsum("ni,ij,nj->n", vecs.conj(), np.asarray(rho, dtype=complex), vecs).real
    return float(vals.max())


def amplitude_damping(gamma: float):
    """Qubit amplitude-damping Kraus pair (non-unital, non-decohering)."""
    from qcorr.channels import KrausChannel

    k0 = np.array([[1, 0], [0, np.sqrt(1 - gamma)]], dtype=complex)
    k1 = np.array([[0, np.sqrt(gamma)], [0, 0]], dtype=complex)
    return KrausChannel([k0, k1], kind="amplitude_damping", params={"gamma": gamma})


def sampled_pair_violation(channel, n_pairs: int, rng: np.random.Generator) -> float:
    """Best normalized output commutator over Haar-random orthogonal pairs.

    Each pair is the first two columns of the Q factor of a complex Gaussian
    matrix; any pair's value is a lower bound on the channel's maximum.
    """
    d = channel.dim
    z = rng.standard_normal((n_pairs, d, d)) + 1j * rng.standard_normal((n_pairs, d, d))
    q = np.linalg.qr(z)[0]
    return float(pair_violations(channel, q[:, :, 0], q[:, :, 1]).max())
