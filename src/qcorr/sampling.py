"""Seeded random generators for states, unitaries, and channels.

Measures: unitaries are Haar (Ginibre + QR with the R-diagonal phase fix),
density matrices are trace-normalized Wishart GG^dag (Hilbert-Schmidt when
rank = d), channels come from Haar-random Stinespring isometries.  Reports
quote these names since nothing canonical is prescribed.

A sampler that needs n orthonormal columns (a Stinespring isometry, a pair
frame, a partial basis) takes a Haar isometry: the same normals a Haar
unitary draws, with only the n columns in use QR-factored.  Wishart states
are PSD by construction, so they are trace-normalized without the
eigendecomposition that validates user input (DensityMatrix.from_psd).

Reproducibility contract: generators are counter-based (Philox) and seeded
through SeedSequence, so a 64-bit master seed determines every artifact.
Parallel work splits the master seed by task index with the documented rule
substream(seed, i) = Philox(SeedSequence(entropy=seed, spawn_key=(i,)));
results are then independent of worker count or execution order.
"""

from __future__ import annotations

import numpy as np

from . import channels as ch
from . import linalg
from .states import BipartiteState, DensityMatrix, make_half_classical


def rng_from_seed(seed: int) -> np.random.Generator:
    """Master generator for a 64-bit seed."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def substream(seed: int, index: int) -> np.random.Generator:
    """Independent generator number `index` derived from the master seed."""
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))
    )


def ginibre(d: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """d x k matrix of standard complex Gaussians."""
    return (rng.standard_normal((d, k)) + 1j * rng.standard_normal((d, k))) / np.sqrt(2)


def haar_isometries(d: int, n: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """k Haar-distributed d x n isometries as a (k, d, n) stack, from one stacked QR.

    The normals are drawn as one (k, 2, d, d) array, real then imaginary
    part per matrix, which is the order in which k haar_unitary calls draw
    them, so rng ends in the same state.  Only the n leading Ginibre
    columns are QR-factored: Householder QR makes column j of Q from
    columns 0..j alone, so each isometry is the first n columns of the
    unitary that haar_unitaries(d, k, rng) returns.  tests/test_sampling.py
    pins that bit for bit on the shapes the library draws, against a full
    QR run on one BLAS thread: from 125 rows on, OpenBLAS rounds a threaded
    full QR differently, while this thin QR gives the same bits either way.
    """
    if not 1 <= n <= d:
        raise ValueError(f"isometry width must be in [1, {d}], got {n}")
    z = rng.standard_normal((k, 2, d, d))[..., :n]
    q, r = np.linalg.qr((z[:, 0] + 1j * z[:, 1]) / np.sqrt(2))
    ph = np.diagonal(r, axis1=1, axis2=2).copy()
    ph /= np.abs(ph)
    return q * ph[:, None, :]


def haar_unitaries(d: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """k Haar-distributed unitaries as a (k, d, d) stack: haar_isometries with n = d.

    The stack equals k haar_unitary calls bit for bit and leaves rng in the
    same state.
    """
    return haar_isometries(d, d, k, rng)


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary: QR of a Ginibre matrix with phases fixed."""
    return haar_unitaries(d, 1, rng)[0]


def random_ket(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-uniform pure state."""
    v = ginibre(d, 1, rng).reshape(-1)
    return v / np.linalg.norm(v)


def random_density(d: int, rng: np.random.Generator, rank: int | None = None) -> DensityMatrix:
    """GG^dag / Tr(GG^dag) with G a d x rank Ginibre matrix (rank defaults to d)."""
    rank = d if rank is None else rank
    if not 1 <= rank <= d:
        raise ValueError(f"rank must be in [1, {d}]")
    g = ginibre(d, rank, rng)
    w = g @ g.conj().T
    return DensityMatrix.from_psd(w / np.real(np.trace(w)))


def random_cptp(d: int, rng: np.random.Generator, env_dim: int | None = None) -> ch.KrausChannel:
    """Channel from a Haar-random Stinespring isometry V: in -> env (x) out.

    Kraus operators E_i = (<i|_env (x) I) V; env_dim defaults to d^2, which
    makes the Choi rank generically full.
    """
    env = d * d if env_dim is None else env_dim
    if env < 1:
        raise ValueError("env_dim must be >= 1")
    ops = haar_isometries(env * d, d, 1, rng)[0].reshape(env, d, d)
    return ch.KrausChannel(ops, kind="random_cptp", params={"env_dim": env})


def random_commuting_pair(
    d: int, rng: np.random.Generator
) -> tuple[DensityMatrix, DensityMatrix]:
    """Two density matrices with a shared Haar eigenbasis and independent spectra."""
    u = haar_unitary(d, rng)
    out = []
    for _ in range(2):
        spec = rng.dirichlet(np.ones(d))
        out.append(DensityMatrix(linalg.hermitian_part((u * spec) @ u.conj().T)))
    return out[0], out[1]


def random_orthogonal_pure_pair(
    d: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Two orthonormal kets (the columns of a d x 2 Haar isometry)."""
    if d < 2:
        raise ValueError("need dimension >= 2 for an orthogonal pair")
    v = haar_isometries(d, 2, 1, rng)[0]
    return v[:, 0].copy(), v[:, 1].copy()


def random_probability(
    n: int, rng: np.random.Generator, min_weight: float = 0.0
) -> np.ndarray:
    """Flat-Dirichlet probability vector, rejection-sampled to min(w) >= min_weight."""
    if min_weight * n >= 1.0:
        raise ValueError("min_weight too large for the requested length")
    while True:
        w = rng.dirichlet(np.ones(n))
        if w.min() >= min_weight:
            return w


def random_povm(d: int, n: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Random n-element POVM: Wishart blocks whitened to sum to the identity."""
    gs = [ginibre(d, d, rng) for _ in range(n)]
    raw = [g @ g.conj().T for g in gs]
    total = sum(raw)
    spec = linalg.hermitian_eig(total)
    inv_sqrt = (spec.eigenvectors / np.sqrt(spec.eigenvalues)) @ spec.eigenvectors.conj().T
    return [linalg.hermitian_part(inv_sqrt @ f @ inv_sqrt) for f in raw]


def random_completely_decohering(d: int, rng: np.random.Generator) -> ch.KrausChannel:
    """Completely decohering channel with a Haar basis and a random POVM."""
    return ch.completely_decohering(haar_unitary(d, rng), random_povm(d, d, rng))


def random_isotropic(
    d: int,
    rng: np.random.Generator,
    gamma: str | None = None,
    margin: float = 0.02,
) -> ch.KrausChannel:
    """Isotropic channel with Haar Gamma-unitary and p uniform in the CP range.

    margin shrinks the interval away from the positivity boundaries so the
    Kraus extraction stays comfortably inside PSD territory.
    """
    if gamma is None:
        gamma = "unitary" if rng.integers(2) == 0 else "transpose"
    lo, hi = ch.isotropic_p_range(d, gamma)
    width = hi - lo
    p = float(rng.uniform(lo + margin * width, hi - margin * width))
    return ch.isotropic(d, p, gamma=gamma, u=haar_unitary(d, rng))


def random_unital_mixture(
    d: int,
    rng: np.random.Generator,
    n_unitaries: int = 2,
    min_weight: float = 0.1,
) -> ch.KrausChannel:
    """Mixture of >= 2 independent Haar unitaries with non-degenerate weights."""
    if n_unitaries < 2:
        raise ValueError("a generic mixture needs at least two unitaries")
    w = random_probability(n_unitaries, rng, min_weight=min_weight)
    return ch.unital_mixture(w, haar_unitaries(d, n_unitaries, rng))


def random_block_unitary_mixture(
    d: int, rng: np.random.Generator, n_blocks: int = 2, min_weight: float = 0.1
) -> ch.KrausChannel:
    """Top-state-fixing block mixture with Haar unitaries on the lower block."""
    if d < 3:
        raise ValueError("block mixtures need dimension >= 3")
    w = random_probability(n_blocks, rng, min_weight=min_weight)
    return ch.block_unitary_mixture(np.sqrt(w), haar_unitaries(d - 1, n_blocks, rng))


def random_half_classical(
    dim_a: int, dim_b: int, rng: np.random.Generator, n_terms: int | None = None
) -> BipartiteState:
    """Random classical-on-B state: random weights, A-states, and Haar B basis."""
    n = dim_b if n_terms is None else n_terms
    weights = rng.dirichlet(np.ones(n))
    cond_a = [random_density(dim_a, rng) for _ in range(n)]
    basis = haar_isometries(dim_b, n, 1, rng)[0]
    return make_half_classical(weights, cond_a, basis)


def random_bipartite(dim_a: int, dim_b: int, rng: np.random.Generator) -> BipartiteState:
    """Hilbert-Schmidt random state on A (x) B."""
    return BipartiteState(dim_a, dim_b, random_density(dim_a * dim_b, rng))
