"""The NumPy kernels: their contracts, and agreement with independent reference paths."""

import numpy as np
import pytest

from qcorr import classify, kernels, linalg
from qcorr.sampling import haar_unitary, random_cptp, random_density
from qcorr.states import BipartiteState


def random_hermitian(d, rng):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (g + g.conj().T) / 2


class TestActiveBackend:
    def test_name_reported(self):
        assert kernels.backend_name == "python"

    def test_eigh_contract(self, rng):
        for d in (2, 3, 8):
            h = random_hermitian(d, rng)
            w, v = kernels.eigh(h)
            assert np.all(np.diff(w) >= 0)
            assert linalg.frobenius((v * w) @ v.conj().T - h) < 1e-12 * (1 + linalg.frobenius(h))

    def test_expi_unitary(self, rng):
        h = random_hermitian(4, rng)
        u = np.asarray(kernels.expi_hermitian(h))
        assert linalg.frobenius(u.conj().T @ u - np.eye(4)) < 1e-12


@pytest.mark.parametrize("d", [2, 3, 4])
class TestReferencePaths:
    def test_pair_violation(self, d, rng):
        ch = random_cptp(d, rng)
        u0 = haar_unitary(d, rng)
        for _ in range(10):
            theta = rng.standard_normal(d * d)
            direct = classify.pair_violation_direct(ch, *classify.pair_from_coords(theta, u0))
            assert kernels.pair_violation(theta, u0, ch.ops) == pytest.approx(direct, abs=1e-12)

    def test_entangled_overlap(self, d, rng):
        state = BipartiteState(d, d, random_density(d * d, rng))
        u0 = haar_unitary(d, rng)
        for _ in range(10):
            theta = rng.standard_normal(d * d)
            u = u0 @ kernels.expi_hermitian(kernels.unpack_hermitian(theta, d))
            direct = classify.entangled_overlap_direct(state, u)
            assert kernels.entangled_overlap(theta, u0, state.mat) == pytest.approx(
                direct, abs=1e-12
            )

    def test_apply_kraus(self, d, rng):
        ch = random_cptp(d, rng)
        m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        explicit = sum(e @ m @ e.conj().T for e in ch.ops)
        assert np.abs(kernels.apply_kraus(ch.ops, m) - explicit).max() < 1e-12
