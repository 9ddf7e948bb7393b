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


def reference_pair_violation_grad(frames, kraus):
    """The kernel's earlier body: both orderings of every product, norms slot by slot."""
    n, d, _ = kraus.shape
    s = frames.shape[0]
    flat = kraus.reshape(n * d, d)
    images = (flat @ frames).reshape(s, n, d, 2).transpose(0, 3, 1, 2)
    outs = images.swapaxes(-1, -2) @ images.conj()
    a_mat, b_mat = outs[:, 0], outs[:, 1]
    c_mat = a_mat @ b_mat - b_mat @ a_mat
    norm2 = (outs.real**2 + outs.imag**2).sum(axis=(-2, -1))
    c2 = (c_mat.real**2 + c_mat.imag**2).sum(axis=(-2, -1))
    ab = norm2[:, 0] * norm2[:, 1]
    f2 = c2 / ab
    x = np.empty_like(outs)
    x[:, 0] = c_mat @ b_mat - b_mat @ c_mat
    x[:, 1] = a_mat @ c_mat - c_mat @ a_mat
    x /= ab[:, None, None, None]
    x -= (f2[:, None] / norm2)[..., None, None] * outs
    y = x @ images.swapaxes(-1, -2)
    grad = y.swapaxes(-1, -2).reshape(s, 2, n * d) @ flat.conj()
    return np.sqrt(f2), 4 * grad.swapaxes(-1, -2)


@pytest.mark.parametrize("d", [2, 3, 4, 8])
class TestPairViolationGrad:
    def frames(self, d, rng, s=6):
        return np.stack([haar_unitary(d, rng)[:, :2] for _ in range(s)])

    def test_values_match_direct(self, d, rng):
        ch = random_cptp(d, rng)
        frames = self.frames(d, rng)
        f, grad = kernels.pair_violation_grad(frames, ch.ops)
        assert f.shape == (6,) and grad.shape == (6, d, 2)
        for w, v in zip(frames, f):
            direct = classify.pair_violation_direct(ch, w[:, 0], w[:, 1])
            assert v == pytest.approx(direct, abs=1e-12)

    def test_gradient_matches_central_differences(self, d, rng):
        # grad is the gradient of f^2 in the real and imaginary parts of
        # (phi, psi): d/dh f^2(W + h E) at h = 0 equals Re <E, grad>
        ch = random_cptp(d, rng)
        frames = self.frames(d, rng, s=3)
        _, grad = kernels.pair_violation_grad(frames, ch.ops)
        h = 1e-5
        for _ in range(4):
            e = rng.standard_normal((d, 2)) + 1j * rng.standard_normal((d, 2))
            fp, _ = kernels.pair_violation_grad(frames + h * e, ch.ops)
            fm, _ = kernels.pair_violation_grad(frames - h * e, ch.ops)
            numeric = (fp**2 - fm**2) / (2 * h)
            analytic = (e.conj() * grad).sum(axis=(-2, -1)).real
            assert np.abs(numeric - analytic).max() <= 1e-7 * (1 + np.abs(analytic).max())

    @pytest.mark.parametrize("off", [0.0, 1e-5], ids=["orthonormal", "off-manifold"])
    def test_matches_reference(self, d, off, rng):
        # off-manifold frames W + h E are what the central differences above feed it
        ch = random_cptp(d, rng)
        frames = self.frames(d, rng)
        e = rng.standard_normal(frames.shape) + 1j * rng.standard_normal(frames.shape)
        frames = frames + off * e
        f, grad = kernels.pair_violation_grad(frames, ch.ops)
        f_ref, grad_ref = reference_pair_violation_grad(frames, ch.ops)
        assert np.all(np.abs(f - f_ref) <= 1e-13 * f_ref)
        scale = np.abs(grad_ref).max(axis=(-2, -1))
        assert np.all(np.abs(grad - grad_ref).max(axis=(-2, -1)) <= 1e-13 * scale)
