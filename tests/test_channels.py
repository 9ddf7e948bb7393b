import numpy as np
import pytest

from qcorr import channels as chn
from qcorr import linalg
from qcorr.sampling import (
    haar_unitary,
    random_cptp,
    random_density,
    random_half_classical,
    rng_from_seed,
)
from qcorr.states import (
    BipartiteState,
    DensityMatrix,
    block_decompose,
    check_orthonormal,
    is_classical_on_b,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def rotation2(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s], [s, c]], dtype=complex)


def example_block_channel() -> chn.KrausChannel:
    e = np.array([1.0, 1.0]) / np.sqrt(2)
    return chn.block_unitary_mixture(e, [np.eye(2), rotation2(np.pi / 4)])


class TestValidation:
    def test_identity_valid(self):
        ch = chn.KrausChannel([np.eye(2)])
        assert ch.dim == 2

    def test_subnormalized_rejected(self):
        with pytest.raises(ValueError, match="trace preserving"):
            chn.KrausChannel([SX / np.sqrt(2)])

    def test_every_accepted_unitary_is_a_channel(self):
        # max |U^dag U - I| = 6e-10 passes check_orthonormal; the Frobenius
        # residual, 1.7e-9, is above TP_ATOL, so only the entrywise check accepts it
        u = haar_unitary(8, rng_from_seed(1)) * (1 + 3e-10)
        check_orthonormal(u)
        assert np.linalg.norm(u.conj().T @ u - np.eye(8)) > chn.TP_ATOL
        assert chn.unitary_channel(u).dim == 8

    def test_random_sampler_consistent(self, rng):
        for d in (2, 3, 4):
            ch = random_cptp(d, rng)
            chn.KrausChannel(list(ch.ops))

    def test_trace_preserved_on_samples(self, rng):
        ch = random_cptp(3, rng)
        for _ in range(20):
            out = ch.apply(random_density(3, rng))
            assert np.trace(out.mat) == pytest.approx(1.0, abs=1e-10)


class TestApply:
    def test_identity(self, rng):
        rho = random_density(3, rng)
        out = chn.identity_channel(3).apply(rho)
        assert np.allclose(out.mat, rho.mat)

    def test_depolarizing_p0(self, rng):
        ch = chn.depolarizing(2, 0.0)
        out = ch.apply(random_density(2, rng))
        assert np.allclose(out.mat, np.eye(2) / 2, atol=1e-12)

    def test_block_channel_fixes_top_level(self):
        ch = example_block_channel()
        e2 = np.zeros(3)
        e2[2] = 1.0
        out = ch.apply(DensityMatrix.pure(e2))
        assert np.allclose(out.mat, np.outer(e2, e2), atol=1e-12)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValueError):
            chn.identity_channel(2).apply(random_density(3, rng))

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_unit_images_match_apply_matrix(self, d, rng):
        ch = random_cptp(d, rng)
        images = ch.unit_images()
        assert images.shape == (d, d, d, d)
        for i in range(d):
            for j in range(d):
                e = np.zeros((d, d), dtype=complex)
                e[i, j] = 1.0
                assert linalg.frobenius(images[i, j] - ch.apply_matrix(e)) < 1e-12

    def test_unit_images_built_once_and_read_only(self, rng):
        ch = random_cptp(3, rng)
        images = ch.unit_images()
        assert ch.unit_images() is images
        with pytest.raises(ValueError, match="read-only"):
            images[0, 0, 0, 0] = 1.0


class TestApplyLocalB:
    def test_identity(self, rng):
        from qcorr.sampling import random_bipartite

        st = random_bipartite(2, 3, rng)
        out = chn.identity_channel(3).apply_local_b(st)
        assert np.allclose(out.mat, st.mat)

    def test_product_state(self, rng):
        ra = random_density(2, rng)
        rb = random_density(3, rng)
        ch = random_cptp(3, rng)
        st = BipartiteState(2, 3, DensityMatrix(linalg.tensor(ra.mat, rb.mat)))
        out = ch.apply_local_b(st)
        assert np.allclose(out.mat, linalg.tensor(ra.mat, ch.apply(rb).mat), atol=1e-12)

    def test_blockwise_application(self, rng):
        # joint Kraus application must equal acting on each B block
        st = random_half_classical(2, 3, rng)
        ch = random_cptp(3, rng)
        out = ch.apply_local_b(st)
        in_blocks = block_decompose(st)
        out_blocks = block_decompose(out)
        for k in range(2):
            for l in range(2):
                assert np.allclose(out_blocks[k, l], ch.apply_matrix(in_blocks[k, l]), atol=1e-12)


class TestAdjoint:
    def test_unitary_adjoint(self, rng):
        u = haar_unitary(3, rng)
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        out = chn.unitary_channel(u).apply_adjoint(m)
        assert np.allclose(out, u.conj().T @ m @ u, atol=1e-12)

    def test_adjoint_of_unital_is_tp_and_unital(self, rng):
        # the daggered Kraus list of a unital channel passes the TP check
        w = np.array([0.3, 0.7])
        ch = chn.unital_mixture(w, [haar_unitary(3, rng) for _ in range(2)])
        adj = chn.KrausChannel(ch.ops.conj().transpose(0, 2, 1))
        d = ch.dim
        tp = np.einsum("kji,kjl->il", adj.ops.conj(), adj.ops)
        assert linalg.frobenius(tp - np.eye(d)) < 1e-12
        assert linalg.frobenius(adj.apply_matrix(np.eye(d)) - np.eye(d)) < 1e-12
        rho = random_density(d, rng).mat
        assert np.array_equal(adj.apply_matrix(rho), ch.apply_adjoint(rho))

    def test_adjoint_kraus_of_non_unital_rejected(self, rng):
        for d in (2, 3, 4):
            ch = random_cptp(d, rng)
            with pytest.raises(ValueError, match="not trace preserving"):
                chn.KrausChannel(ch.ops.conj().transpose(0, 2, 1))

    def test_duality_identity(self, rng):
        ch = random_cptp(3, rng)
        for _ in range(100):
            a = random_density(3, rng).mat
            b = random_density(3, rng).mat
            lhs = np.trace(a @ ch.apply_matrix(b))
            rhs = np.trace(ch.apply_adjoint(a) @ b)
            assert abs(lhs - rhs) < 1e-12

    def test_stack_equals_sum_and_keeps_true_trace(self):
        rng = rng_from_seed(3)
        ch = random_cptp(3, rng)
        stack = np.stack([random_density(3, rng).mat for _ in range(6)])
        out = ch.apply_adjoint(stack)
        assert out.shape == (6, 3, 3)
        for m, o in zip(stack, out):
            ref = sum(e.conj().T @ m @ e for e in ch.ops)
            assert np.allclose(o, ref, atol=1e-14)
            # L* is not trace preserving: its image is not renormalized
            assert abs(np.trace(o) - np.trace(ref)) < 1e-14
            assert abs(np.trace(o) - 1.0) > 1e-3
        b = random_density(3, rng).mat
        lhs = np.trace(stack @ ch.apply_matrix(b), axis1=-2, axis2=-1)
        rhs = np.trace(out @ b, axis1=-2, axis2=-1)
        assert np.abs(lhs - rhs).max() < 1e-12

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError, match="3 x 3"):
            chn.identity_channel(3).apply_adjoint(np.eye(2))


class TestChoi:
    def test_identity_channel_choi_is_max_entangled(self):
        j = chn.choi_matrix(chn.identity_channel(3))
        phi = chn.maximally_entangled_ket(3)
        assert np.allclose(j, np.outer(phi, phi.conj()), atol=1e-12)

    def test_full_depolarizing_choi(self):
        j = chn.choi_matrix(chn.depolarizing(2, 0.0))
        assert np.allclose(j, np.eye(4) / 4, atol=1e-12)

    def test_output_marginal_is_maximally_mixed(self, rng):
        ch = random_cptp(3, rng)
        j = chn.choi_matrix(ch)
        assert np.trace(j) == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(linalg.partial_trace(j, (3, 3), "b"), np.eye(3) / 3, atol=1e-9)

    def test_round_trip_action(self, rng):
        for d in (2, 3):
            ch = random_cptp(d, rng)
            back = chn.kraus_from_choi(chn.choi_matrix(ch))
            assert chn.channel_action_distance(ch, back) < 1e-9

    def test_non_psd_rejected(self):
        j = np.diag([0.5, 0.6, -0.1, 0.0])
        with pytest.raises(ValueError, match="eigenvalue"):
            chn.kraus_from_choi(j)


class TestIsotropic:
    def test_unitary_case_cp_range(self):
        # complete positivity cuts the unitary family at -1/(d^2-1)
        lo, hi = chn.isotropic_p_range(3, "unitary")
        assert lo == pytest.approx(-1 / 8)
        assert hi == 1.0
        chn.isotropic(3, lo + 1e-6, "unitary")
        with pytest.raises(ValueError, match="completely positive"):
            chn.isotropic(3, lo - 1e-3, "unitary")

    def test_transpose_case_cp_range(self):
        lo, hi = chn.isotropic_p_range(3, "transpose")
        assert lo == pytest.approx(-0.5)
        assert hi == pytest.approx(0.25)
        chn.isotropic(3, 0.25, "transpose")
        with pytest.raises(ValueError, match="completely positive"):
            chn.isotropic(3, 0.26, "transpose")

    def test_p_one_identity_gamma(self, rng):
        ch = chn.isotropic(3, 1.0, "unitary", None)
        rho = random_density(3, rng)
        assert np.allclose(ch.apply(rho).mat, rho.mat, atol=1e-10)

    def test_action_matches_formula(self, rng):
        u = haar_unitary(3, rng)
        for gamma in ("unitary", "transpose"):
            p = 0.35 if gamma == "unitary" else 0.2
            ch = chn.isotropic(3, p, gamma, u)
            rho = random_density(3, rng).mat
            direct = u @ (rho if gamma == "unitary" else rho.T) @ u.conj().T
            expected = p * direct + (1 - p) * np.eye(3) / 3
            assert np.allclose(ch.apply_matrix(rho), expected, atol=1e-10)

    def test_boundaries_by_bisection(self, rng):
        for d in (2, 3, 4):
            u = haar_unitary(d, rng)
            assert chn.isotropic_boundary(d, "transpose", "lower", u) == pytest.approx(-1 / (d - 1), abs=1e-8)
            assert chn.isotropic_boundary(d, "transpose", "upper", u) == pytest.approx(1 / (d + 1), abs=1e-8)
            assert chn.isotropic_boundary(d, "unitary", "upper", u) == pytest.approx(1.0, abs=1e-8)
            assert chn.isotropic_boundary(d, "unitary", "lower", u) == pytest.approx(-1 / (d * d - 1), abs=1e-8)

    @pytest.mark.parametrize("tol", [float("nan"), 0.0, -1e-12])
    def test_boundary_rejects_malformed_tolerance(self, tol):
        with pytest.raises(ValueError, match="tol must be finite"):
            chn.isotropic_boundary(2, "unitary", "lower", tol=tol)

    def test_boundary_tolerance_below_float_spacing(self):
        # the bisection stops once the midpoint rounds to an endpoint
        assert chn.isotropic_boundary(2, "unitary", "lower", tol=1e-300) == pytest.approx(-1 / 3, abs=1e-15)

    def test_commutator_scaling(self, rng):
        # [L(x), L(y)] = p^2 Gamma-image of [x, y] for the unitary case
        u = haar_unitary(3, rng)
        p = -0.1
        ch = chn.isotropic(3, p, "unitary", u)
        for _ in range(20):
            x = random_density(3, rng).mat
            y = random_density(3, rng).mat
            out = linalg.frobenius(linalg.commutator(ch.apply_matrix(x), ch.apply_matrix(y)))
            ref = p * p * linalg.frobenius(linalg.commutator(x, y))
            assert out == pytest.approx(ref, abs=1e-9)


class TestCompletelyDecohering:
    def test_full_dephasing(self, rng):
        ch = chn.completely_decohering(np.eye(2), [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
        rho = random_density(2, rng).mat
        assert np.allclose(ch.apply_matrix(rho), np.diag(np.diag(rho)), atol=1e-12)

    def test_outputs_diagonal_in_basis(self, rng):
        from qcorr.sampling import random_povm

        basis = haar_unitary(3, rng)
        ch = chn.completely_decohering(basis, random_povm(3, 3, rng))
        for _ in range(5):
            out = ch.apply(random_density(3, rng)).mat
            t = basis.conj().T @ out @ basis
            assert linalg.frobenius(t - np.diag(np.diag(t))) < 1e-10

    def test_outputs_pairwise_commute(self, rng):
        from qcorr.sampling import random_completely_decohering

        ch = random_completely_decohering(3, rng)
        outs = [ch.apply(random_density(3, rng)).mat for _ in range(9)]
        for i, a in enumerate(outs):
            for b in outs[i + 1 :]:
                assert linalg.frobenius(linalg.commutator(a, b)) < 1e-10

    def test_invalid_povm_rejected(self):
        with pytest.raises(ValueError, match="sum"):
            chn.completely_decohering(np.eye(2), [np.diag([1.0, 0.0]), np.diag([0.0, 0.5])])


class TestUnitalMixture:
    def test_single_unitary(self, rng):
        u = haar_unitary(2, rng)
        ch = chn.unital_mixture([1.0], [u])
        rho = random_density(2, rng).mat
        assert np.allclose(ch.apply_matrix(rho), u @ rho @ u.conj().T)

    def test_phase_flip(self, rng):
        ch = chn.unital_mixture([0.5, 0.5], [np.eye(2), SZ])
        assert linalg.frobenius(ch.apply_matrix(np.eye(2)) - np.eye(2)) < 1e-12
        rho = random_density(2, rng).mat
        out = ch.apply_matrix(rho)
        assert out[0, 1] == pytest.approx(0.0, abs=1e-12)

    def test_entropy_never_decreases_qutrit(self):
        rng = rng_from_seed(57)
        ch = chn.unital_mixture(
            [0.4, 0.35, 0.25], [haar_unitary(3, rng) for _ in range(3)]
        )
        for _ in range(1000):
            rho = random_density(3, rng)
            assert ch.apply(rho).entropy() >= rho.entropy() - 1e-9

    def test_invalid_weights(self, rng):
        with pytest.raises(ValueError, match="probability"):
            chn.unital_mixture([0.6, 0.6], [haar_unitary(2, rng)] * 2)

    def test_tiny_negative_weight_clipped(self):
        ch = chn.unital_mixture([-1e-13, 1 + 1e-13], [np.eye(2), SZ])
        assert np.array_equal(ch.ops[0], np.zeros((2, 2)))
        assert np.array_equal(ch.params["weights"], [0.0, 1 + 1e-13])

    def test_nan_weights(self):
        with pytest.raises(ValueError, match="weights.*probability"):
            chn.unital_mixture([np.nan, 0.5], [np.eye(2), SZ])


class TestBlockUnitaryMixture:
    def test_unital_and_tp(self, rng):
        for _ in range(5):
            e = np.sqrt(rng.dirichlet(np.ones(3)))
            ch = chn.block_unitary_mixture(e, [haar_unitary(2, rng) for _ in range(3)])
            assert linalg.frobenius(ch.apply_matrix(np.eye(3)) - np.eye(3)) < 1e-10
            assert linalg.frobenius(ch.apply_adjoint(np.eye(3)) - np.eye(3)) < 1e-10

    def test_single_identity_block_dephases_block_vs_top(self, rng):
        ch = chn.block_unitary_mixture([1.0], [np.eye(2)])
        rho = random_density(3, rng).mat
        out = ch.apply_matrix(rho)
        assert np.allclose(out[:2, :2], rho[:2, :2], atol=1e-12)
        assert out[2, 2] == pytest.approx(rho[2, 2])
        assert np.abs(out[2, :2]).max() < 1e-12

    def test_weight_normalization_enforced(self, rng):
        with pytest.raises(ValueError, match="squares"):
            chn.block_unitary_mixture([0.9, 0.9], [np.eye(2), haar_unitary(2, rng)])

    def test_nan_weights(self):
        with pytest.raises(ValueError, match="weights.*probability"):
            chn.block_unitary_mixture([np.nan, 0.5], [np.eye(2), np.eye(2)])


class TestHalfClassicalPreservation:
    def test_isotropic_preserves_classicality(self, rng):
        from qcorr.sampling import random_isotropic

        for _ in range(5):
            ch = random_isotropic(3, rng)
            st = random_half_classical(2, 3, rng)
            out = ch.apply_local_b(st)
            assert is_classical_on_b(out).quantumness < 1e-9

    def test_decohering_preserves_classicality(self, rng):
        from qcorr.sampling import random_completely_decohering

        for _ in range(5):
            ch = random_completely_decohering(3, rng)
            st = random_half_classical(2, 3, rng)
            out = ch.apply_local_b(st)
            assert is_classical_on_b(out).quantumness < 1e-9
