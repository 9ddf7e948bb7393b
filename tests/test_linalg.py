import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import pair_defect, pairwise_worst_defect

from qcorr import linalg
from qcorr.sampling import haar_unitary, rng_from_seed

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def random_hermitian(d, rng):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return linalg.hermitian_part(g)


class TestCommutator:
    def test_diagonal_matrices_commute(self):
        c = linalg.commutator(np.diag([1.0, 2.0]), np.diag([3.0, 4.0]))
        assert np.abs(c).max() == 0

    def test_pauli_algebra(self):
        assert np.allclose(linalg.commutator(SX, SY), 2j * SZ)

    def test_shared_eigenbasis_pair_commutes(self):
        # independent spectra conjugated by one Haar basis must commute
        rng = rng_from_seed(3)
        for _ in range(20):
            u = haar_unitary(3, rng)
            a = (u * rng.standard_normal(3)) @ u.conj().T
            b = (u * rng.standard_normal(3)) @ u.conj().T
            assert linalg.frobenius(linalg.commutator(a, b)) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            linalg.commutator(np.eye(2), np.eye(3))

    @given(st.integers(0, 2**32 - 1), st.integers(2, 5))
    @settings(max_examples=25, deadline=None)
    def test_antisymmetry(self, seed, d):
        rng = np.random.default_rng(seed)
        a = random_hermitian(d, rng)
        b = random_hermitian(d, rng)
        assert np.array_equal(linalg.commutator(a, b), -linalg.commutator(b, a))


class TestHermitianEig:
    def test_diagonal(self):
        spec = linalg.hermitian_eig(np.diag([2.0, 1.0, 0.0]))
        assert np.allclose(spec.eigenvalues, [0.0, 1.0, 2.0])

    def test_pauli_x(self):
        spec = linalg.hermitian_eig(SX)
        assert np.allclose(spec.eigenvalues, [-1.0, 1.0])

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            linalg.hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_reconstruction_residual_bulk(self):
        # 10^4 random Hermitian matrices across d <= 8
        rng = rng_from_seed(11)
        worst = 0.0
        for i in range(10_000):
            d = 2 + i % 7
            h = random_hermitian(d, rng)
            spec = linalg.hermitian_eig(h)
            recon = (spec.eigenvectors * spec.eigenvalues) @ spec.eigenvectors.conj().T
            worst = max(worst, linalg.frobenius(recon - h) / (1 + linalg.frobenius(h)))
            assert np.all(np.diff(spec.eigenvalues) >= 0)
        assert worst <= 1e-10

    def test_unitary_eigenvectors(self, rng):
        for d in (2, 5, 8):
            spec = linalg.hermitian_eig(random_hermitian(d, rng))
            v = spec.eigenvectors
            assert linalg.frobenius(v.conj().T @ v - np.eye(d)) < 1e-12


class TestEntropy:
    def test_pure_state(self):
        assert linalg.von_neumann_entropy(np.diag([1.0, 0.0])) == 0.0

    def test_maximally_mixed_qutrit(self):
        assert linalg.von_neumann_entropy(np.eye(3) / 3) == pytest.approx(np.log2(3), abs=1e-12)

    def test_half_half(self):
        assert linalg.von_neumann_entropy(np.diag([0.5, 0.5, 0.0])) == pytest.approx(1.0, abs=1e-12)

    def test_range(self, rng):
        from qcorr.sampling import random_density

        for _ in range(50):
            s = linalg.von_neumann_entropy(random_density(4, rng).mat)
            assert -1e-12 <= s <= 2.0 + 1e-12

    def test_concavity_spot_check(self, rng):
        from qcorr.sampling import random_density

        for _ in range(100):
            a = random_density(3, rng).mat
            b = random_density(3, rng).mat
            mixed = linalg.von_neumann_entropy((a + b) / 2)
            avg = (linalg.von_neumann_entropy(a) + linalg.von_neumann_entropy(b)) / 2
            assert mixed >= avg - 1e-9

    @pytest.mark.parametrize("spectrum", [[np.nan, 1.0], [1.0, np.nan], [-1e-3, 1.0]])
    def test_nan_or_negative_spectrum_rejected(self, spectrum):
        # NaN fails "p.min() >= -SPECTRUM_ATOL" as a too negative eigenvalue does
        with pytest.raises(ValueError, match="eigenvalue"):
            linalg.von_neumann_entropy(np.array(spectrum))


JORDAN = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)


def random_family(n, d, rng):
    """A stack mixing commuting normal members, generic ones, zeros and Jordan-like ones."""
    u = haar_unitary(d, rng)
    out = []
    for _ in range(n):
        kind = rng.integers(4)
        if kind == 0:  # normal, diagonal in the shared basis u
            z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            out.append((u * z) @ u.conj().T)
        elif kind == 1:
            out.append(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        elif kind == 2:
            out.append(np.zeros((d, d), dtype=complex))
        else:  # nilpotent: far from normal
            out.append(np.triu(rng.standard_normal((d, d)), 1).astype(complex))
    return np.array(out)


class TestWorstCommutationDefect:
    def test_matches_pairwise_oracle(self):
        rng = rng_from_seed(21)
        for trial in range(200):
            n, d = int(rng.integers(1, 8)), int(rng.integers(1, 6))
            mats = random_family(n, d, rng)
            skip = (0.0, 1e-14)[trial % 2]
            worst, pair = linalg.worst_commutation_defect(mats, skip=skip)
            ref, ref_pair = pairwise_worst_defect(mats, skip=skip)
            assert worst == pytest.approx(ref, rel=1e-12, abs=1e-15)
            assert (pair is None) == (ref_pair is None)
            if pair is not None:
                # ties (e.g. adjoint pairs) may resolve to another maximal pair
                assert pair[0] <= pair[1]
                assert pair_defect(mats, pair) == pytest.approx(ref, rel=1e-12)

    def test_commuting_normal_family_is_zero(self, rng):
        u = haar_unitary(4, rng)
        mats = np.array([(u * (rng.standard_normal(4) + 1j * rng.standard_normal(4))) @ u.conj().T
                         for _ in range(6)])
        worst, _ = linalg.worst_commutation_defect(mats)
        assert worst < 1e-14

    def test_hermitian_is_normal(self, rng):
        assert linalg.worst_commutation_defect(random_hermitian(4, rng)[None]) == (0.0, None)

    def test_unitary_is_normal(self, rng):
        worst, _ = linalg.worst_commutation_defect(haar_unitary(4, rng)[None])
        assert worst < 1e-14

    def test_jordan_block_is_not_normal(self):
        worst, pair = linalg.worst_commutation_defect(np.array([JORDAN, np.eye(2)]))
        assert worst == pytest.approx(np.sqrt(2))
        assert pair == (0, 0)

    def test_pauli_pair_does_not_commute(self):
        worst, pair = linalg.worst_commutation_defect(np.array([SX, SZ, SY]), skip=1e-14)
        assert worst == pytest.approx(np.sqrt(2))
        assert pair == (0, 1)

    def test_zero_members_are_skipped(self):
        zero = np.zeros((2, 2), dtype=complex)
        assert linalg.worst_commutation_defect(np.array([zero, SX, zero])) == (0.0, None)
        assert linalg.worst_commutation_defect(np.array([zero, zero])) == (0.0, None)
        worst, pair = linalg.worst_commutation_defect(np.array([zero, SX, zero, SY]))
        assert pair == (1, 3)
        # members at or below skip are ignored, not divided by
        worst, pair = linalg.worst_commutation_defect(np.array([1e-15 * JORDAN, SX]), skip=1e-14)
        assert (worst, pair) == (0.0, None)

    def test_stop_returns_after_first_offending_row(self):
        mats = np.array([SX, SY, 2 * JORDAN, SZ])
        full, _ = linalg.worst_commutation_defect(mats)
        early, pair = linalg.worst_commutation_defect(mats, stop=1.0)
        assert pair[0] == 0 and early > 1.0
        assert early <= full

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_member_rejected(self, bad):
        # a NaN member's norm fails "norm > skip", so unchecked it would drop
        # out and the family would read as commuting
        member = SZ.copy()
        member[0, 1] = bad
        for mats in (np.array([SX, member]), np.array([member])):
            # checked before any norm, so no NumPy warning comes first
            with pytest.raises(ValueError, match="non-finite"):
                linalg.worst_commutation_defect(mats, skip=linalg.ZERO_MEMBER_ATOL)

    def test_rejects_non_stacks(self):
        with pytest.raises(ValueError, match="stack"):
            linalg.worst_commutation_defect(SX)
        with pytest.raises(ValueError, match="stack"):
            linalg.worst_commutation_defect(np.zeros((3, 2, 3)))


class TestSimultaneousDiagonalization:
    def test_diagonal_family(self):
        v = linalg.simultaneous_diagonalization([np.diag([1.0, 2.0]), np.diag([3.0, 3.0])])
        for m in (np.diag([1.0, 2.0]), np.diag([3.0, 3.0])):
            t = v.conj().T @ m @ v
            assert linalg.frobenius(t - np.diag(np.diag(t))) < 1e-10

    def test_recovers_common_basis(self, rng):
        for _ in range(10):
            u = haar_unitary(4, rng)
            mats = [(u * rng.standard_normal(4)) @ u.conj().T for _ in range(3)]
            v = linalg.simultaneous_diagonalization(mats)
            for m in mats:
                t = v.conj().T @ m @ v
                assert linalg.frobenius(t - np.diag(np.diag(t))) < 1e-9

    def test_commuting_normal_non_hermitian(self, rng):
        # normal (not Hermitian) family with a shared basis
        u = haar_unitary(3, rng)
        z1 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        z2 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        mats = [(u * z1) @ u.conj().T, (u * z2) @ u.conj().T]
        v = linalg.simultaneous_diagonalization(mats)
        for m in mats:
            t = v.conj().T @ m @ v
            assert linalg.frobenius(t - np.diag(np.diag(t))) < 1e-9

    def test_rejects_non_commuting(self):
        with pytest.raises(ValueError, match="not commuting"):
            linalg.simultaneous_diagonalization([SX, SY])

    def test_rejects_non_normal(self):
        j = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="non-normal"):
            linalg.simultaneous_diagonalization([j, np.eye(2)])

    def test_accepts_non_normal_member_within_bound(self):
        # the contract is the diagonal bound tol * (1 + ||M||_F), not a normality
        # check: a non-normal member smaller than tol is returned as diagonalized
        tol = linalg.COMMUTATOR_TOL
        j = np.array([[0.0, tol / 10], [0.0, 0.0]])
        v = linalg.simultaneous_diagonalization([j, np.diag([1.0, 2.0])])
        assert np.allclose(v.conj().T @ v, np.eye(2), atol=1e-12)
        for m in (j, np.diag([1.0, 2.0])):
            t = v.conj().T @ m @ v
            assert linalg.frobenius(t - np.diag(np.diag(t))) <= tol * (1 + linalg.frobenius(m))
        with pytest.raises(ValueError, match="non-normal"):
            linalg.simultaneous_diagonalization([j * 1e3, np.diag([1.0, 2.0])])


def unitarity_defect(stack):
    return np.abs(stack.conj().transpose(0, 2, 1) @ stack - np.eye(stack.shape[-1])).max()


class TestPolarFactors:
    """Polar factors of a stack: closed form at 2 x 2, one batched SVD above."""

    @pytest.mark.parametrize("d", [2, 3])
    def test_polar_factor_equals_svd(self, d):
        rng = rng_from_seed(41)
        g = rng.standard_normal((200, d, d)) + 1j * rng.standard_normal((200, d, d))
        w, _, vh = np.linalg.svd(g)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            polar = linalg.polar_factors(g)
        assert np.abs(polar - w @ vh).max() <= 1e-14
        assert unitarity_defect(polar) <= 1e-14

    def test_polar_factor_of_rank_one_and_zero(self):
        rng = rng_from_seed(42)
        x = rng.standard_normal((20, 2)) + 1j * rng.standard_normal((20, 2))
        y = rng.standard_normal((20, 2)) + 1j * rng.standard_normal((20, 2))
        g = np.concatenate([x[:, :, None] * y[:, None, :].conj(), np.zeros((1, 2, 2))])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            polar = linalg.polar_factors(g)
        assert unitarity_defect(polar) <= 1e-14
        # the null direction is free, but V still attains the top singular value
        sigma1 = np.linalg.norm(x, axis=1) * np.linalg.norm(y, axis=1)
        attained = np.einsum("kij,kij->k", polar[:-1].conj(), g[:-1]).real
        assert np.abs(attained - sigma1).max() <= 1e-14 * sigma1.max()
        assert np.array_equal(polar[-1], np.eye(2))


class TestTensorAndPartialTrace:
    def test_identity_tensor(self):
        assert np.array_equal(linalg.tensor(np.eye(2), np.eye(3)), np.eye(6))

    def test_block_structure(self):
        t = linalg.tensor(np.diag([1.0, 0.0]), SX)
        assert np.array_equal(t[:2, :2], SX)
        assert np.abs(t[2:, 2:]).max() == 0

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_trace_multiplicative(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert np.trace(linalg.tensor(a, b)) == pytest.approx(np.trace(a) * np.trace(b))

    def test_partial_trace_product(self, rng):
        from qcorr.sampling import random_density

        ra = random_density(2, rng).mat
        rb = random_density(3, rng).mat
        joint = linalg.tensor(ra, rb)
        assert np.allclose(linalg.partial_trace(joint, (2, 3), "a"), ra)
        assert np.allclose(linalg.partial_trace(joint, (2, 3), "b"), rb)

    def test_partial_trace_bell(self):
        from qcorr.channels import maximally_entangled_ket

        phi = maximally_entangled_ket(2)
        rho = np.outer(phi, phi.conj())
        assert np.allclose(linalg.partial_trace(rho, (2, 2), "a"), np.eye(2) / 2)
        assert np.allclose(linalg.partial_trace(rho, (2, 2), "b"), np.eye(2) / 2)

    def test_trace_preserved(self, rng):
        from qcorr.sampling import random_density

        rho = random_density(6, rng).mat
        assert np.trace(linalg.partial_trace(rho, (2, 3), "b")) == pytest.approx(1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            linalg.partial_trace(np.eye(5), (2, 3), "a")
