import numpy as np
import pytest
from helpers import (
    GRID_ORACLE_THRESHOLD,
    grid_min_disturbance,
    grid_oracle_is_classical,
    pair_defect,
    pairwise_worst_defect,
)

from qcorr import linalg
from qcorr.channels import maximally_entangled_ket
from qcorr.sampling import (
    haar_unitary,
    random_bipartite,
    random_density,
    random_half_classical,
    rng_from_seed,
)
from qcorr.states import (
    CLASSICALITY_TOL,
    ORTHONORMAL_ATOL,
    BipartiteState,
    DensityMatrix,
    block_decompose,
    check_tolerance,
    is_classical_on_b,
    make_half_classical,
    measure_and_dephase,
    reassemble_blocks,
)

E0 = np.array([1.0, 0.0])
E1 = np.array([0.0, 1.0])
PLUS = np.array([1.0, 1.0]) / np.sqrt(2)


def bell_state() -> BipartiteState:
    return BipartiteState(2, 2, DensityMatrix.pure(maximally_entangled_ket(2)))


def common_basis(st: BipartiteState) -> np.ndarray:
    """The B basis that diagonalizes every block of a classical-on-B state."""
    db = st.dim_b
    return linalg.simultaneous_diagonalization(block_decompose(st).reshape(-1, db, db))


class TestDensityMatrix:
    def test_trace_enforced(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.eye(2))

    def test_hermiticity_enforced(self):
        m = np.array([[0.5, 0.3], [0.0, 0.5]])
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(m)

    def test_small_negative_eigenvalue_clamped(self):
        eps = 5e-11
        m = np.diag([1.0 + eps, -eps])
        rho = DensityMatrix(m)
        w = rho.spectrum().eigenvalues
        assert w[0] >= 0
        assert np.trace(rho.mat) == pytest.approx(1.0, abs=1e-14)

    def test_large_negative_eigenvalue_rejected(self):
        m = np.diag([1.0 + 1e-3, -1e-3])
        with pytest.raises(ValueError, match="eigenvalue"):
            DensityMatrix(m)

    def test_pure_rejects_nan_ket(self):
        with pytest.raises(ValueError, match="normalized"):
            DensityMatrix.pure(np.array([1.0, np.nan]))

    def test_pure_and_mixed_entropy(self):
        assert DensityMatrix.pure(E0).entropy() == 0.0
        assert DensityMatrix.maximally_mixed(4).entropy() == pytest.approx(2.0)


class TestCheckTolerance:
    @pytest.mark.parametrize("tol", [float("nan"), 0.0, -1e-12, float("inf"), -float("inf")])
    def test_rejects_malformed(self, tol):
        with pytest.raises(ValueError, match="tol must be finite and positive"):
            check_tolerance(tol)

    @pytest.mark.parametrize("tol", [5e-324, 1e-7, 1e308])
    def test_accepts_finite_positive(self, tol):
        assert check_tolerance(tol) == tol


class TestMakeHalfClassical:
    def test_single_term_product(self):
        st = make_half_classical([1.0], [DensityMatrix.pure(E0)], np.array([[1.0], [0.0]]))
        expected = np.zeros((4, 4))
        expected[0, 0] = 1.0
        assert np.allclose(st.mat, expected)

    def test_classically_correlated(self):
        st = make_half_classical(
            [0.5, 0.5],
            [DensityMatrix.pure(E0), DensityMatrix.pure(E1)],
            np.eye(2),
        )
        rep = is_classical_on_b(st)
        assert rep.is_classical_on_b
        assert rep.quantumness <= 1e-14

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError, match="weights"):
            make_half_classical([0.7, 0.7], [DensityMatrix.pure(E0)] * 2, np.eye(2))

    def test_rejects_non_orthonormal_basis(self):
        basis = np.column_stack([E0, PLUS])
        with pytest.raises(ValueError, match="orthonormal"):
            make_half_classical([0.5, 0.5], [DensityMatrix.pure(E0)] * 2, basis)

    def test_rejects_nan_weights(self):
        with pytest.raises(ValueError, match="weights"):
            make_half_classical([np.nan, 0.5], [DensityMatrix.pure(E0)] * 2, np.eye(2))

    def test_rejects_nan_basis(self):
        basis = np.eye(2)
        basis[1, 1] = np.nan
        with pytest.raises(ValueError, match="orthonormal"):
            make_half_classical([0.5, 0.5], [DensityMatrix.pure(E0)] * 2, basis)

    @pytest.mark.parametrize("da, db, terms", [(2, 3, 2), (3, 4, 4), (1, 2, 1)])
    def test_matches_kron_sum(self, da, db, terms):
        # reference: sum_i p_i rho_i (x) |b_i><b_i| term by term with np.kron
        rng = rng_from_seed(60 + 10 * da + db)
        p = rng.dirichlet(np.ones(terms))
        rhos = [random_density(da, rng) for _ in range(terms)]
        # raw arrays and DensityMatrix objects mixed
        cond = [r.mat.copy() if i % 2 else r for i, r in enumerate(rhos)]
        basis = haar_unitary(db, rng)[:, :terms]
        ref = sum(
            pi * np.kron(r.mat, np.outer(b, b.conj())) for pi, r, b in zip(p, rhos, basis.T)
        )
        st = make_half_classical(p, cond, basis)
        assert (st.dim_a, st.dim_b) == (da, db)
        assert np.max(np.abs(st.mat - ref)) <= 1e-14

    @staticmethod
    def validated_construction(p, cond, basis) -> DensityMatrix:
        # the joint state passed through the validating constructor (one eigh)
        mats = np.stack([r.mat for r in cond])
        joint = np.einsum("i,ikl,ai,bi->kalb", p, mats, basis, basis.conj())
        n = cond[0].dim * basis.shape[0]
        return DensityMatrix(joint.reshape(n, n))

    @pytest.mark.parametrize("da, db", [(1, 2), (2, 2), (2, 3), (3, 4), (4, 2)])
    def test_full_rank_equals_validated_construction(self, da, db):
        rng = rng_from_seed(80 + 10 * da + db)
        for _ in range(20):
            p = rng.dirichlet(np.ones(db))
            cond = [random_density(da, rng) for _ in range(db)]
            basis = haar_unitary(db, rng)
            ref = self.validated_construction(p, cond, basis)
            assert ref.spectrum().eigenvalues[0] > 0
            assert np.array_equal(make_half_classical(p, cond, basis).mat, ref.mat)

    @pytest.mark.parametrize("da, db, terms", [(2, 2, 2), (2, 3, 2), (3, 4, 3), (2, 8, 2)])
    def test_rank_deficient_within_rounding_of_validated_construction(self, da, db, terms):
        rng = rng_from_seed(90 + 10 * da + db)
        for _ in range(20):
            p = rng.dirichlet(np.ones(terms))
            cond = [random_density(da, rng, rank=1) for _ in range(terms)]
            basis = haar_unitary(db, rng)[:, :terms]
            st = make_half_classical(p, cond, basis)
            ref = self.validated_construction(p, cond, basis)
            assert np.abs(st.mat - ref.mat).max() <= 1e-15
            assert st.joint.spectrum().eigenvalues[0] >= -1e-15

    @staticmethod
    def edge_basis(db: int, n: int, rng) -> np.ndarray:
        # n columns on B with Gram matrix I + delta, every |delta| entry just
        # below ORTHONORMAL_ATOL: off-diagonal overlaps at the edge with
        # random phases, diagonal norms off by up to the edge
        target = ORTHONORMAL_ATOL * (1 - 1e-3)
        delta = np.triu(target * np.exp(2j * np.pi * rng.random((n, n))), 1)
        delta += delta.conj().T + np.diag(rng.uniform(-target, target, n))
        w, v = np.linalg.eigh(np.eye(n) + delta)
        return haar_unitary(db, rng)[:, :n] @ (v * np.sqrt(w)) @ v.conj().T

    @pytest.mark.parametrize("db", [2, 3, 4])
    def test_bases_at_tolerance_edge_give_classical_states(self, db):
        # the defect of sum_i p_i rho_i (x) |b_i><b_i| is at most sqrt(2) times
        # the largest Gram defect to first order (sqrt(2) ORTHONORMAL_ATOL <
        # CLASSICALITY_TOL); orthogonal pure A states with equal weights reach it
        rng = rng_from_seed(110 + db)
        for n in range(2, db + 1):
            for _ in range(50):
                basis = self.edge_basis(db, n, rng)
                gram_defect = np.abs(basis.conj().T @ basis - np.eye(n)).max()
                assert ORTHONORMAL_ATOL * (1 - 2e-3) < gram_defect < ORTHONORMAL_ATOL
                da = int(rng.integers(1, 4))
                random_input = (rng.dirichlet(np.ones(n)), [random_density(da, rng) for _ in range(n)])
                worst_input = (np.full(n, 1 / n), [DensityMatrix.pure(e) for e in np.eye(n)])
                for p, cond in (random_input, worst_input):
                    rep = is_classical_on_b(make_half_classical(p, cond, basis))
                    assert rep.is_classical_on_b
                # the worst input's blocks have unit-scale norms, so rounding stays ~1e-7 relative
                assert rep.quantumness <= np.sqrt(2) * gram_defect * (1 + 1e-6) < CLASSICALITY_TOL

    def test_round_trip_bulk(self):
        # constructor output always passes the detector
        rng = rng_from_seed(21)
        for i in range(1000):
            da = 2 + i % 3
            db = 2 + (i // 3) % 3
            st = random_half_classical(da, db, rng)
            rep = is_classical_on_b(st)
            assert rep.is_classical_on_b
            assert rep.quantumness <= 1e-10
            # the routine returns only a basis it has verified diagonal
            assert common_basis(st).shape == (db, db)


class TestBlockDecompose:
    def test_product_state_blocks(self, rng):
        ra = random_density(2, rng)
        rb = random_density(3, rng)
        st = BipartiteState(2, 3, DensityMatrix(linalg.tensor(ra.mat, rb.mat)))
        blocks = block_decompose(st)
        for k in range(2):
            for l in range(2):
                assert np.allclose(blocks[k, l], ra.mat[k, l] * rb.mat)

    def test_constructed_blocks_diagonal_in_basis(self, rng):
        basis = haar_unitary(3, rng)
        st = make_half_classical(
            [0.2, 0.3, 0.5], [random_density(2, rng) for _ in range(3)], basis
        )
        blocks = block_decompose(st)
        for k in range(2):
            for l in range(2):
                t = basis.conj().T @ blocks[k, l] @ basis
                assert linalg.frobenius(t - np.diag(np.diag(t))) < 1e-12

    def test_block_identities(self, rng):
        from qcorr.sampling import random_bipartite

        st = random_bipartite(2, 3, rng)
        blocks = block_decompose(st)
        total = sum(np.trace(blocks[k, k]) for k in range(2))
        assert total == pytest.approx(1.0)
        for k in range(2):
            for l in range(2):
                assert np.allclose(blocks[l, k], blocks[k, l].conj().T)
        assert np.allclose(reassemble_blocks(blocks), st.mat)


class TestClassicalityDetector:
    def test_constructed_states_classical(self, rng):
        st = random_half_classical(3, 4, rng)
        assert is_classical_on_b(st).is_classical_on_b

    def test_non_commuting_blocks_detected(self):
        # |0><0| (x) |0><0| + |1><1| (x) |+><+| : B blocks do not commute
        st = make_half_classical(
            [0.5, 0.5],
            [DensityMatrix.pure(E0), DensityMatrix.pure(E1)],
            np.eye(2),
        )
        mixed = 0.5 * linalg.tensor(np.outer(E0, E0), np.outer(E0, E0)) + 0.5 * linalg.tensor(
            np.outer(E1, E1), np.outer(PLUS, PLUS)
        )
        bad = BipartiteState(2, 2, DensityMatrix(mixed))
        rep = is_classical_on_b(bad)
        assert not rep.is_classical_on_b
        assert not grid_oracle_is_classical(bad)
        assert rep.worst_pair is not None

    @pytest.mark.parametrize("da, db", [(2, 2), (2, 3), (3, 3), (2, 4), (4, 2)])
    def test_quantumness_matches_pairwise_oracle(self, da, db):
        rng = rng_from_seed(40 + 10 * da + db)
        states = [random_bipartite(da, db, rng) for _ in range(15)]
        states += [random_half_classical(da, db, rng) for _ in range(5)]
        states.append(random_half_classical(da, db, rng, n_terms=1))
        for st in states:
            rep = is_classical_on_b(st)
            flat = block_decompose(st).reshape(da * da, db, db)
            ref, _ = pairwise_worst_defect(flat, skip=linalg.ZERO_MEMBER_ATOL)
            assert rep.quantumness == pytest.approx(ref, rel=1e-12, abs=1e-15)
            assert rep.is_classical_on_b == (ref <= 1e-9)
            if ref > 1e-9:
                (k, l), (m, n) = rep.worst_pair
                at_pair = pair_defect(flat, (k * da + l, m * da + n))
                assert at_pair == pytest.approx(rep.quantumness, rel=1e-12)

    def test_bell_state_not_classical(self):
        rep = is_classical_on_b(bell_state())
        assert not rep.is_classical_on_b
        assert rep.quantumness > 0.1
        assert not grid_oracle_is_classical(bell_state())

    def test_grid_oracle_agreement_mixed_sample(self):
        from qcorr.sampling import random_bipartite

        rng = rng_from_seed(31)
        for i in range(40):
            st = random_bipartite(2, 2, rng) if i % 2 else random_half_classical(2, 2, rng)
            detector = is_classical_on_b(st).quantumness <= 1e-6
            assert detector == grid_oracle_is_classical(st)

    def test_quantumness_invariant_under_local_b_unitary(self, rng):
        from qcorr.sampling import random_bipartite

        st = random_bipartite(2, 2, rng)
        q0 = is_classical_on_b(st).quantumness
        u = haar_unitary(2, rng)
        rotated = BipartiteState(
            2, 2, DensityMatrix(linalg.tensor(np.eye(2), u) @ st.mat @ linalg.tensor(np.eye(2), u).conj().T)
        )
        assert is_classical_on_b(rotated).quantumness == pytest.approx(q0, abs=1e-9)

    def test_witness_basis_diagonalizes_blocks(self, rng):
        st = random_half_classical(2, 3, rng)
        assert is_classical_on_b(st).is_classical_on_b
        blocks = block_decompose(st)
        v = common_basis(st)
        for k in range(2):
            for l in range(2):
                t = v.conj().T @ blocks[k, l] @ v
                assert linalg.frobenius(t - np.diag(np.diag(t))) < 1e-9


class TestMeasureAndDephase:
    def test_own_basis_is_fixed_point(self, rng):
        st = random_half_classical(2, 3, rng)
        out = measure_and_dephase(st, common_basis(st))
        assert linalg.frobenius(out.mat - st.mat) < 1e-10

    def test_bell_state_dephased(self):
        out = measure_and_dephase(bell_state(), np.eye(2))
        expected = np.zeros((4, 4))
        expected[0, 0] = expected[3, 3] = 0.5
        assert np.allclose(out.mat, expected)

    def test_idempotent(self, rng):
        from qcorr.sampling import random_bipartite

        for _ in range(10):
            st = random_bipartite(2, 2, rng)
            basis = haar_unitary(2, rng)
            once = measure_and_dephase(st, basis)
            twice = measure_and_dephase(once, basis)
            assert linalg.frobenius(twice.mat - once.mat) < 1e-12

    def test_entropy_never_decreases(self, rng):
        from qcorr.sampling import random_bipartite

        for _ in range(10):
            st = random_bipartite(2, 2, rng)
            basis = haar_unitary(2, rng)
            out = measure_and_dephase(st, basis)
            assert out.joint.entropy() >= st.joint.entropy() - 1e-9

    def test_output_is_classical(self, rng):
        from qcorr.sampling import random_bipartite

        st = random_bipartite(2, 2, rng)
        basis = haar_unitary(2, rng)
        out = measure_and_dephase(st, basis)
        assert is_classical_on_b(out).is_classical_on_b

    def test_rejects_partial_basis(self, rng):
        from qcorr.sampling import random_bipartite

        st = random_bipartite(2, 3, rng)
        with pytest.raises(ValueError):
            measure_and_dephase(st, haar_unitary(3, rng)[:, :2])

    def test_rejects_nan_basis(self):
        basis = np.eye(2)
        basis[0, 1] = np.nan
        with pytest.raises(ValueError, match="orthonormal"):
            measure_and_dephase(bell_state(), basis)


class TestGridOracleCalibration:
    def test_separation(self):
        # classical constructions sit below the grid floor, random states above
        from qcorr.sampling import random_bipartite

        rng = rng_from_seed(41)
        classical = [grid_min_disturbance(random_half_classical(2, 2, rng)) for _ in range(25)]
        generic = [grid_min_disturbance(random_bipartite(2, 2, rng)) for _ in range(25)]
        assert max(classical) < GRID_ORACLE_THRESHOLD
        assert min(generic) > GRID_ORACLE_THRESHOLD
