import itertools
import os
import pickle
import subprocess
import sys

import numpy as np
import pytest

from qcorr import kernels, linalg
from qcorr.channels import KrausChannel, choi_matrix
from qcorr.sampling import (
    ginibre,
    haar_isometries,
    haar_unitaries,
    haar_unitary,
    random_bipartite,
    random_commuting_pair,
    random_cptp,
    random_density,
    random_orthogonal_pure_pair,
    random_povm,
    rng_from_seed,
    substream,
)
from qcorr.states import BipartiteState, DensityMatrix


class TestHaarUnitary:
    def test_unitarity(self, rng):
        for d in (1, 2, 5, 8):
            u = haar_unitary(d, rng)
            assert linalg.frobenius(u.conj().T @ u - np.eye(d)) < 1e-12

    def test_scalar_case(self, rng):
        u = haar_unitary(1, rng)
        assert abs(abs(u[0, 0]) - 1.0) < 1e-12

    def test_first_moment(self):
        # Haar moment: E|U_00|^2 = 1/d
        rng = rng_from_seed(5)
        vals = [abs(haar_unitary(2, rng)[0, 0]) ** 2 for _ in range(10_000)]
        assert np.mean(vals) == pytest.approx(0.5, abs=0.02)

    def test_determinism(self):
        a = haar_unitary(4, rng_from_seed(9))
        b = haar_unitary(4, rng_from_seed(9))
        assert np.array_equal(a, b)


class TestHaarUnitaries:
    @staticmethod
    def reference_draw(d, rng):
        # the per-matrix construction: one Ginibre matrix, one QR, phases fixed
        q, r = np.linalg.qr(ginibre(d, d, rng))
        ph = np.diag(r) / np.abs(np.diag(r))
        return q * ph

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 8])
    def test_stack_equals_sequential_draws(self, d):
        for k, seed in itertools.product((1, 2, 11, 23), range(3)):
            stacked_rng, single_rng = rng_from_seed(seed), rng_from_seed(seed)
            stack = haar_unitaries(d, k, stacked_rng)
            single = np.array([self.reference_draw(d, single_rng) for _ in range(k)])
            assert stack.shape == (k, d, d)
            assert np.array_equal(stack, single), (k, seed)
            assert np.array_equal(haar_unitary(d, rng_from_seed(seed)), single[0]), (k, seed)
            # the generator is left in the same state: the next draws agree
            assert np.array_equal(
                stacked_rng.standard_normal(8), single_rng.standard_normal(8)
            ), (k, seed)

    def test_zero_draws(self):
        rng = rng_from_seed(3)
        stack = haar_unitaries(3, 0, rng)
        assert stack.shape == (0, 3, 3)
        assert rng.standard_normal() == rng_from_seed(3).standard_normal()


# The (rows, n, k) shapes the library draws.  Equality with the kept
# columns of a full QR is a property of LAPACK's unblocked Householder path,
# not of QR in general (the blocked path, from about 108 kept columns on,
# differs by rounding), so only these shapes are pinned.
STINESPRING_SHAPES = [(env * d, d, 1) for d in range(2, 9) for env in (1, d, d * d)]
SCREEN_SHAPES = [(d, 2, 31) for d in range(2, 9)]
PARTIAL_BASIS_SHAPES = [(d, n, 1) for d in range(2, 6) for n in range(1, d)]
ISOMETRY_SHAPES = STINESPRING_SHAPES + SCREEN_SHAPES + PARTIAL_BASIS_SHAPES
ISOMETRY_SEEDS = (0, 1)

# The full QR of a 125 x 125 or larger matrix rounds differently when
# OpenBLAS runs it on several threads, so the reference columns come from a
# child process pinned to one thread.  The thin QR is too small to be split
# and gives the same bits either way.
_SINGLE_THREAD_COLUMNS = """
import pickle, sys
from qcorr.sampling import haar_unitaries, rng_from_seed
out = {}
for rows, n, k, seed in pickle.loads(sys.stdin.buffer.read()):
    rng = rng_from_seed(seed)
    out[rows, n, k, seed] = (haar_unitaries(rows, k, rng)[..., :n], rng.standard_normal(8))
sys.stdout.buffer.write(pickle.dumps(out))
"""


@pytest.fixture(scope="module")
def unitary_columns():
    """{(rows, n, k, seed): (kept columns of haar_unitaries, the next 8 normals)}."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    cases = [(*shape, seed) for shape in ISOMETRY_SHAPES for seed in ISOMETRY_SEEDS]
    out = subprocess.run([sys.executable, "-c", _SINGLE_THREAD_COLUMNS], input=pickle.dumps(cases),
                         capture_output=True, env=env, check=True)
    return pickle.loads(out.stdout)


class TestHaarIsometries:
    @pytest.mark.parametrize("rows, n, k", ISOMETRY_SHAPES)
    def test_equal_kept_columns_of_unitaries(self, unitary_columns, rows, n, k):
        for seed in ISOMETRY_SEEDS:
            kept, next_normals = unitary_columns[rows, n, k, seed]
            rng = rng_from_seed(seed)
            iso = haar_isometries(rows, n, k, rng)
            assert iso.shape == (k, rows, n)
            assert np.array_equal(iso, kept), seed
            # the generator is left in the same state: the next draws agree
            assert np.array_equal(rng.standard_normal(8), next_normals), seed

    def test_isometry(self, rng):
        v = haar_isometries(12, 3, 4, rng)
        gram = v.conj().transpose(0, 2, 1) @ v
        assert np.abs(gram - np.eye(3)).max() < 1e-13

    @pytest.mark.parametrize("n", [0, 4])
    def test_width_out_of_range(self, rng, n):
        with pytest.raises(ValueError):
            haar_isometries(3, n, 1, rng)


class TestRandomDensity:
    def test_rank_one_is_pure(self, rng):
        rho = random_density(4, rng, rank=1)
        assert rho.entropy() == pytest.approx(0.0, abs=1e-9)
        assert rho.purity() == pytest.approx(1.0, abs=1e-10)

    def test_trace_one(self, rng):
        for _ in range(20):
            assert np.trace(random_density(3, rng).mat) == pytest.approx(1.0, abs=1e-12)

    def test_mean_purity_full_rank(self):
        # trace-normalized Wishart: E[Tr rho^2] = 0.8 at d=2 and 0.6 at d=3
        # (frozen from the Monte Carlo / beta-integral oracle)
        rng = rng_from_seed(6)
        for d, expected in ((2, 0.8), (3, 0.6)):
            purity = [random_density(d, rng).purity() for _ in range(10_000)]
            assert np.mean(purity) == pytest.approx(expected, abs=0.02)

    def test_bad_rank(self, rng):
        with pytest.raises(ValueError):
            random_density(3, rng, rank=4)

    @pytest.mark.parametrize("d", [2, 3, 4, 8])
    def test_full_rank_equals_validated_construction(self, d):
        # the validating constructor on the same draw: the one it replaced
        for seed in range(5):
            g = ginibre(d, d, rng_from_seed(seed))
            w = g @ g.conj().T
            old = DensityMatrix(w / np.real(np.trace(w)))
            assert np.array_equal(random_density(d, rng_from_seed(seed)).mat, old.mat), seed


class TestRandomCptp:
    def test_env_one_is_unitary(self, rng):
        ch = random_cptp(3, rng, env_dim=1)
        assert len(ch.ops) == 1
        u = ch.ops[0]
        assert linalg.frobenius(u.conj().T @ u - np.eye(3)) < 1e-12

    def test_validates(self, rng):
        for d in (2, 3, 4):
            KrausChannel(list(random_cptp(d, rng).ops))

    def test_full_env_gives_full_choi_rank(self, rng):
        ranks = []
        for _ in range(10):
            ch = random_cptp(3, rng)
            w = linalg.hermitian_eig(choi_matrix(ch)).eigenvalues
            ranks.append(int(np.sum(w > 1e-10)))
        assert min(ranks) == 9

    @pytest.mark.parametrize("d", [2, 3, 4, 8])
    def test_equals_kept_columns_of_haar_unitary(self, unitary_columns, d):
        # the construction it replaced: haar_unitary(env d)[:, :d].reshape(env, d, d)
        for env_dim, env in ((None, d * d), (1, 1), (d, d)):
            for seed in ISOMETRY_SEEDS:
                old = unitary_columns[env * d, d, 1, seed][0][0].reshape(env, d, d)
                ops = random_cptp(d, rng_from_seed(seed), env_dim=env_dim).ops
                assert np.array_equal(ops, old), (env_dim, seed)

    def test_trace_preservation_residual(self, rng):
        ch = random_cptp(4, rng)
        resid = linalg.frobenius(
            np.einsum("kji,kjl->il", ch.ops.conj(), ch.ops) - np.eye(4)
        )
        assert resid < 1e-10


class TestChannelImages:
    # apply and apply_local_b normalize the image instead of re-validating
    # it; on full-rank images that is the validating constructor bit for bit
    @pytest.mark.parametrize("da, db", [(1, 2), (2, 2), (2, 3), (3, 4)])
    def test_apply_local_b_equals_validated_construction(self, da, db):
        for seed in range(3):
            rng = rng_from_seed(seed)
            ch, st = random_cptp(db, rng), random_bipartite(da, db, rng)
            blocks = st.mat.reshape(da, db, da, db).transpose(0, 2, 1, 3)
            raw = kernels.apply_kraus(ch.ops, blocks).transpose(0, 2, 1, 3)
            old = BipartiteState(da, db, DensityMatrix(raw.reshape(da * db, da * db)))
            assert np.array_equal(ch.apply_local_b(st).mat, old.mat), seed

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_apply_equals_validated_construction(self, d):
        for seed in range(3):
            rng = rng_from_seed(seed)
            ch, rho = random_cptp(d, rng), random_density(d, rng)
            old = DensityMatrix(ch.apply_matrix(rho.mat))
            assert np.array_equal(ch.apply(rho).mat, old.mat), seed

    def test_image_trace_off_by_accepted_residual(self, rng):
        # sum E^dag E = (1 + 2s + s^2) I: accepted at TP_ATOL = 1e-9, but the
        # image trace is off by 2s = 6.4e-10, beyond TRACE_ATOL = 1e-10
        s = 0.9e-9 / (2 * np.sqrt(2))
        ch = KrausChannel((1 + s) * random_cptp(2, rng).ops)
        rho = random_density(2, rng)
        assert np.trace(ch.apply(rho).mat).real == pytest.approx(1.0, abs=1e-15)
        st = ch.apply_local_b(random_bipartite(2, 2, rng))
        assert np.trace(st.mat).real == pytest.approx(1.0, abs=1e-15)


class TestRandomCommutingPair:
    def test_commute(self, rng):
        for d in (2, 3, 5):
            a, b = random_commuting_pair(d, rng)
            assert linalg.frobenius(linalg.commutator(a.mat, b.mat)) < 1e-12

    def test_valid_density_matrices(self, rng):
        a, b = random_commuting_pair(4, rng)
        assert np.trace(a.mat) == pytest.approx(1.0)
        assert b.spectrum().eigenvalues[0] >= -1e-12

    def test_spectra_independent(self):
        rng = rng_from_seed(8)
        tops_a, tops_b = [], []
        for _ in range(2000):
            a, b = random_commuting_pair(3, rng)
            tops_a.append(a.spectrum().eigenvalues[-1])
            tops_b.append(b.spectrum().eigenvalues[-1])
        corr = np.corrcoef(tops_a, tops_b)[0, 1]
        assert abs(corr) < 0.05


class TestOrthogonalPurePair:
    def test_orthogonal_and_normalized(self, rng):
        for d in (2, 3, 6):
            phi, psi = random_orthogonal_pure_pair(d, rng)
            assert abs(np.vdot(phi, psi)) < 1e-12
            assert np.linalg.norm(phi) == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)

    def test_component_beta_moments(self):
        # |<0|phi>|^2 ~ Beta(1, d-1): mean 1/d, second moment 2/(d(d+1))
        rng = rng_from_seed(10)
        d = 4
        vals = np.array(
            [abs(random_orthogonal_pure_pair(d, rng)[0][0]) ** 2 for _ in range(10_000)]
        )
        assert vals.mean() == pytest.approx(1 / d, abs=0.02)
        assert np.mean(vals**2) == pytest.approx(2 / (d * (d + 1)), abs=0.02)


class TestPovm:
    def test_elements_sum_to_identity(self, rng):
        povm = random_povm(3, 4, rng)
        assert linalg.frobenius(sum(povm) - np.eye(3)) < 1e-10
        for f in povm:
            assert linalg.hermitian_eig(f).eigenvalues[0] >= -1e-10


class TestSubstreams:
    def test_same_index_same_stream(self):
        x = substream(123, 7).standard_normal(32)
        y = substream(123, 7).standard_normal(32)
        assert np.array_equal(x, y)

    def test_different_indices_differ(self):
        x = substream(123, 1).standard_normal(32)
        y = substream(123, 2).standard_normal(32)
        assert not np.array_equal(x, y)

    def test_sampled_artifacts_bitwise_reproducible(self):
        a = random_cptp(3, substream(99, 0)).ops
        b = random_cptp(3, substream(99, 0)).ops
        assert np.array_equal(a, b)
