import numpy as np
import pytest
from helpers import (
    amplitude_damping,
    brute_force_msf,
    exact_entangled_fraction_2q,
    pairwise_worst_defect,
    qubit_cp_grid_max,
    sampled_pair_violation,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from qcorr import channels as chn
from qcorr import classify, linalg
from qcorr.channels import maximally_entangled_ket
from qcorr.sampling import (
    haar_unitary,
    random_bipartite,
    random_block_unitary_mixture,
    random_completely_decohering,
    random_cptp,
    random_isotropic,
    random_orthogonal_pure_pair,
    random_povm,
    random_unital_mixture,
    rng_from_seed,
    substream,
)
from qcorr.states import (
    ORTHONORMAL_ATOL,
    BipartiteState,
    DensityMatrix,
    is_classical_on_b,
    make_half_classical,
)


def rotation2(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s], [s, c]], dtype=complex)


def example_block_channel() -> chn.KrausChannel:
    e = np.array([1.0, 1.0]) / np.sqrt(2)
    return chn.block_unitary_mixture(e, [np.eye(2), rotation2(np.pi / 4)])


def bell_44() -> BipartiteState:
    return BipartiteState(2, 2, DensityMatrix.pure(maximally_entangled_ket(2)))


class TestCommutativityPreserving:
    def test_unitary_channel_preserves(self, rng):
        ch = chn.unitary_channel(haar_unitary(3, rng))
        verdict = classify.is_commutativity_preserving(ch)
        assert verdict.preserving
        assert verdict.max_violation < 1e-10
        assert verdict.witness_pair is None

    def test_full_dephasing_preserves(self):
        ch = chn.completely_decohering(np.eye(3), [np.diag([1.0 * (i == j) for j in range(3)]) for i in range(3)])
        verdict = classify.is_commutativity_preserving(ch)
        assert verdict.preserving

    @pytest.mark.parametrize("tol", [-1.0, 0.0, float("nan"), float("inf")])
    def test_rejects_malformed_tolerance(self, tol):
        with pytest.raises(ValueError, match="tol"):
            classify.is_commutativity_preserving(chn.depolarizing(2, 0.3), tol=tol)

    def test_rejects_zero_budget(self):
        # evals is at most budget, and a search evaluates at least one pair
        with pytest.raises(ValueError, match="budget"):
            classify.is_commutativity_preserving(random_cptp(2, rng_from_seed(3)), budget=0)

    def test_isotropic_preserves(self, rng):
        ch = random_isotropic(3, rng)
        verdict = classify.is_commutativity_preserving(ch)
        assert verdict.preserving

    def test_amplitude_damping_violates(self):
        # non-unital, non-decohering qubit channel: the search must find a
        # violation on the same scale as a dense Bloch-grid scan
        ch = amplitude_damping(0.5)
        verdict = classify.is_commutativity_preserving(ch)
        assert not verdict.preserving
        assert verdict.max_violation > 1e-3
        grid = qubit_cp_grid_max(ch)
        assert verdict.max_violation >= grid - 1e-4

    def test_depolarizing_preserves(self):
        verdict = classify.is_commutativity_preserving(chn.depolarizing(2, 0.6))
        assert verdict.preserving

    def test_witness_pair_is_orthogonal(self, rng):
        ch = random_cptp(3, rng)
        verdict = classify.is_commutativity_preserving(ch)
        assert not verdict.preserving
        phi, psi = verdict.witness_pair
        assert abs(np.vdot(phi, psi)) < 1e-9

    def test_violation_matches_direct_recomputation(self, rng):
        ch = random_cptp(2, rng)
        verdict = classify.is_commutativity_preserving(ch)
        direct = classify.pair_violation_direct(ch, *verdict.witness_pair)
        assert verdict.max_violation == pytest.approx(direct, abs=1e-12)


def pair_tensor(phi, psi):
    """vec(P (x) Q) in the (i, j, k, l) coordinates of the certificate."""
    return np.kron(np.outer(phi, phi.conj()).reshape(-1), np.outer(psi, psi.conj()).reshape(-1))


def preserving_examples(d, rng):
    return [
        random_completely_decohering(d, rng),
        random_isotropic(d, rng, gamma="unitary"),
        random_isotropic(d, rng, gamma="transpose"),
        chn.depolarizing(d, 0.3),
    ]


class TestPreservationCertificate:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_constraint_rank_and_pairs_span_s(self, d, rng):
        q = classify.pair_constraint_basis(d)
        assert q.shape == (d**4, 2 * d * d - 1)
        assert np.abs(q.T @ q - np.eye(2 * d * d - 1)).max() < 1e-12
        # dim S = d^4 - (2d^2 - 1) = (d^2 - 1)^2, and the pairs fill all of it
        n_pairs = (d * d - 1) ** 2 + 8
        vecs = np.array([pair_tensor(*random_orthogonal_pure_pair(d, rng)) for _ in range(n_pairs)])
        assert np.abs(vecs @ q).max() < 1e-12
        assert np.linalg.matrix_rank(vecs, tol=1e-9) == (d * d - 1) ** 2

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_bound_dominates_pair_violations(self, d, rng):
        for _ in range(5):
            ch = random_cptp(d, rng)
            bound = classify.preservation_bound(ch)
            for _ in range(10):
                v = classify.pair_violation_direct(ch, *random_orthogonal_pure_pair(d, rng))
                assert bound >= v

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_known_families_bound_vanishes(self, d, rng):
        for ch in preserving_examples(d, rng):
            assert classify.preservation_bound(ch) <= 1e-12, ch

    def test_known_families_bound_vanishes_d8(self):
        for ch in preserving_examples(8, rng_from_seed(70)):
            assert classify.preservation_bound(ch) <= 1e-12, ch

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_unital_mixture_bound_exceeds_tol(self, d, rng):
        # unitality protects qubits only: mixtures create from d = 3 on
        for _ in range(3):
            assert classify.preservation_bound(random_unital_mixture(d, rng)) > classify.CP_TOL

    @given(st.integers(0, 2**32 - 1), st.integers(2, 3))
    @settings(max_examples=25, deadline=None)
    def test_kraus_gauge_invariance(self, seed, d):
        rng = rng_from_seed(seed)
        ch = random_cptp(d, rng, env_dim=d)
        # E'_i = sum_j W[i, j] E_j for an isometry W into a larger Kraus set
        w = haar_unitary(2 * d, rng)[:, :d]
        mixed = chn.KrausChannel(np.tensordot(w, ch.ops, axes=1))
        a, b = classify.preservation_bound(ch), classify.preservation_bound(mixed)
        assert b == pytest.approx(a, rel=1e-9, abs=1e-12)

    @given(st.integers(0, 2**32 - 1), st.integers(2, 3))
    @settings(max_examples=25, deadline=None)
    def test_unitary_conjugation_invariance(self, seed, d):
        rng = rng_from_seed(seed)
        ch = random_cptp(d, rng) if seed % 2 else random_unital_mixture(d, rng)
        v_out, w_in = haar_unitary(d, rng), haar_unitary(d, rng)
        rotated = chn.KrausChannel(v_out @ ch.ops @ w_in)
        a, b = classify.preservation_bound(ch), classify.preservation_bound(rotated)
        assert b == pytest.approx(a, rel=1e-9, abs=1e-12)

    def test_certified_pass_runs_no_search(self, monkeypatch, rng):
        def no_search(*args, **kwargs):
            raise AssertionError("a certified pass must not search")

        monkeypatch.setattr(classify, "_search_pairs", no_search)
        for ch in preserving_examples(3, rng) + [chn.identity_channel(4)]:
            verdict = classify.is_commutativity_preserving(ch)
            assert verdict.preserving and verdict.certified
            assert verdict.evals == 0 and verdict.band is False
            assert verdict.witness_pair is None
            assert verdict.upper_bound <= verdict.tol
            e = np.eye(ch.dim)
            assert verdict.max_violation == classify.pair_violation_direct(ch, e[0], e[1])

    def test_uncertified_search_pass(self):
        # (e0, e1) commute on the block example, so the certificate runs and
        # fails; a one-evaluation budget then cannot find a violating pair
        verdict = classify.is_commutativity_preserving(example_block_channel(), budget=1)
        assert verdict.preserving and not verdict.certified
        assert verdict.upper_bound > verdict.tol
        assert verdict.evals == 1

    @pytest.mark.parametrize(
        "make",
        [lambda r: random_cptp(2, r), lambda r: random_cptp(3, r),
         lambda r: random_cptp(4, r), lambda r: example_block_channel()],
        ids=["cptp-d2", "cptp-d3", "cptp-d4", "block-example"],
    )
    def test_creator_search_contract(self, make, rng):
        ch = make(rng)
        d = ch.dim
        frames = classify.screen_frames(d, classify.DEFAULT_STARTS)
        screened = max(classify.pair_violation_direct(ch, w[:, 0], w[:, 1]) for w in frames)
        for budget in (40, classify.DEFAULT_BUDGET):
            verdict = classify.is_commutativity_preserving(ch, budget=budget)
            assert not verdict.preserving and verdict.certified
            phi, psi = verdict.witness_pair
            pair = np.column_stack([phi, psi])
            assert np.abs(pair.conj().T @ pair - np.eye(2)).max() < 1e-12
            assert verdict.max_violation == classify.pair_violation_direct(ch, phi, psi)
            assert classify.DEFAULT_STARTS < verdict.evals <= budget
            assert verdict.max_violation >= screened - 1e-12
            e = np.eye(d)
            if classify.pair_violation_direct(ch, e[0], e[1]) > verdict.tol:
                assert verdict.upper_bound is None
            else:
                assert verdict.upper_bound >= verdict.max_violation


def near_boundary_channel(d, eps, rng):
    """(1 - eps) P + eps R with P isotropic and R Haar: a small violation on a flat ridge."""
    p, r = random_isotropic(d, rng), random_cptp(d, rng)
    return chn.KrausChannel(np.concatenate([np.sqrt(1 - eps) * p.ops, np.sqrt(eps) * r.ops]))


class TestSearchFrames:
    @pytest.mark.parametrize("d", [2, 3, 4, 8])
    def test_screen_frames_are_fixed_orthonormal_prefixes(self, d):
        frames = classify.screen_frames(d, classify.DEFAULT_STARTS)
        assert frames.shape == (classify.DEFAULT_STARTS, d, 2)
        assert not frames.flags.writeable
        assert np.array_equal(frames[0], np.eye(d)[:, :2])
        gram = frames.conj().swapaxes(-1, -2) @ frames
        assert np.abs(gram - np.eye(2)).max() < 1e-12
        assert np.array_equal(classify.screen_frames(d, 5), frames[:5])
        assert np.array_equal(classify.screen_frames(d, 40)[: len(frames)], frames)

    @pytest.mark.parametrize("d", [2, 3, 4, 8])
    def test_screen_frames_match_sequential_haar_draws(self, d):
        rng = rng_from_seed(classify.SCREEN_SEED)
        expected = [np.eye(d)[:, :2]] + [haar_unitary(d, rng)[:, :2] for _ in range(31)]
        assert np.array_equal(classify.screen_frames(d, 32), np.array(expected))

    @pytest.mark.parametrize(
        "make",
        [lambda r: random_cptp(2, r), lambda r: random_cptp(4, r),
         lambda r: near_boundary_channel(3, 1e-3, r)],
        ids=["cptp-d2", "cptp-d4", "near-boundary-d3"],
    )
    def test_search_is_repeatable(self, make, rng):
        ch = make(rng)
        first = classify.is_commutativity_preserving(ch)
        second = classify.is_commutativity_preserving(ch)
        assert not first.preserving
        assert np.array_equal(np.stack(first.witness_pair), np.stack(second.witness_pair))
        assert first.evals == second.evals
        assert first.max_violation == second.max_violation

    @pytest.mark.parametrize("budget", [1, 2, 33])
    @pytest.mark.parametrize("d", [2, 4])
    def test_evals_within_small_budgets(self, budget, d, rng):
        # a Haar channel takes the polish only; the near-boundary one the band only
        for ch in (random_cptp(d, rng), near_boundary_channel(d, 1e-3, rng)):
            verdict = classify.is_commutativity_preserving(ch, budget=budget)
            assert min(budget, classify.DEFAULT_STARTS) <= verdict.evals <= budget
            if not verdict.preserving:
                pair = np.column_stack(verdict.witness_pair)
                assert np.abs(pair.conj().T @ pair - np.eye(2)).max() < 1e-12


class TestSearchPhase:
    # the screened maximum picks the phase: the winner's polish at or above
    # max(100 tol, 1e-3), the band below it

    @staticmethod
    def record_ascents(monkeypatch):
        calls = []
        ascend = classify._ascend_pairs

        def recording(frames, f, grad, kraus, active, **kw):
            calls.append((active.size, kw["rtol"]))
            return ascend(frames, f, grad, kraus, active, **kw)

        monkeypatch.setattr(classify, "_ascend_pairs", recording)
        return calls

    def test_haar_creator_polishes_winner_alone(self, monkeypatch):
        calls = self.record_ascents(monkeypatch)
        for seed in range(8):
            calls.clear()
            ch = random_cptp(4, rng_from_seed(900 + seed))
            verdict = classify.is_commutativity_preserving(ch)
            assert not verdict.preserving, seed
            assert verdict.band is False, seed
            assert calls == [(1, classify.PAIR_POLISH_RTOL)], seed

    def test_near_boundary_creator_takes_band_only(self, monkeypatch):
        calls = self.record_ascents(monkeypatch)
        for seed in range(8):
            calls.clear()
            ch = near_boundary_channel(3, 1e-3, rng_from_seed(700 + seed))
            verdict = classify.is_commutativity_preserving(ch)
            assert not verdict.preserving, seed
            assert verdict.band is True, seed
            assert calls == [(classify.PAIR_BAND_FRAMES, classify.PAIR_BAND_RTOL)], seed


# (kind, d, index, max_violation, band, preserving) of is_commutativity_preserving,
# recorded with the earlier pair kernel and ascent step; any rewrite of either must
# reproduce them.  Haar creators take the polish; (1 - 1e-3) isotropic + 1e-3 Haar
# takes the band.
ASCENT_GOLDEN = [
    ("cptp", 2, 0, 0.3088840969463096, False, False),
    ("cptp", 2, 1, 0.3399660311723736, False, False),
    ("cptp", 2, 2, 0.30588542394341933, False, False),
    ("cptp", 3, 0, 0.3730595313763125, False, False),
    ("cptp", 3, 1, 0.41821950584627926, False, False),
    ("cptp", 3, 2, 0.34827232053312557, False, False),
    ("cptp", 4, 0, 0.2955100813631643, False, False),
    ("cptp", 4, 1, 0.31317362558712886, False, False),
    ("cptp", 4, 2, 0.35202177071975266, False, False),
    ("cptp", 8, 0, 0.14386650329773634, False, False),
    ("cptp", 8, 1, 0.1554033790342184, False, False),
    ("cptp", 8, 2, 0.1440546605180496, False, False),
    ("near", 2, 0, 0.0005471973064569971, True, False),
    ("near", 2, 1, 0.00023325125419185565, True, False),
    ("near", 2, 2, 0.0001630077728577896, True, False),
    ("near", 3, 0, 0.0005331693018360031, True, False),
    ("near", 3, 1, 0.0005670920651065762, True, False),
    ("near", 3, 2, 0.0003453217377914443, True, False),
]


@pytest.mark.parametrize(
    "kind, d, index, violation, band, preserving",
    ASCENT_GOLDEN,
    ids=[f"{kind}-d{d}-{index}" for kind, d, index, *_ in ASCENT_GOLDEN],
)
def test_ascent_matches_recorded_verdicts(kind, d, index, violation, band, preserving):
    rng = rng_from_seed(4100 + 10 * d + index)
    ch = random_cptp(d, rng) if kind == "cptp" else near_boundary_channel(d, 1e-3, rng)
    verdict = classify.is_commutativity_preserving(ch)
    assert verdict.band is band
    assert verdict.preserving is preserving
    assert verdict.max_violation == pytest.approx(violation, rel=1e-9, abs=0)


class TestBfgsUpdate:
    @pytest.mark.parametrize("d", [2, 4])
    def test_symmetric_secant_and_curvature_guard(self, d, rng):
        n = 4 * d
        a = rng.standard_normal((3, n, n)) / n
        hinv = classify.PAIR_STEP * np.eye(n) + a @ a.swapaxes(-1, -2)
        hinv = (hinv + hinv.swapaxes(-1, -2)) / 2
        s = rng.standard_normal((3, n))
        b = rng.standard_normal((3, n, n)) / n
        y = ((np.eye(n) + b @ b.swapaxes(-1, -2)) @ s[..., None])[..., 0]  # s . y > 0
        updated = classify._bfgs_update(hinv, s, y)
        assert np.array_equal(updated, updated.swapaxes(-1, -2))
        assert np.abs((updated @ y[..., None])[..., 0] - s).max() <= 1e-12
        # no clear curvature (s . y <= 1e-12 |s| |y|): the estimate stays as it is
        flat = y - ((s * y).sum(-1) / (s * s).sum(-1))[:, None] * s
        for bad in (-y, flat):
            assert np.array_equal(classify._bfgs_update(hinv, s, bad), hinv)


class TestCreatorSearchRobustness:
    # no single case can pass these by luck: every case must reach the bound

    @pytest.mark.parametrize("gamma", [0.2, 0.5, 0.8])
    def test_amplitude_damping_reaches_grid_max(self, gamma):
        # The search is seed-free, so the cases vary the channel instead:
        # input and output unitaries leave the maximum violation unchanged.
        ch = amplitude_damping(gamma)
        grid = qubit_cp_grid_max(ch)
        for seed in range(10):
            rng = rng_from_seed(300 + seed)
            rotated = chn.KrausChannel(haar_unitary(2, rng) @ ch.ops @ haar_unitary(2, rng))
            verdict = classify.is_commutativity_preserving(rotated)
            assert verdict.max_violation >= grid - 1e-4, seed

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("eps", [1e-3, 1e-5])
    def test_near_boundary_mixtures_confirm(self, d, eps):
        # (1 - eps) P + eps R with P decohering or isotropic: wherever 256
        # independent random pairs already exceed 10 tol, the witness must too.
        # These violations sit below max(100 tol, 1e-3), so the band polish runs; with
        # the winner's basin alone, some seeds here end 11% below the sample.
        confirmed = 0
        for seed in range(16):
            rng = rng_from_seed(400 + seed)
            p = random_completely_decohering(d, rng) if seed % 2 else random_isotropic(d, rng)
            r = random_cptp(d, rng)
            ch = chn.KrausChannel(np.concatenate([np.sqrt(1 - eps) * p.ops, np.sqrt(eps) * r.ops]))
            sampled = sampled_pair_violation(ch, 256, rng)
            verdict = classify.is_commutativity_preserving(ch)
            assert verdict.max_violation >= (1 - 1e-3) * sampled, (seed, sampled)
            if sampled > classify.WITNESS_CONFIRM_FACTOR * classify.CP_TOL:
                assert not verdict.preserving, seed
                witness = classify.witness_from_pair(ch, *verdict.witness_pair)
                assert witness.confirmed, (seed, sampled, verdict.max_violation)
                confirmed += 1
        assert confirmed > 0

    @pytest.mark.parametrize("d", [2, 3])
    def test_flat_ridge_band_converges(self, d):
        # (1 - eps) P + eps R with P isotropic: the violation has a nearly
        # flat ridge, along which plain gradient steps took a median of 2200
        # pair evaluations at d = 2 (up to 8800); quasi-Newton steps take
        # under 250 on every seed.
        for seed in range(8):
            ch = near_boundary_channel(d, 1e-3, rng_from_seed(700 + seed))
            verdict = classify.is_commutativity_preserving(ch)
            assert not verdict.preserving, seed
            assert verdict.evals <= 500, (seed, verdict.evals)

    @pytest.mark.parametrize("d", [2, 3])
    def test_flat_ridge_takes_few_evaluations(self, d):
        # the channels of test_flat_ridge_band_converges: the step length grows
        # only while a step's gain stays linear, so no frame keeps overshooting
        # (at most 160 evaluations with a step that always grew, and 562 on
        # seed 5 at d = 2 with the step capped at length 1)
        for seed in range(8):
            ch = near_boundary_channel(d, 1e-3, rng_from_seed(700 + seed))
            verdict = classify.is_commutativity_preserving(ch)
            assert not verdict.preserving, seed
            assert verdict.evals <= 200, (seed, verdict.evals)


def search_witness(ch):
    """The witness for the pair a preservation search finds, or None on a pass."""
    verdict = classify.is_commutativity_preserving(ch)
    if verdict.preserving:
        return None
    return classify.witness_from_pair(ch, *verdict.witness_pair, tol=verdict.tol)


class TestCreationWitness:
    def test_identity_channel_none(self):
        assert search_witness(chn.identity_channel(2)) is None

    def test_depolarizing_none(self):
        assert search_witness(chn.depolarizing(2, 0.3)) is None

    def test_random_channel_witness_verifies(self, rng):
        ch = random_cptp(3, rng)
        w = search_witness(ch)
        assert w is not None
        assert w.input_quantumness <= 1e-9
        assert is_classical_on_b(w.input_state).is_classical_on_b
        assert w.output_quantumness > 1e-7
        assert w.input_state.dim_a == 2

    def test_witness_output_equals_channel_image(self, rng):
        ch = random_cptp(2, rng)
        w = search_witness(ch)
        assert np.allclose(
            w.output_state.mat, ch.apply_local_b(w.input_state).mat, atol=1e-12
        )

    def test_non_orthogonal_pair_rejected(self):
        e0 = np.array([1.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="orthogonal"):
            classify.witness_from_pair(chn.identity_channel(3), e0, e0)

    @staticmethod
    def near_orthogonal_pair(overlap: float) -> tuple[np.ndarray, np.ndarray]:
        # unit vectors to double precision with <phi|psi> = overlap
        u = haar_unitary(3, rng_from_seed(41))
        return u[:, 0], u @ np.array([overlap, np.sqrt(1 - overlap**2), 0.0])

    def test_pair_checked_at_one_tolerance(self):
        phi, psi = self.near_orthogonal_pair(5e-10)
        assert abs(np.vdot(phi, psi)) == pytest.approx(5e-10, rel=1e-5)
        w = classify.witness_from_pair(random_cptp(3, rng_from_seed(42)), phi, psi)
        assert w.input_state.dim_a == 2 and w.input_state.dim_b == 3
        assert is_classical_on_b(w.input_state).is_classical_on_b

    @pytest.mark.parametrize("overlap", [9e-10, 2e-9])
    def test_pair_beyond_ortho_atol_rejected(self, overlap):
        # at 9e-10 the input defect sqrt(2) * 9e-10 would exceed CLASSICALITY_TOL
        phi, psi = self.near_orthogonal_pair(overlap)
        with pytest.raises(ValueError, match="orthogonal"):
            classify.witness_from_pair(random_cptp(3, rng_from_seed(42)), phi, psi)

    @pytest.mark.parametrize("overlap, accepted", [(5e-10, True), (9e-10, False)])
    def test_witness_and_half_classical_accept_the_same_pairs(self, overlap, accepted):
        phi, psi = self.near_orthogonal_pair(overlap)
        cond = [DensityMatrix.pure(e) for e in np.eye(2)]
        builders = (
            lambda: classify.witness_from_pair(random_cptp(3, rng_from_seed(42)), phi, psi),
            lambda: make_half_classical([0.5, 0.5], cond, np.column_stack([phi, psi])),
        )
        for build in builders:
            if accepted:
                build()
            else:
                with pytest.raises(ValueError, match="orthogonal"):
                    build()

    def test_every_accepted_pair_gives_classical_input(self):
        ch = random_cptp(3, rng_from_seed(42))
        for overlap in (1e-10, 3e-10, 6e-10, ORTHONORMAL_ATOL * (1 - 1e-6)):
            phi, psi = self.near_orthogonal_pair(overlap)
            w = classify.witness_from_pair(ch, phi, psi)
            rep = is_classical_on_b(w.input_state)
            assert rep.is_classical_on_b
            assert rep.quantumness == pytest.approx(np.sqrt(2) * overlap, rel=1e-5)

    def test_nan_ket_rejected(self):
        phi = np.array([1.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="normalized"):
            classify.witness_from_pair(chn.identity_channel(3), phi, np.array([0.0, np.nan, 0.0]))

    def test_input_is_block_diagonal_pair_mixture(self, rng):
        for d in (2, 3, 4, 8):
            phi, psi = random_orthogonal_pure_pair(d, rng)
            w = classify.witness_from_pair(random_cptp(d, rng), phi, psi)
            ref = np.zeros((2 * d, 2 * d), dtype=complex)
            ref[:d, :d] = np.outer(phi, phi.conj()) / 2
            ref[d:, d:] = np.outer(psi, psi.conj()) / 2
            assert np.abs(w.input_state.mat - ref).max() <= 1e-15
            assert w.input_quantumness <= 1e-15

    def test_exact_pair_input_quantumness_is_zero(self):
        phi = np.array([1.0, 1.0, 0.0]) / np.sqrt(2)
        psi = np.array([1.0, -1.0, 0.0]) / np.sqrt(2)
        w = classify.witness_from_pair(chn.identity_channel(3), phi, psi)
        assert w.input_quantumness == 0.0


class TestNoCommonBasisOnStatePath:
    """Classicality verdicts and witnesses never diagonalize the blocks."""

    @pytest.fixture
    def no_simdiag(self, monkeypatch):
        def fail(*args, **kwargs):
            raise RuntimeError("simultaneous_diagonalization called")

        monkeypatch.setattr(linalg, "simultaneous_diagonalization", fail)

    def test_state_path_runs_without_it(self, no_simdiag):
        from qcorr import jsonio
        from qcorr.sampling import random_half_classical

        rng = rng_from_seed(71)
        assert is_classical_on_b(random_half_classical(2, 3, rng)).is_classical_on_b
        w = search_witness(random_cptp(3, rng))
        assert w is not None and w.confirmed
        back = jsonio.witness_from_json(jsonio.witness_to_json(w))
        assert back.output_quantumness == pytest.approx(w.output_quantumness, rel=1e-12)

    def test_decohering_detector_still_calls_it(self, no_simdiag):
        ch = random_completely_decohering(3, rng_from_seed(72))
        with pytest.raises(RuntimeError, match="simultaneous_diagonalization"):
            classify.find_decohering_basis(ch)


class TestBlockOverlapCriterion:
    # the channel fixing |2> and mixing block unitaries creates correlation
    # from an orthogonal pair iff the reduced vectors are neither orthogonal
    # nor proportional

    def test_computational_pair_is_safe(self):
        e0 = np.array([1.0, 0, 0])
        e1 = np.array([0, 1.0, 0])
        assert classify.block_overlap(e0, e1) == 0
        assert not classify.block_overlap_enables_creation(e0, e1)

    def test_top_state_pair_is_safe(self):
        e2 = np.array([0, 0, 1.0])
        e0 = np.array([1.0, 0, 0])
        assert classify.block_overlap(e2, e0) == 0
        assert not classify.block_overlap_enables_creation(e2, e0)

    def test_proportional_reduced_vectors_are_safe(self):
        # reduced overlap 1/2 saturates Cauchy-Schwarz: proportional reduced
        # vectors, so the outputs coincide and nothing is created
        phi = np.array([1.0, 0, 1.0]) / np.sqrt(2)
        psi = np.array([1.0, 0, -1.0]) / np.sqrt(2)
        g = classify.block_overlap(phi, psi)
        assert g == pytest.approx(0.5)
        assert not classify.block_overlap_enables_creation(phi, psi)
        ch = example_block_channel()
        a = ch.apply_matrix(np.outer(phi, phi.conj()))
        b = ch.apply_matrix(np.outer(psi, psi.conj()))
        assert linalg.frobenius(linalg.commutator(a, b)) < 1e-10

    def test_generic_pair_creates(self):
        phi = np.array([1.0, 0, 1.0]) / np.sqrt(2)
        psi = np.array([1.0, 1.0, -1.0]) / np.sqrt(3)
        assert classify.block_overlap_enables_creation(phi, psi)
        ch = example_block_channel()
        w = classify.witness_from_pair(ch, phi, psi)
        assert w.output_quantumness > 1e-3
        assert w.confirmed

    def test_criterion_matches_direct_commutators(self, rng):
        # criterion verdict == (outputs commute) over random orthogonal pairs
        from qcorr.sampling import random_orthogonal_pure_pair

        ch = example_block_channel()
        for _ in range(50):
            phi, psi = random_orthogonal_pure_pair(3, rng)
            creates = classify.block_overlap_enables_creation(phi, psi, tol=1e-7)
            v = classify.pair_violation_direct(ch, phi, psi)
            assert creates == (v > 1e-7)


class TestStructureDetectors:
    def test_is_unital(self, rng):
        assert classify.is_unital(random_unital_mixture(3, rng))
        assert classify.is_unital(chn.completely_decohering(
            np.eye(2), [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
        ))
        reset = chn.KrausChannel(
            [np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([[0.0, 1.0], [0.0, 0.0]])],
            kind="reset",
        )
        assert not classify.is_unital(reset)
        assert np.allclose(reset.apply_matrix(np.eye(2)), np.diag([2.0, 0.0]))

    def test_mixing_matches_unitality(self, rng):
        cases = [
            (random_unital_mixture(3, rng), True),
            (chn.depolarizing(3, 0.5), True),
            (amplitude_damping(0.4), False),
            (random_completely_decohering(3, rng), None),  # agreement, value varies
        ]
        for ch, expected in cases:
            unital = classify.is_unital(ch)
            mixing = classify.is_mixing_sampled(ch, n_samples=150, rng=rng_from_seed(12))
            if expected is not None:
                assert unital == expected
            assert mixing == unital

    def test_decohering_detector_round_trip(self, rng):
        basis = haar_unitary(3, rng)
        ch = chn.completely_decohering(basis, random_povm(3, 3, rng))
        found = classify.find_decohering_basis(ch)
        assert found is not None
        # recovered basis diagonalizes all outputs (match up to permutation/phase)
        for _ in range(5):
            out = ch.apply(DensityMatrix(np.eye(3) / 3)).mat
            t = found.conj().T @ out @ found
            assert linalg.frobenius(t - np.diag(np.diag(t))) < 1e-9

    def test_unitary_channel_not_decohering(self, rng):
        assert classify.find_decohering_basis(chn.unitary_channel(haar_unitary(2, rng))) is None

    def test_isotropic_not_decohering(self):
        ch = chn.isotropic(3, 0.5, "unitary", None)
        assert classify.find_decohering_basis(ch) is None

    def test_full_depolarizing_is_decohering(self):
        assert classify.find_decohering_basis(chn.depolarizing(3, 0.0)) is not None

    @pytest.mark.parametrize("d", [2, 3, 4, 8])
    def test_decohering_decision_matches_pairwise_oracle(self, d):
        rng = rng_from_seed(60 + d)
        cases = [
            random_completely_decohering(d, rng),
            # rank-deficient outputs: only two of the d POVM elements are nonzero
            chn.completely_decohering(
                haar_unitary(d, rng), random_povm(d, 2, rng) + [np.zeros((d, d))] * (d - 2)
            ),
            chn.depolarizing(d, 0.0),
            chn.depolarizing(d, 0.4),
            random_isotropic(d, rng),
            random_unital_mixture(d, rng),
            random_cptp(d, rng),
        ]
        if d >= 3:
            cases.append(random_block_unitary_mixture(d, rng))
        tol = classify.CP_TOL
        eye = np.eye(d)
        for ch in cases:
            images = [ch.apply_matrix(h) for h in classify.hermitian_basis(d)]
            # is_unital and the detector read their images off unit_images()
            assert np.abs(classify._images(ch, eye) - ch.apply_matrix(eye)).max() <= 1e-14
            read = classify._images(ch, classify.hermitian_basis(d))
            assert np.abs(read - np.array(images)).max() <= 1e-14
            worst, _ = pairwise_worst_defect(images, skip=linalg.ZERO_MEMBER_ATOL)
            found = classify.find_decohering_basis(ch, tol)
            assert (found is not None) == (worst <= tol), ch
            if found is not None:
                for m in images:
                    t = found.conj().T @ m @ found
                    assert linalg.frobenius(t - np.diag(np.diag(t))) <= 1e-9 * (1 + linalg.frobenius(m))


class TestIsotropicFit:
    # the small |p| points lie a few tol from p = 0 and are still isotropic
    @pytest.mark.parametrize("point", ["lo", "mid", "hi", 5e-7, -5e-7, 9e-7])
    @pytest.mark.parametrize("gamma", ["unitary", "transpose"])
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_round_trip(self, d, gamma, point):
        lo, hi = chn.isotropic_p_range(d, gamma)
        p = {"lo": lo, "mid": 0.4 if gamma == "unitary" else -0.2, "hi": hi}.get(point, point)
        ch = chn.isotropic(d, p, gamma, haar_unitary(d, rng_from_seed(13 + d)))
        fit = classify.fit_isotropic(ch)
        assert fit is not None
        if d == 2 and p < 0:
            # X^T = Tr(X) I - s_y X s_y on qubits, so p Gamma + (1-p) I/2 is also
            # the other kind of Gamma at -p, and the fit tries +|p| first
            gamma, p = {"unitary": "transpose", "transpose": "unitary"}[gamma], -p
        assert fit.gamma == gamma
        assert fit.p == pytest.approx(p, abs=1e-8)
        refit = chn.isotropic(d, fit.p, fit.gamma, fit.u)
        assert chn.channel_action_distance(ch, refit) < 1e-8
        if d >= 3:
            verdict = classify.classify_channel(ch)
            assert verdict.label == "isotropic" and verdict.consistent is not False

    def test_dephasing_not_isotropic(self):
        ch = chn.completely_decohering(
            np.eye(3), [np.diag([1.0 * (i == j) for j in range(3)]) for i in range(3)]
        )
        assert classify.fit_isotropic(ch) is None

    def test_degenerate_p_zero(self):
        fit = classify.fit_isotropic(chn.depolarizing(3, 0.0))
        assert fit is not None
        assert fit.p == 0.0
        assert fit.gamma is None and fit.u is None

    def test_non_unital_rejected_fast(self):
        assert classify.fit_isotropic(amplitude_damping(0.3)) is None

    def test_generic_mixture_not_isotropic(self, rng):
        assert classify.fit_isotropic(random_unital_mixture(3, rng)) is None


class TestClassifiers:
    @pytest.mark.parametrize("d", [2, 3])
    def test_nan_tolerance_rejected_before_detectors(self, d):
        ch = random_cptp(d, rng_from_seed(3))
        classifier = classify.classify_qubit if d == 2 else classify.classify_qutrit
        for run in (
            lambda: classifier(ch, tol=float("nan")),
            lambda: classify.scan_channels(d, 2, seed=1, tol=float("nan")),
        ):
            with pytest.raises(ValueError, match="tol must be finite"):
                run()

    def test_phase_flip_is_unital_mixing(self):
        sz = np.diag([1.0, -1.0]).astype(complex)
        ch = chn.unital_mixture([0.5, 0.5], [np.eye(2), sz])
        verdict = classify.classify_qubit(ch)
        assert verdict.label == "unital_mixing"
        assert verdict.consistent

    def test_biased_reset_is_completely_decohering(self):
        # non-unital measure-and-prepare qubit channel
        povm = [np.diag([0.8, 0.3]).astype(complex), np.diag([0.2, 0.7]).astype(complex)]
        ch = chn.completely_decohering(np.eye(2), povm)
        assert not classify.is_unital(ch)
        verdict = classify.classify_qubit(ch)
        assert verdict.label == "completely_decohering"
        assert verdict.basis is not None
        assert verdict.consistent

    def test_amplitude_damping_is_creator(self):
        verdict = classify.classify_qubit(amplitude_damping(0.5))
        assert verdict.label == "creator"
        assert verdict.witness is not None
        assert verdict.witness.output_quantumness > 1e-3
        assert verdict.consistent

    def test_qutrit_depolarizing_is_isotropic(self):
        verdict = classify.classify_qutrit(chn.depolarizing(3, 0.3))
        assert verdict.label == "isotropic"
        assert verdict.iso_fit.p == pytest.approx(0.3, abs=1e-8)
        assert verdict.consistent

    def test_qutrit_dephasing_is_decohering(self):
        ch = chn.completely_decohering(
            np.eye(3), [np.diag([1.0 * (i == j) for j in range(3)]) for i in range(3)]
        )
        verdict = classify.classify_qutrit(ch)
        assert verdict.label == "completely_decohering"
        assert verdict.consistent

    def test_qutrit_block_mixture_is_creator(self):
        verdict = classify.classify_qutrit(example_block_channel())
        assert verdict.label == "creator"
        assert verdict.witness.confirmed
        assert verdict.consistent

    def test_unital_qutrit_mixture_is_creator(self, rng):
        # mixedness alone does not protect a qutrit
        ch = random_unital_mixture(3, rng)
        verdict = classify.classify_qutrit(ch)
        assert verdict.label == "creator"
        assert verdict.consistent

    def test_dimension_dispatch(self, rng):
        ch4 = random_cptp(4, rng)
        verdict = classify.classify_channel(ch4)
        assert verdict.label == "creator"
        assert verdict.consistent is None  # no completeness claim at d >= 4

    def test_wrong_dimension_rejected(self, rng):
        with pytest.raises(ValueError):
            classify.classify_qubit(random_cptp(3, rng))

    @pytest.mark.parametrize("d", [4, 5])
    @pytest.mark.parametrize("make", [random_unital_mixture, random_block_unitary_mixture])
    def test_unital_creators_beyond_qutrits(self, make, d):
        # unitality protects only qubits: at d >= 4 these are creators with a witness
        verdict = classify.classify_channel(make(d, rng_from_seed(27 + d)))
        assert verdict.label == "creator"
        assert not verdict.cp.preserving
        assert verdict.witness is not None and verdict.witness.confirmed
        assert verdict.consistent is None

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_near_decohering_mixtures_are_decohering(self, d):
        # (1 - 1e-9) P + 1e-9 R with P decohering lies within tol of the
        # decohering family, so it carries that label, not unclassified
        eps = 1e-9
        for seed in range(12):
            rng = rng_from_seed(seed)
            p, r = random_completely_decohering(d, rng), random_cptp(d, rng)
            ch = chn.KrausChannel(np.concatenate([np.sqrt(1 - eps) * p.ops, np.sqrt(eps) * r.ops]))
            verdict = classify.classify_channel(ch)
            assert verdict.label == "completely_decohering", seed
            assert verdict.consistent is (True if d <= 3 else None), seed

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_scan_rows_match_classify_channel(self, d):
        seed = 50 + d
        report = classify.scan_channels(d, 12, seed=seed)
        for i, row in enumerate(report.rows):
            ch = classify._sample_family(row.family, d, substream(seed, 2 * i))
            verdict = classify.classify_channel(ch)
            assert row.label == verdict.label, (i, row.family)
            assert row.max_violation == verdict.cp.max_violation
            if d <= 3:
                assert (row.anomaly is None) == verdict.consistent, (i, row.family)


class TestMsf:
    def test_bell_state(self):
        res = classify.msf(bell_44(), rng=rng_from_seed(28))
        assert res.f_value == pytest.approx(1.0, abs=1e-9)
        assert res.fidelity == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("kw", [{"budget": 0}, {"starts": 0}])
    def test_rejects_zero_budget_or_starts(self, kw):
        with pytest.raises(ValueError, match="at least 1"):
            classify.msf(bell_44(), rng=rng_from_seed(28), **kw)

    def test_maximally_mixed(self):
        st = BipartiteState(2, 2, DensityMatrix.maximally_mixed(4))
        res = classify.msf(st, budget=4000, starts=8, rng=rng_from_seed(29))
        assert res.f_value == pytest.approx(0.25, abs=1e-10)

    def test_pure_state_closed_form(self):
        # Schmidt coefficients (sqrt .9, sqrt .1): F = (sum of coefficients)^2 / d
        ket = np.zeros(4, dtype=complex)
        ket[0] = np.sqrt(0.9)
        ket[3] = np.sqrt(0.1)
        st = BipartiteState(2, 2, DensityMatrix.pure(ket))
        res = classify.msf(st, rng=rng_from_seed(30))
        expected = (np.sqrt(0.9) + np.sqrt(0.1)) ** 2 / 2
        assert res.f_value == pytest.approx(expected, abs=1e-9)
        assert res.f_upper - res.f_value < 1e-9

    def test_pure_state_closed_form_higher_dims(self):
        # F = (sum_k sqrt(lambda_k))^2 / d from the Schmidt coefficients,
        # with the Schmidt bases hidden behind Haar local unitaries
        for d in (3, 4):
            rng = rng_from_seed(45 + d)
            lam = rng.dirichlet(np.ones(d))
            ket = np.zeros(d * d, dtype=complex)
            ket[:: d + 1] = np.sqrt(lam)
            ket = np.kron(haar_unitary(d, rng), haar_unitary(d, rng)) @ ket
            st = BipartiteState(d, d, DensityMatrix.pure(ket))
            res = classify.msf(st, rng=rng_from_seed(50 + d))
            expected = np.sqrt(lam).sum() ** 2 / d
            assert res.f_value == pytest.approx(expected, abs=1e-9), d
            # for a pure state ||rho^T_B||_1 / d is F itself
            assert res.f_upper - res.f_value < 1e-9, d

    def test_upper_bound_holds(self):
        for d in (2, 3, 4):
            for i in range(8):
                st = random_bipartite(d, d, substream(0xB0 + d, 2 * i))
                res = classify.msf(st, budget=2000, starts=4, rng=substream(0xB0 + d, 2 * i + 1))
                assert res.f_value <= res.f_upper + 1e-12, (d, i)
                # both halves of the bound, the partial transpose built entry by entry
                pt = np.empty_like(st.mat)
                for i_a, i_b, j_a, j_b in np.ndindex(d, d, d, d):
                    pt[i_a * d + i_b, j_a * d + j_b] = st.mat[i_a * d + j_b, j_a * d + i_b]
                generic = min(
                    np.linalg.eigvalsh(st.mat)[-1], np.abs(np.linalg.eigvalsh(pt)).sum() / d
                )
                if d == 2:
                    # exact at d = 2, so never above the generic bound
                    exact = exact_entangled_fraction_2q(st.mat)
                    assert res.f_upper == pytest.approx(exact, abs=1e-12), (d, i)
                    assert res.f_upper <= generic + 1e-12, (d, i)
                else:
                    assert res.f_upper == pytest.approx(generic, abs=1e-12), (d, i)

    def test_two_qubit_bracket_closes(self):
        # f_upper is the magic-basis value, and the ascent stops on reaching it
        for i in range(20):
            st = random_bipartite(2, 2, substream(0xC2, 2 * i))
            res = classify.msf(st, budget=6000, starts=12, rng=substream(0xC2, 2 * i + 1))
            pt = st.mat.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
            generic = min(
                np.linalg.eigvalsh(st.mat)[-1], np.abs(np.linalg.eigvalsh(pt)).sum() / 2
            )
            assert abs(res.f_upper - exact_entangled_fraction_2q(st.mat)) <= 1e-12, i
            assert res.f_upper <= generic + 1e-12, i
            assert abs(res.f_value - res.f_upper) <= 1e-12, i
            assert res.converged, i

    def test_bracket_closes_at_rounding_level(self):
        # f and f_upper round one maximum two ways; on these states they stay
        # more than MSF_STEP_TOL apart once the best start is at the maximum,
        # which cost a fourth step before the stop allowed for rounding
        for i in (2, 6, 78):
            st = random_bipartite(2, 2, substream(0xB5, 2 * i))
            res = classify.msf(st, budget=6000, starts=12, rng=substream(0xB5, 2 * i + 1))
            assert res.converged, i
            assert res.iterations <= 3, (i, res.iterations)
            assert abs(res.f_value - exact_entangled_fraction_2q(st.mat)) <= 1e-12, i

    def test_convergence_tail(self):
        # criterion-7 inputs, among them every one whose search ended
        # converged: false under the pure polar ascent (tail at d = 2, and
        # i = 1003 at d = 3)
        seed = 0xA7
        tail = [40, 424, 548, 596, 657, 745, 751, 753, 758, 866, 970]
        for i in list(range(12)) + tail + [1000, 1001, 1003]:
            d = 2 if i < 1000 else 3
            budget, starts = (6000, 12) if d == 2 else (12000, 24)
            state = random_bipartite(d, d, substream(seed, 3 * i))
            n_u = int(substream(seed, 3 * i + 1).integers(2, 5))
            ch = random_unital_mixture(d, substream(seed, 3 * i + 1), n_unitaries=n_u)
            bound = classify.verify_msf_bound(
                state, ch, budget=budget, starts=starts, rng=substream(seed, 3 * i + 2)
            )
            for res, st in ((bound.before, state), (bound.after, ch.apply_local_b(state))):
                assert res.converged, i
                if d == 2:
                    assert abs(res.f_value - exact_entangled_fraction_2q(st.mat)) <= 1e-12, i

    @pytest.mark.parametrize("name", ["00", "01", "singlet", "rank2_mixture"])
    def test_edge_states_reach_the_closed_form(self, name):
        # |01> has G = 0 at U = I, and the rank-deficient states give
        # rank-deficient gradients: the polar step's degenerate inputs
        kets = {"00": [1, 0, 0, 0], "01": [0, 1, 0, 0], "singlet": [0, 1, -1, 0]}
        if name in kets:
            ket = np.array(kets[name], dtype=complex)
            mat = np.outer(ket, ket) / (ket @ ket)
        else:
            mat = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
        st = BipartiteState(2, 2, DensityMatrix(mat))
        res = classify.msf(st, budget=6000, starts=12, rng=rng_from_seed(98))
        assert abs(res.f_value - exact_entangled_fraction_2q(mat)) <= 1e-12
        assert res.converged

    def test_budget_accounting(self):
        # a step costs one evaluation per candidate evaluated: one per
        # active start, plus one per polar fallback up to MSF_NEWTON_MAX_DIM
        starts = 4
        for d in (2, 3, 4, 5):
            st = random_bipartite(d, d, rng_from_seed(70 + d))
            floor = classify.entangled_overlap_direct(st, np.eye(d))
            for budget in (1, starts, starts + 1, 2 * starts, 2 * starts + 1):
                res = classify.msf(st, budget=budget, starts=starts, rng=rng_from_seed(75))
                again = classify.msf(st, budget=budget, starts=starts, rng=rng_from_seed(75))
                assert res.evals <= budget, (d, budget)
                assert res.f_value >= floor - 1e-12, (d, budget)
                assert (res.f_value, res.evals, res.iterations) == (
                    again.f_value, again.evals, again.iterations
                )
                assert np.array_equal(res.unitary, again.unitary)

    def test_local_unitary_invariance(self):
        for d in (2, 3):
            rng = rng_from_seed(55 + d)
            st = random_bipartite(d, d, rng)
            local = np.kron(haar_unitary(d, rng), haar_unitary(d, rng))
            rotated = BipartiteState(d, d, DensityMatrix(local @ st.mat @ local.conj().T))
            res = classify.msf(st, rng=rng_from_seed(60 + d))
            res_rot = classify.msf(rotated, rng=rng_from_seed(65 + d))
            assert res_rot.f_value == pytest.approx(res.f_value, abs=1e-9), d

    def test_matches_exact_two_qubit_formula(self):
        rng = rng_from_seed(31)
        for i in range(15):
            st = random_bipartite(2, 2, rng)
            res = classify.msf(st, budget=8000, starts=16, rng=rng_from_seed(100 + i))
            assert res.f_value == pytest.approx(exact_entangled_fraction_2q(st.mat), abs=1e-9)

    def test_never_below_unoptimized_point(self, rng):
        st = random_bipartite(3, 3, rng)
        res = classify.msf(st, budget=4000, starts=8, rng=rng_from_seed(32))
        assert res.f_value >= classify.entangled_overlap_direct(st, np.eye(3)) - 1e-12

    def test_beats_brute_force_sampling(self):
        rng = rng_from_seed(33)
        st = random_bipartite(2, 2, rng)
        res = classify.msf(st, rng=rng_from_seed(34))
        brute = brute_force_msf(st.mat, 2, 20_000, rng_from_seed(35))
        assert res.f_value >= brute - 1e-6

    def test_fidelity_formula(self):
        res = classify.msf(bell_44(), budget=2000, starts=4, rng=rng_from_seed(36))
        d = 2
        assert res.fidelity == (d * res.f_value + 1) / (d + 1)

    def test_rejects_non_square(self, rng):
        with pytest.raises(ValueError):
            classify.msf(random_bipartite(2, 3, rng), rng=rng_from_seed(37))


# (d, index, F) of msf on a Hilbert-Schmidt state at the default budget and
# starts, and (d, index, F before, F after) of verify_msf_bound with a
# 3-unitary mixture at criterion 7's d = 3 budget; every search converged.
# Any rewrite of the ascent must reproduce F.  The comments give
# (iterations, evals), which are reproducible on one NumPy/BLAS build only
# and so are not asserted; evals counted two per start and step when they
# were recorded.  The d = 4 values were recorded by the polar step alone;
# with the Newton step the same F took the second pair.  Bound checks 2 and
# 31 have a side that ran 24 and 28 steps while starts below the best
# crawled over flat lower maxima, which retiring those starts cuts short.
MSF_GOLDEN = [
    (3, 0, 0.2374147421207682),  # 13, 566
    (3, 1, 0.3155241102224036),  # 9, 454
    (3, 2, 0.2512108097104785),  # 11, 578
    (4, 0, 0.18549656846688942),  # 86, 2082; 12, 576
    (4, 1, 0.19033407991978868),  # 102, 2759; 12, 602
    (4, 2, 0.1705289109850212),  # 360, 6221; 13, 614
]
MSF_BOUND_GOLDEN = [
    (3, 0, 0.2682665214951827, 0.18681377542099095),  # 13, 414 and 11, 438
    (3, 1, 0.36186316095533366, 0.25028278301185636),  # 8, 344 and 10, 386
    (3, 2, 0.26297847488330184, 0.2192157598204772),  # 13, 420 and 24, 434
    (3, 31, 0.2566370235219714, 0.21455658028176375),  # 28, 652 and 9, 388
]


@pytest.mark.parametrize("d, index, f_value", MSF_GOLDEN, ids=[f"d{d}-{i}" for d, i, _ in MSF_GOLDEN])
def test_msf_matches_recorded_values(d, index, f_value):
    st = random_bipartite(d, d, rng_from_seed(5200 + 10 * d + index))
    res = classify.msf(st, rng=rng_from_seed(5300 + 10 * d + index))
    assert res.converged
    assert abs(res.f_value - f_value) <= 1e-12


@pytest.mark.parametrize(
    "d, index, before, after", MSF_BOUND_GOLDEN, ids=[f"d{d}-{i}" for d, i, *_ in MSF_BOUND_GOLDEN]
)
def test_msf_bound_matches_recorded_values(d, index, before, after):
    st = random_bipartite(d, d, rng_from_seed(5400 + index))
    ch = random_unital_mixture(d, rng_from_seed(5500 + index), n_unitaries=3)
    bound = classify.verify_msf_bound(st, ch, budget=12000, starts=24, rng=rng_from_seed(5600 + index))
    assert bound.before.converged and bound.after.converged
    assert abs(bound.before.f_value - before) <= 1e-12
    assert abs(bound.after.f_value - after) <= 1e-12
    assert bound.holds


def test_newton_candidates_that_lose_fall_back_on_the_polar_step(monkeypatch):
    # every evaluation is a Newton candidate, a polar fallback or a start
    calls = {"newton": 0, "polar": 0}
    newton, polar = classify._newton_candidates, linalg.polar_factors

    def counted(name, fn):
        def wrapped(*args):
            out = fn(*args)
            calls[name] += len(out)
            return out

        return wrapped

    monkeypatch.setattr(classify, "_newton_candidates", counted("newton", newton))
    monkeypatch.setattr(linalg, "polar_factors", counted("polar", polar))
    d, index, f_value = MSF_GOLDEN[0]
    st = random_bipartite(d, d, rng_from_seed(5200 + 10 * d + index))
    res = classify.msf(st, rng=rng_from_seed(5300 + 10 * d + index))
    assert calls["polar"] > 0
    assert res.evals == classify.DEFAULT_STARTS + calls["newton"] + calls["polar"]
    assert res.converged
    assert abs(res.f_value - f_value) <= 1e-12


class TestRetired:
    """The rule that stops a start which can no longer raise its state's F."""

    def stack(self, n=4, d=3):
        u = np.stack([haar_unitary(d, rng_from_seed(0xD0 + i)) for i in range(n)])
        return u, np.array([0.5, 0.25, 0.25, 0.25])

    def test_best_start_is_never_retired(self):
        u, f = self.stack()
        rows = np.arange(4)
        # no gain left, and merged with itself, yet the best climbs on
        out = classify._retired(u, f, rows, np.zeros(4), 0)
        assert not out[0]
        assert out[1:].all()

    def test_start_equal_to_the_best_up_to_a_phase_is_retired(self):
        u, f = self.stack()
        u[2] = np.exp(0.7j) * u[0]
        rows = np.array([1, 2, 3])
        # the gains would reach the best's f; only start 2 has merged with it
        out = classify._retired(u, f, rows, np.ones(3), 10)
        assert out.tolist() == [False, True, False]

    def test_lower_start_is_kept_while_its_gain_can_reach_the_best(self):
        u, f = self.stack()
        rows = np.array([1])
        # 0.25 + 2**-10 * 256 = 0.5 exactly: the best's f is reachable
        assert not classify._retired(u, f, rows, np.array([2.0**-10]), 256)[0]
        assert classify._retired(u, f, rows, np.array([2.0**-10]), 255)[0]


def unitary_exp(u: np.ndarray, x: np.ndarray) -> np.ndarray:
    """U e^{iX} for a Hermitian X."""
    lam, v = np.linalg.eigh(x)
    return u @ (v * np.exp(1j * lam)) @ v.conj().T


class TestNewtonModel:
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_basis_is_traceless_and_orthonormal(self, d):
        basis = classify._traceless_basis(d)
        assert basis.shape == (d * d - 1, d, d)
        assert np.abs(basis - basis.conj().transpose(0, 2, 1)).max() == 0
        assert np.abs(np.trace(basis, axis1=1, axis2=2)).max() <= 1e-15
        gram = np.einsum("kij,lji->kl", basis, basis)
        assert np.abs(gram - np.eye(d * d - 1)).max() <= 1e-15

    @pytest.mark.parametrize("d", [2, 3])
    def test_gradient_and_hessian_match_central_differences(self, d):
        t = 1e-4
        basis = classify._traceless_basis(d)
        k = len(basis)
        for i in range(3):
            st = random_bipartite(d, d, substream(0xE4 + d, 2 * i))
            u = haar_unitary(d, substream(0xE4 + d, 2 * i + 1))
            m_t = classify._overlap_matrix(st)
            g = (u.reshape(d * d) @ m_t).reshape(d, d)
            grad, hess = classify._newton_model(u[None], g[None], [m_t], [1])

            def f(x):
                return classify.entangled_overlap_direct(st, unitary_exp(u, x))

            fd_grad = np.array([(f(t * h) - f(-t * h)) / (2 * t) for h in basis])
            fd_hess = np.empty((k, k))
            for a in range(k):
                for b in range(k):
                    fd_hess[a, b] = (
                        f(t * (basis[a] + basis[b]))
                        - f(t * (basis[a] - basis[b]))
                        - f(t * (basis[b] - basis[a]))
                        + f(-t * (basis[a] + basis[b]))
                    ) / (4 * t * t)
            assert np.abs(grad[0] - fd_grad).max() <= 1e-6 * np.abs(grad[0]).max(), (d, i)
            assert np.abs(hess[0] - fd_hess).max() <= 1e-6 * np.abs(hess[0]).max(), (d, i)


class TestMsfBound:
    def test_identity_channel_equality(self):
        bound = classify.verify_msf_bound(
            bell_44(), chn.identity_channel(2), budget=4000, starts=8, rng=rng_from_seed(38)
        )
        assert bound.holds
        assert bound.after.f_value == pytest.approx(bound.before.f_value, abs=1e-9)

    def test_depolarizing_closed_form(self):
        for p in (0.2, 0.7):
            bound = classify.verify_msf_bound(
                bell_44(), chn.depolarizing(2, p), rng=rng_from_seed(39)
            )
            assert bound.holds
            assert bound.after.f_value == pytest.approx((1 + 3 * p) / 4, abs=1e-8)

    def test_non_unital_rejected(self):
        with pytest.raises(ValueError, match="unital"):
            classify.verify_msf_bound(bell_44(), amplitude_damping(0.3), rng=rng_from_seed(40))

    def test_random_unital_pairs_hold(self):
        for i in range(10):
            st = random_bipartite(2, 2, rng_from_seed(500 + i))
            ch = random_unital_mixture(2, rng_from_seed(600 + i), n_unitaries=3)
            bound = classify.verify_msf_bound(
                st, ch, budget=6000, starts=12, rng=rng_from_seed(700 + i)
            )
            assert bound.holds


def assert_same_search(batched: classify.MsfResult, alone: classify.MsfResult) -> None:
    assert abs(batched.f_value - alone.f_value) <= 1e-12
    assert batched.f_upper == alone.f_upper
    assert (batched.iterations, batched.evals, batched.converged) == (
        alone.iterations, alone.evals, alone.converged
    )


class TestMsfBatch:
    """One batched bound check equals two msf calls on one rng, rho first."""

    STARTS = 4

    @pytest.mark.parametrize("d", [2, 3, 4, 5])  # d = 5 climbs by the polar step alone
    @pytest.mark.parametrize("budget", [1, STARTS, STARTS + 1, 2 * STARTS + 1, 2000])
    def test_bound_equals_two_sequential_searches(self, d, budget):
        state = random_bipartite(d, d, rng_from_seed(80 + d))
        ch = random_unital_mixture(d, rng_from_seed(90 + d), n_unitaries=3)
        batched_rng, serial_rng = rng_from_seed(95), rng_from_seed(95)
        bound = classify.verify_msf_bound(
            state, ch, budget=budget, starts=self.STARTS, rng=batched_rng
        )
        before = classify.msf(state, budget=budget, starts=self.STARTS, rng=serial_rng)
        after = classify.msf(
            ch.apply_local_b(state), budget=budget, starts=self.STARTS, rng=serial_rng
        )
        assert_same_search(bound.before, before)
        assert_same_search(bound.after, after)
        assert bound.before.evals <= budget and bound.after.evals <= budget
        assert np.array_equal(batched_rng.standard_normal(8), serial_rng.standard_normal(8))

    def test_one_side_closes_at_start_the_other_climbs(self):
        # U = I attains F = 1 on the Bell state, so its bracket closes before
        # any step; its image under a unital mixture keeps climbing alone
        ch = random_unital_mixture(2, rng_from_seed(96), n_unitaries=3)
        batched_rng, serial_rng = rng_from_seed(97), rng_from_seed(97)
        bound = classify.verify_msf_bound(bell_44(), ch, rng=batched_rng)
        assert bound.before.iterations == 0 and bound.before.converged
        assert bound.after.iterations > 0
        before = classify.msf(bell_44(), rng=serial_rng)
        after = classify.msf(ch.apply_local_b(bell_44()), rng=serial_rng)
        assert_same_search(bound.before, before)
        assert_same_search(bound.after, after)
        assert np.array_equal(batched_rng.standard_normal(8), serial_rng.standard_normal(8))

    def test_rejects_mixed_dimensions_and_empty_batches(self, rng):
        with pytest.raises(ValueError, match="one local dimension"):
            classify.msf_batch(
                [random_bipartite(2, 2, rng), random_bipartite(3, 3, rng)], rng=rng_from_seed(1)
            )
        with pytest.raises(ValueError, match="at least one state"):
            classify.msf_batch([], rng=rng_from_seed(1))


class TestScan:
    def test_qutrit_scan_clean(self):
        report = classify.scan_channels(3, 18, seed=41, budget=8000)
        assert not report.anomalies
        counts = report.family_counts
        assert counts["completely_decohering"]["cd"] == 3
        assert counts["completely_decohering"]["cp_pass"] == 3
        assert counts["isotropic_unitary"]["isotropic"] == 3
        assert counts["isotropic_transpose"]["cp_pass"] == 3
        assert counts["unital_mixture"]["creator"] == 3
        assert counts["block_unitary_mixture"]["creator"] == 3
        assert counts["random_cptp"]["creator"] == 3

    def test_qubit_scan_dichotomy(self):
        report = classify.scan_channels(2, 10, seed=42, budget=8000)
        assert not report.anomalies
        # at d=2 unital mixtures preserve commutativity
        assert report.family_counts["unital_mixture"]["cp_pass"] == 2

    def test_rejects_empty_families(self):
        with pytest.raises(ValueError, match="family"):
            classify.scan_channels(3, 2, seed=41, families=())

    def test_rows_reproducible(self):
        a = classify.scan_channels(3, 6, seed=43, budget=4000)
        b = classify.scan_channels(3, 6, seed=43, budget=4000)
        assert [r.max_violation for r in a.rows] == [r.max_violation for r in b.rows]

    def test_workers_do_not_change_results(self):
        a = classify.scan_channels(3, 6, seed=44, budget=4000, workers=1)
        b = classify.scan_channels(3, 6, seed=44, budget=4000, workers=2)
        assert [r.label for r in a.rows] == [r.label for r in b.rows]
        assert [r.max_violation for r in a.rows] == [r.max_violation for r in b.rows]
