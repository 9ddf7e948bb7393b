"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
summary lines.  All runs are seeded; budgets use the library defaults
unless a criterion's runtime target requires noting otherwise.
"""

import time

import numpy as np
import pytest
from helpers import (
    brute_force_msf,
    exact_entangled_fraction_2q,
    grid_oracle_is_classical,
)

from qcorr import channels as chn
from qcorr import classify, linalg
from qcorr.channels import maximally_entangled_ket
from qcorr.sampling import (
    random_bipartite,
    random_completely_decohering,
    random_cptp,
    random_half_classical,
    random_isotropic,
    random_unital_mixture,
    rng_from_seed,
    substream,
)
from qcorr.states import BipartiteState, DensityMatrix, is_classical_on_b


def announce(criterion: str, passed: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} ({detail})")


def rotation2(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s], [s, c]], dtype=complex)


def test_criterion_1_creation_soundness():
    """Violating channels always yield verified creation witnesses."""
    t0 = time.perf_counter()
    seed = 0xA1
    checked = 0
    witnesses = 0
    for d in (2, 3, 4):
        for i in range(200):
            idx = d * 1000 + i
            channel = random_cptp(d, substream(seed, 2 * idx))
            verdict = classify.is_commutativity_preserving(channel)
            checked += 1
            if verdict.preserving or verdict.max_violation <= 1e-6:
                continue
            witness = classify.witness_from_pair(channel, *verdict.witness_pair)
            assert witness.input_quantumness <= 1e-9, (d, i)
            assert is_classical_on_b(witness.input_state).is_classical_on_b, (d, i)
            assert witness.output_quantumness > 1e-7, (d, i)
            witnesses += 1
    elapsed = time.perf_counter() - t0
    detail = f"{checked} channels, {witnesses} witnesses verified, {elapsed:.1f}s"
    announce("1 (creation witnesses from violations)", True, detail)
    assert witnesses >= 0.95 * checked  # random channels essentially always violate
    assert elapsed < 300


def test_criterion_2_preserving_families():
    """Decohering and isotropic channels pass the search and keep states classical."""
    t0 = time.perf_counter()
    seed = 0xA2
    n_channels = 0
    n_states = 0
    for d in (2, 3, 4):
        for i in range(200):
            idx = d * 1000 + i
            sampler = substream(seed, 3 * idx)
            if i < 100:
                channel = random_completely_decohering(d, sampler)
            else:
                channel = random_isotropic(d, sampler)
            verdict = classify.is_commutativity_preserving(channel)
            assert verdict.preserving, (d, i, verdict.max_violation)
            assert verdict.max_violation < 1e-7, (d, i, verdict.max_violation)
            n_channels += 1
            state_rng = substream(seed, 3 * idx + 2)
            for _ in range(50):
                state = random_half_classical(2, d, state_rng)
                out = channel.apply_local_b(state)
                q = is_classical_on_b(out).quantumness
                assert q < 1e-8, (d, i, q)
                n_states += 1
    elapsed = time.perf_counter() - t0
    detail = f"{n_channels} channels x 50 inputs ({n_states} states), {elapsed:.1f}s"
    announce("2 (preserving families stay classical)", True, detail)
    assert elapsed < 300


def test_criterion_3_qubit_dichotomy():
    """Creator label coincides exactly with a failed preservation search."""
    seed = 0xA3
    disagreements = 0
    labels = {"creator": 0, "other": 0}
    for i in range(500):
        channel = random_cptp(2, substream(seed, 2 * i))
        verdict = classify.classify_qubit(channel)
        is_creator = verdict.label == "creator"
        cp_fails = not verdict.cp.preserving
        if is_creator != cp_fails:
            disagreements += 1
        if verdict.label in ("unital_mixing", "completely_decohering"):
            assert verdict.cp.preserving, i
        labels["creator" if is_creator else "other"] += 1
    announce(
        "3 (qubit dichotomy)",
        disagreements == 0,
        f"500 channels, {labels['creator']} creators, {disagreements} disagreements",
    )
    assert disagreements == 0


def test_criterion_4_qutrit_consistency():
    """Generic unital qutrit mixtures create; isotropic and decohering never do."""
    seed = 0xA4
    anomalies = 0
    for i in range(100):
        channel = random_unital_mixture(3, substream(seed, 2 * i))
        verdict = classify.classify_qutrit(channel)
        if verdict.label != "creator":
            anomalies += 1
            continue
        witness = verdict.witness
        assert witness.input_quantumness <= 1e-9, i
        assert witness.output_quantumness > 1e-7, i
    for i in range(100, 200):
        sampler = substream(seed, 2 * i)
        if i < 150:
            channel = random_isotropic(3, sampler)
        else:
            channel = random_completely_decohering(3, sampler)
        verdict = classify.classify_qutrit(channel)
        if verdict.label == "creator":
            anomalies += 1
    announce("4 (qutrit trichotomy)", anomalies == 0, f"200 channels, {anomalies} anomalies")
    assert anomalies == 0


def _example_channel() -> chn.KrausChannel:
    e = np.array([1.0, 1.0]) / np.sqrt(2)
    return chn.block_unitary_mixture(e, [np.eye(2), rotation2(np.pi / 4)])


def test_criterion_5_example_channel_commuting_cases():
    """Pairs with reduced overlap 0 give commuting outputs on the example channel."""
    channel = _example_channel()
    e0 = np.array([1.0, 0, 0])
    e1 = np.array([0, 1.0, 0])
    e2 = np.array([0, 0, 1.0])
    residuals = []
    for phi, psi in ((e0, e1), (e2, e0)):
        a = channel.apply_matrix(np.outer(phi, phi.conj()))
        b = channel.apply_matrix(np.outer(psi, psi.conj()))
        residuals.append(linalg.frobenius(linalg.commutator(a, b)))
        assert not classify.block_overlap_enables_creation(phi, psi)
    detail = f"commutator residuals {residuals[0]:.2e}, {residuals[1]:.2e}"
    announce("5 (example channel, overlap-0 pairs commute)", max(residuals) < 1e-10, detail)
    assert max(residuals) < 1e-10


def test_criterion_5_example_channel_stated_pair():
    """Stated pair (|0>+|2>)/sqrt2, (|0>-|2>)/sqrt2 must produce a witness.

    The pair has reduced overlap 1/2, but that value saturates
    ||phi_r|| ||psi_r|| = 1/2: the reduced vectors are proportional (both
    are |0>/sqrt2), the channel outputs coincide exactly, and no witness
    can exist.  Kept as stated; the assertion below documents the gap.  A
    pair that does create (reduced overlap strictly between 0 and the norm
    product) is exercised for contrast.
    """
    channel = _example_channel()
    phi = np.array([1.0, 0, 1.0]) / np.sqrt(2)
    psi = np.array([1.0, 0, -1.0]) / np.sqrt(2)
    assert abs(classify.block_overlap(phi, psi) - 0.5) < 1e-12

    # contrast pair: reduced overlap 1/sqrt6 < norm product 1/sqrt3
    good_phi = np.array([1.0, 0, 1.0]) / np.sqrt(2)
    good_psi = np.array([1.0, 1.0, -1.0]) / np.sqrt(3)
    good = classify.witness_from_pair(channel, good_phi, good_psi)
    assert good.output_quantumness > 1e-3
    print(
        f"\n  contrast pair witness verified: output quantumness "
        f"{good.output_quantumness:.3e}"
    )

    witness = classify.witness_from_pair(channel, phi, psi)
    passed = witness.output_quantumness > 1e-7
    announce(
        "5 (example channel, stated pair creates)",
        passed,
        f"output quantumness {witness.output_quantumness:.3e}; "
        f"outputs are identical because the reduced vectors are proportional",
    )
    assert passed, (
        "the stated pair cannot witness creation: both reduced vectors equal "
        "|0>/sqrt2, so the channel outputs coincide and commute exactly"
    )


def test_criterion_6_transpose_boundary():
    """Transpose-case Choi minimum eigenvalue crosses zero at 1/(d+1)."""
    worst = 0.0
    for d in (2, 3, 4):
        u = substream(0xA6, d)
        from qcorr.sampling import haar_unitary

        found = chn.isotropic_boundary(d, "transpose", "upper", haar_unitary(d, u))
        worst = max(worst, abs(found - 1.0 / (d + 1)))
    announce("6 (transpose-case boundary 1/(d+1))", worst <= 1e-8, f"worst error {worst:.2e}")
    assert worst <= 1e-8


def test_criterion_6_unitary_boundary():
    """Unitary-case Choi minimum eigenvalue must cross zero at -1/(d-1).

    Kept as stated.  The Choi of p |Phi_U><Phi_U| + (1-p) I/d^2 has minimum
    eigenvalue (p (d^2-1) + 1)/d^2 for p < 0, which crosses zero at
    -1/(d^2-1); -1/(d-1) is where the map stops being positive, not where
    it stops being completely positive, so this assertion fails.
    """
    from qcorr.sampling import haar_unitary

    found = {}
    for d in (2, 3, 4):
        u = haar_unitary(d, substream(0xA6, 10 + d))
        found[d] = chn.isotropic_boundary(d, "unitary", "lower", u)
    worst = max(abs(found[d] + 1.0 / (d - 1)) for d in found)
    detail = (
        f"bisection finds {found[2]:.6f}, {found[3]:.6f}, {found[4]:.6f} "
        f"= -1/(d^2-1); asserted -1/(d-1): worst gap {worst:.3f}"
    )
    announce("6 (unitary-case boundary -1/(d-1))", worst <= 1e-8, detail)
    assert worst <= 1e-8, (
        "complete positivity of the unitary-case family ends at -1/(d^2-1), "
        f"not -1/(d-1): measured crossings {found}"
    )


def test_criterion_7_fidelity_bound():
    """Unital channels never raise the maximal entangled fraction."""
    t0 = time.perf_counter()
    seed = 0xA7
    violations = 0
    for i in range(1000):
        state = random_bipartite(2, 2, substream(seed, 3 * i))
        n_u = int(substream(seed, 3 * i + 1).integers(2, 5))
        channel = random_unital_mixture(2, substream(seed, 3 * i + 1), n_unitaries=n_u)
        bound = classify.verify_msf_bound(
            state, channel, budget=6000, starts=12, rng=substream(seed, 3 * i + 2)
        )
        if not bound.holds:
            violations += 1
    for i in range(1000, 1200):
        state = random_bipartite(3, 3, substream(seed, 3 * i))
        n_u = int(substream(seed, 3 * i + 1).integers(2, 5))
        channel = random_unital_mixture(3, substream(seed, 3 * i + 1), n_unitaries=n_u)
        bound = classify.verify_msf_bound(
            state, channel, budget=12000, starts=24, rng=substream(seed, 3 * i + 2)
        )
        if not bound.holds:
            violations += 1

    # closed form: Bell pair through qubit depolarizing
    bell = BipartiteState(2, 2, DensityMatrix.pure(maximally_entangled_ket(2)))
    worst_cf = 0.0
    for p in (0.1, 0.35, 0.8):
        bound = classify.verify_msf_bound(
            bell, chn.depolarizing(2, p), rng=rng_from_seed(0xA70)
        )
        assert bound.holds
        worst_cf = max(worst_cf, abs(bound.after.f_value - (1 + 3 * p) / 4))
        assert bound.after.fidelity == (2 * bound.after.f_value + 1) / 3  # exact substitution
    elapsed = time.perf_counter() - t0
    detail = (
        f"1200 random pairs, {violations} violations; closed-form error "
        f"{worst_cf:.2e}; {elapsed:.0f}s"
    )
    announce("7 (fidelity never improved by unital channels)", violations == 0 and worst_cf <= 1e-8, detail)
    assert violations == 0
    assert worst_cf <= 1e-8


def test_criterion_8_oracle_equivalences():
    """Detectors agree with brute-force oracles.

    Classicality: detector verdict vs a dense measurement-basis grid on 200
    dim-B=2 states (half generic, half classical constructions).  Entangled
    fraction: the optimizer must never fall below 10^5-sample random-unitary
    brute force minus 1e-4 (the sampling oracle is one-sided: its own
    resolution at 10^5 samples is coarser than 1e-4, see the measured gap),
    and must match the exact two-qubit closed form to 1e-6.
    """
    seed = 0xA8
    disagreements = 0
    for i in range(200):
        sampler = substream(seed, i)
        if i % 2 == 0:
            state = random_bipartite(2, 2, sampler)
        else:
            state = random_half_classical(2, 2, sampler)
        detector = is_classical_on_b(state).quantumness <= 1e-6
        oracle = grid_oracle_is_classical(state)
        if detector != oracle:
            disagreements += 1

    max_below = 0.0  # how far msf fell below the sampling brute force
    max_gap = 0.0  # how far the brute force trails the exact value
    worst_exact = 0.0
    for i in range(50):
        state = random_bipartite(2, 2, substream(seed, 1000 + 2 * i))
        res = classify.msf(state, rng=substream(seed, 1000 + 2 * i + 1))
        brute = brute_force_msf(state.mat, 2, 100_000, substream(seed, 2000 + i))
        exact = exact_entangled_fraction_2q(state.mat)
        max_below = max(max_below, brute - res.f_value)
        max_gap = max(max_gap, exact - brute)
        worst_exact = max(worst_exact, abs(res.f_value - exact))

    detail = (
        f"classicality: {disagreements}/200 disagreements; msf vs brute force: "
        f"below by {max_below:.2e} (oracle resolution {max_gap:.2e}); "
        f"msf vs exact: {worst_exact:.2e}"
    )
    passed = disagreements == 0 and max_below <= 1e-4 and worst_exact <= 1e-6
    announce("8 (oracle equivalences)", passed, detail)
    assert disagreements == 0
    assert max_below <= 1e-4
    assert worst_exact <= 1e-6


def test_criterion_9_conjecture_scan_d4():
    """No d=4 channel breaks the (decohering or isotropic) <=> preserving pattern."""
    t0 = time.perf_counter()
    report = classify.scan_channels(4, 300, seed=0xA9)
    elapsed = time.perf_counter() - t0
    counts = {f: c for f, c in report.family_counts.items()}
    preserving = sum(c["cp_pass"] for c in counts.values())
    certified = sum(r.cp_preserving and r.cp_certified for r in report.rows)
    detail = (
        f"300 channels, {preserving} preserving ({certified} certified), "
        f"{len(report.anomalies)} anomalies, {elapsed:.0f}s"
    )
    announce("9 (d=4 scan)", not report.anomalies, detail)
    for family in ("completely_decohering", "isotropic_unitary", "isotropic_transpose"):
        assert counts[family]["cp_pass"] == sum(
            v for k, v in counts[family].items() if k != "cp_pass"
        ), family
    assert not report.anomalies
