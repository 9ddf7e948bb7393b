"""Embedded invariant suite behind the `qcorr selftest` command.

Groups mirror the library layers: linear algebra residuals, state
constructor/detector round trips, channel representation round trips and
the isotropic positivity boundaries, and sampler determinism.  Residual
checks compare against the configured tolerance, so absurd tolerances fail
loudly instead of being absorbed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import channels as chn
from . import linalg
from .sampling import (
    haar_isometries,
    haar_unitaries,
    haar_unitary,
    random_commuting_pair,
    random_cptp,
    random_density,
    random_half_classical,
    rng_from_seed,
    substream,
)
from .states import DensityMatrix, is_classical_on_b, make_half_classical, measure_and_dephase


@dataclass(frozen=True)
class Check:
    group: str
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class SelftestReport:
    checks: tuple[Check, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def group_summary(self) -> dict:
        groups: dict = {}
        for c in self.checks:
            g = groups.setdefault(c.group, {"passed": 0, "failed": 0})
            g["passed" if c.passed else "failed"] += 1
        return groups

    def to_json(self) -> dict:
        return {
            "passed": self.passed,
            "groups": self.group_summary(),
            "checks": [
                {"group": c.group, "name": c.name, "passed": c.passed, "detail": c.detail}
                for c in self.checks
            ],
        }


def run_selftest(tol: float = 1e-7, seed: int = 7) -> SelftestReport:
    checks: list[Check] = []

    def record(group: str, name: str, passed: bool, detail: str) -> None:
        checks.append(Check(group, name, bool(passed), detail))

    rng = rng_from_seed(seed)

    # --- linalg ------------------------------------------------------------
    worst = 0.0
    for d in (2, 3, 5, 8):
        for _ in range(10):
            g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            h = linalg.hermitian_part(g)
            spec = linalg.hermitian_eig(h)
            recon = (spec.eigenvectors * spec.eigenvalues) @ spec.eigenvectors.conj().T
            worst = max(worst, linalg.frobenius(recon - h) / (1 + linalg.frobenius(h)))
    record("linalg", "eig_reconstruction", worst <= tol, f"worst residual {worst:.2e}")

    u = haar_unitary(4, rng)
    spectra = [rng.standard_normal(4) for _ in range(3)]
    fam = [(u * s) @ u.conj().T for s in spectra]
    v = linalg.simultaneous_diagonalization(fam, tol=max(tol, 1e-9))
    off = max(
        linalg.frobenius(t - np.diag(np.diag(t)))
        for t in (v.conj().T @ m @ v for m in fam)
    )
    record("linalg", "simultaneous_diagonalization", off <= tol, f"off-diag {off:.2e}")

    s = linalg.von_neumann_entropy(np.eye(3) / 3)
    record("linalg", "entropy_maximally_mixed", abs(s - np.log2(3)) <= tol, f"S={s:.12f}")

    # --- states ------------------------------------------------------------
    worst_q = 0.0
    for _ in range(10):
        st = random_half_classical(2, 3, rng)
        worst_q = max(worst_q, is_classical_on_b(st).quantumness)
    record("states", "half_classical_round_trip", worst_q <= tol, f"worst quantumness {worst_q:.2e}")

    st = random_half_classical(2, 2, rng)
    basis = haar_unitary(2, rng)
    once = measure_and_dephase(st, basis)
    twice = measure_and_dephase(once, basis)
    drift = linalg.frobenius(twice.mat - once.mat)
    record("states", "dephasing_idempotent", drift <= tol, f"drift {drift:.2e}")

    bell = DensityMatrix.pure(chn.maximally_entangled_ket(2))
    from .states import BipartiteState

    rep = is_classical_on_b(BipartiteState(2, 2, bell))
    record("states", "bell_state_detected", rep.quantumness > 0.1, f"quantumness {rep.quantumness:.3f}")

    # --- channels ----------------------------------------------------------
    worst_rt = 0.0
    for d in (2, 3):
        ch = random_cptp(d, rng)
        back = chn.kraus_from_choi(chn.choi_matrix(ch))
        worst_rt = max(worst_rt, chn.channel_action_distance(ch, back))
    record("channels", "choi_kraus_round_trip", worst_rt <= tol, f"worst action distance {worst_rt:.2e}")

    ch = random_cptp(3, rng)
    worst_dual = 0.0
    for _ in range(20):
        a = random_density(3, rng).mat
        b = random_density(3, rng).mat
        lhs = np.trace(a @ ch.apply_matrix(b))
        rhs = np.trace(ch.apply_adjoint(a) @ b)
        worst_dual = max(worst_dual, abs(lhs - rhs))
    record("channels", "adjoint_duality", worst_dual <= tol, f"worst residual {worst_dual:.2e}")

    # Isotropic positivity boundaries against the closed forms.  Note the
    # unitary-case lower boundary sits at -1/(d^2-1): complete positivity is
    # stricter there than positivity, which alone would reach -1/(d-1).
    worst_b = 0.0
    for d in (2, 3, 4):
        uu = haar_unitary(d, rng)
        checks_b = [
            ("transpose", "lower", -1.0 / (d - 1)),
            ("transpose", "upper", 1.0 / (d + 1)),
            ("unitary", "upper", 1.0),
            ("unitary", "lower", -1.0 / (d * d - 1)),
        ]
        for gamma, side, expected in checks_b:
            found = chn.isotropic_boundary(d, gamma, side, uu)
            worst_b = max(worst_b, abs(found - expected))
    record("channels", "isotropic_psd_boundaries", worst_b <= max(tol, 1e-10), f"worst |found-expected| {worst_b:.2e}")

    # --- sampling ----------------------------------------------------------
    worst_u = 0.0
    for d in (2, 4, 8):
        for _ in range(5):
            uu = haar_unitary(d, rng)
            worst_u = max(worst_u, linalg.frobenius(uu.conj().T @ uu - np.eye(d)))
    record("sampling", "haar_unitarity", worst_u <= tol, f"worst residual {worst_u:.2e}")

    a, b = random_commuting_pair(4, rng)
    comm = linalg.frobenius(linalg.commutator(a.mat, b.mat))
    record("sampling", "commuting_pair", comm <= tol, f"commutator norm {comm:.2e}")

    x = substream(seed, 3).standard_normal(16)
    y = substream(seed, 3).standard_normal(16)
    record("sampling", "substream_determinism", bool(np.all(x == y)), "identical draws from equal substreams")

    single_rng = substream(seed, 4)
    single = [haar_unitary(3, single_rng) for _ in range(5)]
    batch_rng = substream(seed, 4)
    batch = haar_unitaries(3, 5, batch_rng)
    same = np.array_equal(batch, single) and single_rng.standard_normal() == batch_rng.standard_normal()
    record("sampling", "haar_batch_matches_single", same, "equal substreams give the same unitaries one at a time and stacked")

    # a Stinespring-shaped draw: 9 x 3 isometries, as random_cptp takes at d = 3, env = 3
    unitary_rng = substream(seed, 5)
    kept = haar_unitaries(9, 2, unitary_rng)[..., :3]
    isometry_rng = substream(seed, 5)
    iso = haar_isometries(9, 3, 2, isometry_rng)
    same = np.array_equal(iso, kept) and unitary_rng.standard_normal() == isometry_rng.standard_normal()
    record("sampling", "haar_isometry_matches_unitary", same, "equal substreams give the kept columns of the unitaries and the isometries")

    return SelftestReport(tuple(checks))
