"""The three benchmark workloads: inputs from a seed, one operation, its oracle.

Every workload draws all of its inputs from the benchmark seed and hands the
library only those inputs.  An operation is one verdict; `run` performs it
(this is what is timed) and `check` compares its output with a known answer
(this is not timed).  The order of input classes in a round is the same for
every seed, so runs of different seeds measure the same mix.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass

import numpy as np

from qcorr import channels as chn
from qcorr import classify, cli, jsonio
from qcorr.sampling import (
    random_bipartite,
    random_completely_decohering,
    random_cptp,
    random_isotropic,
    random_unital_mixture,
    rng_from_seed,
)

import oracles


def derive_seed(seed: int, stream: int, index: int) -> int:
    """A 63-bit seed for input `index` of workload stream `stream`."""
    state = np.random.SeedSequence(entropy=seed, spawn_key=(stream, index)).generate_state(2)
    return (int(state[0]) << 31 ^ int(state[1])) & (2**63 - 1)


@dataclass(frozen=True)
class Op:
    """One operation: its input class, dimension, inputs and expected answer."""

    key: str
    dim: int
    seed: int
    expected: str
    data: tuple = ()


# ---------------------------------------------------------------------------
# census: one scan job of one channel of one family
# ---------------------------------------------------------------------------


class Census:
    """classify.scan_channels on one channel per operation, criterion 9 shape.

    A round is two d = 4 channels of each of the six families, alternating
    preserving and creating families, then one d = 8 channel.  The d = 8
    slice takes the two unital families that are not isotropic (the
    channels the d >= 4 conjecture is about); their verdicts run the
    isotropic fit, whose 64 x 64 Choi spectra go to LAPACK eigh.
    """

    name = "census"
    stream = 1
    rounds = 40
    round_len = 13
    traced_ops = 26
    D4_ORDER = (
        "completely_decohering",
        "unital_mixture",
        "isotropic_unitary",
        "block_unitary_mixture",
        "isotropic_transpose",
        "random_cptp",
    )
    D8_ORDER = ("unital_mixture", "block_unitary_mixture")
    EXPECTED = {
        "completely_decohering": classify.LABEL_CD,
        "isotropic_unitary": classify.LABEL_ISOTROPIC,
        "isotropic_transpose": classify.LABEL_ISOTROPIC,
        "unital_mixture": classify.LABEL_CREATOR,
        "block_unitary_mixture": classify.LABEL_CREATOR,
        "random_cptp": classify.LABEL_CREATOR,
    }

    def __init__(self, workdir: str) -> None:
        self.workdir = workdir

    def build(self, seed: int) -> list[Op]:
        plan = []
        for r in range(self.rounds):
            plan += [(4, f) for f in self.D4_ORDER * 2]
            plan.append((8, self.D8_ORDER[r % len(self.D8_ORDER)]))
        return [
            Op(f"d{d}/{fam}", d, derive_seed(seed, self.stream, i), self.EXPECTED[fam], (fam,))
            for i, (d, fam) in enumerate(plan)
        ]

    def warmups(self, ops: list[Op]) -> list[Op]:
        return _first_per_dim(ops)

    def run(self, op: Op):
        return classify.scan_channels(op.dim, 1, seed=op.seed, families=op.data)

    def warm(self, op: Op):
        return self.run(op)

    def verdict(self, op: Op, report) -> dict:
        row = report.rows[0]
        return {"family": row.family, "label": row.label, "preserving": row.cp_preserving,
                "max_violation": row.max_violation, "anomaly": row.anomaly}

    def check(self, op: Op, report) -> list[str]:
        problems = [f"scan anomaly: {r.anomaly}" for r in report.anomalies]
        row = report.rows[0]
        if row.family != op.data[0]:
            problems.append(f"scanned family {row.family}, asked for {op.data[0]}")
        if row.label != op.expected:
            problems.append(f"label {row.label}, expected {op.expected}")
        if row.cp_preserving != (op.expected != classify.LABEL_CREATOR):
            problems.append(f"cp_preserving={row.cp_preserving} for expected {op.expected}")
        return problems

    def fingerprint(self, op: Op) -> bytes:
        return repr((op.key, op.dim, op.seed, op.data)).encode()


# ---------------------------------------------------------------------------
# boundary: one CLI classify on a near-boundary mixture
# ---------------------------------------------------------------------------

PRESERVING = "preserving"
CREATOR = "creator"
CONFIRMED = "creator_confirmed"
UNDECIDED = "creator_or_preserving"
SAMPLED_PAIRS = 256
TOL = 1e-7  # the CLI's default decision tolerance


class Boundary:
    """`qcorr classify` in-process on (1-eps) P + eps R channel files.

    P is completely decohering or isotropic at d = 2, 3, 4 and R a Haar
    CPTP channel.  A round holds every (P kind, eps) pair at d = 2 and
    d = 3, a second d = 2 channel of each kind at eps = 1e-9, one pair at
    d = 4 (rotating over rounds) and one plainly creating Haar channel per
    dimension.  d = 4 verdicts cost about twice a d = 3 one, so a d = 4 slot
    for every pair would leave a run with too few operations for a tail
    percentile; the cheap classes (Haar, d = 2 at eps = 1e-9) make up as many
    operations as the classes above the d = 2 creators, which puts the
    median inside that class rather than on the edge between two classes.
    The expected answer is fixed at set-up without the library's search:

    * eps = 1e-9: P's outputs commute, so every normalized output
      commutator is at most about 4 d eps < tol: a preserving search
      verdict and no creator label.
    * otherwise, from the best of SAMPLED_PAIRS random orthogonal pairs v:
      v > 10 tol requires a creator with a confirmed witness, v > tol a
      creator, and below tol either verdict is accepted if it is
      self-consistent.  (eps = 1e-5 alone does not force a confirmed
      witness: an isotropic qubit P close to depolarizing can leave the
      largest violation below 10 tol.)
    """

    name = "boundary"
    stream = 2
    rounds = 5
    round_len = 18
    traced_ops = 18
    EPSILONS = (1e-3, 1e-5, 1e-9)
    KINDS = ("decohering", "isotropic")
    DIMS = (2, 3, 4)

    def __init__(self, workdir: str) -> None:
        self.workdir = workdir

    def _plan(self) -> list[tuple[int, str, float]]:
        pairs = [(k, e) for e in self.EPSILONS for k in self.KINDS]
        plan = []
        for r in range(self.rounds):
            for k, e in pairs:
                plan += [(2, k, e), (3, k, e)]
            plan += [(2, k, self.EPSILONS[-1]) for k in self.KINDS]
            plan.append((4, *pairs[r % len(pairs)]))
            plan += [(d, "haar", 1.0) for d in self.DIMS]
        return plan

    def build(self, seed: int) -> list[Op]:
        ops = []
        for i, (d, kind, eps) in enumerate(self._plan()):
            rng = rng_from_seed(derive_seed(seed, self.stream, 2 * i))
            if kind == "haar":
                channel = random_cptp(d, rng)
            else:
                p = random_completely_decohering(d, rng) if kind == "decohering" else random_isotropic(d, rng)
                r = random_cptp(d, rng)
                channel = chn.KrausChannel(
                    np.concatenate([np.sqrt(1 - eps) * p.ops, np.sqrt(eps) * r.ops]),
                    kind=f"{kind}_plus_haar",
                    params={"eps": eps},
                )
            path = os.path.join(self.workdir, f"channel-{i:04d}.json")
            jsonio.dump(jsonio.channel_to_json(channel), path)
            if eps < 1e-7:
                expected = PRESERVING
            else:
                v = oracles.sampled_violation(channel.ops, SAMPLED_PAIRS, rng)
                expected = CONFIRMED if v > 10 * TOL else CREATOR if v > TOL else UNDECIDED
            ops.append(
                Op(
                    f"d{d}/{kind}/eps={eps:g}",
                    d,
                    derive_seed(seed, self.stream, 2 * i + 1),
                    expected,
                    (path, path[: -len(".json")] + ".report.json", channel.ops),
                )
            )
        return ops

    def warmups(self, ops: list[Op]) -> list[Op]:
        return _first_per_dim([op for op in ops if "/haar/" in op.key])

    def run(self, op: Op):
        path, out, _ = op.data
        return cli.main(
            ["classify", "--channel", path, "--seed", str(op.seed), "--format", "json", "--out", out]
        )

    def warm(self, op: Op):
        return self.run(op)

    def _result(self, op: Op) -> dict:
        with open(op.data[1]) as fh:
            return json.load(fh)["result"]

    def verdict(self, op: Op, code) -> dict:
        result = self._result(op)
        cp = result.get("cp") or {}
        return {"code": code, "label": result["label"], "preserving": cp.get("preserving"),
                "max_violation": cp.get("max_violation"), "evals": cp.get("evals")}

    def check(self, op: Op, code) -> list[str]:
        if code != 0:
            return [f"exit code {code}"]
        if op.expected not in (PRESERVING, CREATOR, CONFIRMED, UNDECIDED):
            return [f"unknown expectation {op.expected!r}"]
        result = self._result(op)
        label, cp, witness = result["label"], result.get("cp"), result.get("witness")
        if cp is None:
            return [f"label {label} without a search verdict"]
        creator = label == classify.LABEL_CREATOR
        problems = []
        if creator == cp["preserving"]:
            problems.append(f"label {label} disagrees with preserving={cp['preserving']}")
        if op.expected == PRESERVING and (creator or witness is not None):
            problems.append(f"label {label}: creation claimed below tolerance")
        if op.expected in (CREATOR, CONFIRMED) and not creator:
            problems.append(f"label {label}, expected a creator")
        if creator:
            if witness is None:
                return problems + ["creator without a witness"]
            if op.expected == CONFIRMED and not witness["confirmed"]:
                problems.append(
                    f"witness not confirmed (quantumness {witness['output_quantumness']:.3e})"
                )
            problems += oracles.check_witness(witness, op.data[2], float(cp["tol"]))
        return problems

    def fingerprint(self, op: Op) -> bytes:
        with open(op.data[0], "rb") as fh:
            return repr((op.key, op.seed, op.expected)).encode() + fh.read()


# ---------------------------------------------------------------------------
# msf: one verify_msf_bound
# ---------------------------------------------------------------------------


class Msf:
    """classify.verify_msf_bound on Hilbert-Schmidt states, criterion 7 budgets.

    Random unital mixtures of 2-4 Haar unitaries act on B.  d = 2 uses
    6000 evaluations and 12 starts per search, d = 3 uses 12000 and 24.  A
    round is twelve d = 2 checks with one d = 3 check in the middle, so a
    run holds few enough d = 3 checks that the tail percentile stays among
    the d = 2 checks instead of falling between the two dimensions.
    """

    name = "msf"
    stream = 3
    rounds = 12
    round_len = 13
    traced_ops = 13
    BUDGET = {2: (6000, 12), 3: (12000, 24)}
    WARMUP_BUDGET = (300, 2)

    def __init__(self, workdir: str) -> None:
        self.workdir = workdir

    def build(self, seed: int) -> list[Op]:
        ops = []
        for i, d in enumerate(([2] * 6 + [3] + [2] * 6) * self.rounds):
            state = random_bipartite(d, d, rng_from_seed(derive_seed(seed, self.stream, 3 * i)))
            mix_rng = rng_from_seed(derive_seed(seed, self.stream, 3 * i + 1))
            channel = random_unital_mixture(d, mix_rng, n_unitaries=int(mix_rng.integers(2, 5)))
            after = oracles.local_b_action(channel.ops, state.mat, d)
            ops.append(
                Op(f"d{d}", d, derive_seed(seed, self.stream, 3 * i + 2), "holds", (state, channel, after))
            )
        return ops

    def warmups(self, ops: list[Op]) -> list[Op]:
        return _first_per_dim(ops)

    def run(self, op: Op, budget: tuple[int, int] | None = None):
        state, channel, _ = op.data
        b, s = budget or self.BUDGET[op.dim]
        return classify.verify_msf_bound(state, channel, budget=b, starts=s, rng=rng_from_seed(op.seed))

    def warm(self, op: Op):
        return self.run(op, self.WARMUP_BUDGET)

    def verdict(self, op: Op, check) -> dict:
        return {"holds": check.holds, "before": check.before.f_value, "after": check.after.f_value,
                "evals": check.before.evals + check.after.evals}

    def check(self, op: Op, check) -> list[str]:
        if op.expected != "holds":
            return [f"unknown expectation {op.expected!r}"]
        state, _, after = op.data
        return oracles.check_msf_bound(check, state.mat, after, op.dim)

    def fingerprint(self, op: Op) -> bytes:
        state, channel, _ = op.data
        return repr((op.key, op.seed)).encode() + state.mat.tobytes() + channel.ops.tobytes()


WORKLOADS = {cls.name: cls for cls in (Census, Boundary, Msf)}


def _first_per_dim(ops: list[Op]) -> list[Op]:
    seen: dict[int, Op] = {}
    for op in ops:
        seen.setdefault(op.dim, op)
    return list(seen.values())


def inputs_digest(workload, ops: list[Op]) -> str:
    """SHA-256 over every generated input, for bit-identity checks."""
    h = hashlib.sha256()
    for op in ops:
        h.update(workload.fingerprint(op))
    return h.hexdigest()
