"""Command-line front end.

Subcommands: classify, witness, msf, scan, selftest.  Reports are emitted
as JSON (the machine contract) or a short text summary; they echo the
configuration, library version, and the Choi/measure conventions so the
numbers are interpretable standalone.

Exit codes: 0 success (classified / witness found / bound verified / scan
clean / selftest pass); 1 negative outcome (no witness within budget, scan
anomaly, selftest failure); 2 invalid input, or an input too large for memory.
"""

from __future__ import annotations

import argparse
import functools
import os
import secrets
import sys
import time

from . import __version__, classify, jsonio
from .classify import DEFAULT_BUDGET
from .sampling import rng_from_seed
from .selftest import run_selftest
from .states import check_tolerance

DEFAULT_SAMPLES = 200


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def tolerance(text: str) -> float:
    try:
        return check_tolerance(float(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    """A fresh qcorr argument parser."""
    parser = argparse.ArgumentParser(
        prog="qcorr",
        description=(
            "Decide whether a local channel can create quantum correlation in "
            "classical-on-B states; classify channels, search witnesses, check "
            "teleportation-fidelity bounds, and run census scans."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(
        sp: argparse.ArgumentParser, *, seed: str | None, budget: bool = True, tol: bool = True
    ) -> None:
        if seed is not None:
            sp.add_argument("--seed", type=int, default=None,
                            help=f"64-bit {seed}; drawn from entropy (and echoed) if omitted")
        if tol:
            sp.add_argument("--tol", type=tolerance, default=classify.CP_TOL,
                            help=("decision tolerance on normalized violations and on every "
                                  f"family test (default {classify.CP_TOL:g})"))
        if budget:
            sp.add_argument("--budget", type=positive_int, default=DEFAULT_BUDGET,
                            help=("pair evaluations per preservation search (msf: ascent "
                                  f"evaluations summed over starts; default {DEFAULT_BUDGET})"))
        sp.add_argument("--out", default=None, help="write the report to this path")
        sp.add_argument("--format", choices=("json", "text"), default="text",
                        help="report format (text summary or full JSON)")

    sp = sub.add_parser("classify", help="classify a channel from a JSON file")
    sp.add_argument("--channel", required=True, help="channel JSON file")
    common(sp, seed="seed, only echoed in the report (classify reads no randomness)")

    sp = sub.add_parser("witness", help="search a creation witness for a channel")
    sp.add_argument("--channel", required=True, help="channel JSON file")
    common(sp, seed=None)  # the preservation search reads no seed

    sp = sub.add_parser("msf", help="maximal entangled fraction of a bipartite state")
    sp.add_argument("--in", dest="state_file", required=True, help="state JSON file")
    sp.add_argument("--channel", default=None,
                    help="optional channel JSON; also reports the fraction after I(x)L")
    sp.add_argument("--require-mixing", action="store_true",
                    help="reject non-unital channels (the bound is only claimed for them)")
    common(sp, seed="master seed for the msf starts", tol=False)  # msf reads no tol

    sp = sub.add_parser("scan", help="census scan over sampled channel families")
    sp.add_argument("--dim", type=int, required=True, help="channel dimension (>= 2)")
    sp.add_argument("--samples", type=positive_int, default=DEFAULT_SAMPLES,
                    help=f"number of channels to sample (default {DEFAULT_SAMPLES})")
    common(sp, seed="master seed for channel sampling")

    sp = sub.add_parser("selftest", help="run the embedded invariant suite")
    common(sp, seed="seed for the suite's random inputs", budget=False)

    return parser


# Parsing does not change the parser, so main reuses one per process.
_parser = functools.lru_cache(maxsize=1)(build_parser)


def _workers() -> int:
    raw = os.environ.get("QCORR_THREADS", "1")
    try:
        return positive_int(raw)
    except (ValueError, argparse.ArgumentTypeError):
        raise ValueError(f"QCORR_THREADS must be an integer >= 1, got {raw!r}") from None


def _envelope(args: argparse.Namespace, result: dict, t0: float) -> dict:
    config = {"command": args.command}
    if hasattr(args, "seed"):
        config["seed"] = args.seed
    config["tol"] = getattr(args, "tol", None)
    config["budget"] = getattr(args, "budget", None)
    for key in ("channel", "state_file", "dim", "samples"):
        if hasattr(args, key):
            config[key] = getattr(args, key)
    return {
        "command": args.command,
        "version": __version__,
        "config": config,
        "notes": {
            "choi_convention": jsonio.CHOI_CONVENTION,
            "sampling_measures": jsonio.MEASURE_NOTES,
        },
        "timing_s": round(time.perf_counter() - t0, 6),
        "result": result,
    }


def _emit(report: dict, args: argparse.Namespace, text_lines: list[str]) -> None:
    if args.format == "json":
        payload = jsonio.dump(report, args.out)
        if not args.out:
            print(payload)
    else:
        body = "\n".join(text_lines)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(body + "\n")
        else:
            print(body)


def _cmd_classify(args: argparse.Namespace) -> tuple[dict, list[str], int]:
    channel = jsonio.channel_from_json(jsonio.load(args.channel))
    verdict = classify.classify_channel(channel, budget=args.budget, tol=args.tol)
    lines = [f"label: {verdict.label}"]
    if verdict.iso_fit is not None:
        lines.append(f"isotropic fit: p={verdict.iso_fit.p:.9g} gamma={verdict.iso_fit.gamma}")
    if verdict.witness is not None:
        lines.append(f"witness output quantumness: {verdict.witness.output_quantumness:.3e}")
    lines.append(
        f"commutativity preserving: {verdict.cp.preserving} "
        f"(max violation {verdict.cp.max_violation:.3e}, certified: {verdict.cp.certified})"
    )
    return jsonio.classification_to_json(verdict), lines, 0


def _cmd_witness(args: argparse.Namespace) -> tuple[dict, list[str], int]:
    channel = jsonio.channel_from_json(jsonio.load(args.channel))
    verdict = classify.is_commutativity_preserving(channel, budget=args.budget, tol=args.tol)
    if verdict.preserving:
        result = {"found": False, "certified": verdict.certified,
                  "upper_bound": verdict.upper_bound,
                  "note": jsonio.cp_verdict_to_json(verdict)["note"]}
        if verdict.certified:
            line = "no creation witness exists (certified: no orthogonal pair exceeds tol)"
        else:
            line = "no creation witness found within budget (not certified)"
        return result, [line], 1
    witness = classify.witness_from_pair(channel, *verdict.witness_pair, tol=args.tol)
    result = {"found": True, "witness": jsonio.witness_to_json(witness)}
    lines = [
        "creation witness found",
        f"output quantumness: {witness.output_quantumness:.6e}",
        f"input quantumness:  {witness.input_quantumness:.3e}",
        f"confirmed at 10x tolerance: {witness.confirmed}",
    ]
    return result, lines, 0


def _cmd_msf(args: argparse.Namespace) -> tuple[dict, list[str], int]:
    state = jsonio.state_from_json(jsonio.load(args.state_file))
    rng = rng_from_seed(args.seed)
    if args.channel is None:
        res = classify.msf(state, budget=args.budget, rng=rng)
        result = {"msf": jsonio.msf_to_json(res)}
        lines = [f"F = {res.f_value:.9f}", f"fidelity = {res.fidelity:.9f}"]
        return result, lines, 0
    channel = jsonio.channel_from_json(jsonio.load(args.channel))
    unital = classify.is_unital(channel)
    if args.require_mixing and not unital:
        raise ValueError("--require-mixing: channel is not unital")
    if unital:
        bound = classify.verify_msf_bound(state, channel, budget=args.budget, rng=rng)
        result = {"bound": jsonio.msf_bound_to_json(bound)}
        lines = [
            f"F before = {bound.before.f_value:.9f}",
            f"F after  = {bound.after.f_value:.9f}",
            f"bound holds: {bound.holds}",
        ]
        return result, lines, 0
    before, after = classify.msf_batch(
        [state, channel.apply_local_b(state)], budget=args.budget, rng=rng
    )
    result = {
        "before": jsonio.msf_to_json(before),
        "after": jsonio.msf_to_json(after),
        "note": "channel is not unital; no non-improvement claim applies",
    }
    lines = [
        f"F before = {before.f_value:.9f}",
        f"F after  = {after.f_value:.9f} (non-unital channel: no bound claimed)",
    ]
    return result, lines, 0


def _cmd_scan(args: argparse.Namespace) -> tuple[dict, list[str], int]:
    report = classify.scan_channels(
        args.dim,
        args.samples,
        seed=args.seed,
        budget=args.budget,
        tol=args.tol,
        workers=_workers(),
    )
    result = jsonio.scan_to_json(report)
    lines = [f"scanned {len(report.rows)} channels at d={report.dim}"]
    for family, counts in result["family_counts"].items():
        summary = ", ".join(f"{k}={v}" for k, v in counts.items() if v)
        lines.append(f"  {family}: {summary}")
    lines.append(f"anomalies: {len(report.anomalies)}")
    for row in report.anomalies:
        lines.append(f"  index {row.index} ({row.family}): {row.anomaly}")
    return result, lines, 0 if not report.anomalies else 1


def _cmd_selftest(args: argparse.Namespace) -> tuple[dict, list[str], int]:
    report = run_selftest(tol=args.tol, seed=args.seed)
    lines = []
    for group, counts in report.group_summary().items():
        lines.append(f"{group}: {counts['passed']} passed, {counts['failed']} failed "
                     f"({counts['elapsed_s']:.3f} s)")
    for check in report.checks:
        if not check.passed:
            lines.append(f"  FAIL {check.group}/{check.name}: {check.detail}")
    lines.append("selftest " + ("PASSED" if report.passed else "FAILED"))
    return report.to_json(), lines, 0 if report.passed else 1


_COMMANDS = {
    "classify": _cmd_classify,
    "witness": _cmd_witness,
    "msf": _cmd_msf,
    "scan": _cmd_scan,
    "selftest": _cmd_selftest,
}


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if hasattr(args, "seed") and args.seed is None:
        args.seed = secrets.randbits(63)
    t0 = time.perf_counter()
    try:
        result, lines, code = _COMMANDS[args.command](args)
        _emit(_envelope(args, result, t0), args, lines)
    except (ValueError, OSError, KeyError, MemoryError) as exc:
        # a bare MemoryError has no message; NumPy's names the array it could not allocate
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
