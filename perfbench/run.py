"""Layered benchmark for qcorr: census, boundary and msf workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload census --seed 1 --seconds 30 --trace 0

--trace 0 runs the closed loop for --seconds and reports the end-to-end
metrics; --trace 1 runs a fixed list of operations with every layer
wrapped and reports the per-layer metrics.  The last line of standard
output is one JSON object {"correct", "attempted", "failed", "metrics"};
the lines before it list every metric with its unit and the run
environment.  Full results go to .perfbench-out/.  See perfbench/README.md.
"""

from __future__ import annotations

import os

# Pin BLAS and OpenMP to one thread before NumPy can be imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
SETUP_REPEATS = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("census", "boundary", "msf"))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float, help="length of the timed closed loop")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def set_up(w, seed: int, repeats: int, harness):
    """Generate the inputs and run one warm-up verdict per dimension, `repeats`
    times; returns the ops and each repeat in raw and in reference seconds."""
    raw, ref = [], []
    before = harness.calibration_median()
    for _ in range(repeats):
        t0 = perf_counter()
        ops = w.build(seed)
        for op in w.warmups(ops):
            w.warm(op)
        raw.append(perf_counter() - t0)
        after = harness.calibration_median()
        ref.append(raw[-1] * 2 * harness.CAL_REFERENCE_S / (before + after))
        before = after
    return ops, raw, ref


def untraced_run(w, ops, args, imports, setup, harness) -> tuple[dict, dict]:
    import_s, import_ref = imports
    _, setup_raw, setup_ref = setup
    loop = harness.closed_loop(w, ops, args.seconds)
    ok = loop.attempted - len(loop.failures)
    lat = loop.normalized
    tail_value, tail_pct, tail_beyond = harness.tail(lat)
    metrics = {
        "setup_s": import_ref + harness.median(setup_ref),
        "throughput_per_s": ok / sum(lat),
        "op_p50_s": harness.median(lat),
        "op_tail_s": tail_value,
        "peak_rss_mb": harness.peak_rss_mb(),
    }
    extra = {
        "failed_frac": len(loop.failures) / loop.attempted,
        "op_tail_percentile": tail_pct,
        "op_tail_samples_beyond": tail_beyond,
        "op_samples": loop.attempted,
        "speed_factor_median": harness.median(loop.speed),
        "speed_factor_min": min(loop.speed),
        "speed_factor_max": max(loop.speed),
        "raw.setup_s": import_s + harness.median(setup_raw),
        "raw.throughput_per_s": ok / sum(loop.latencies),
        "raw.op_p50_s": harness.median(loop.latencies),
        "timed_wall_s": loop.wall_s,
        "import_s": import_s,
        "setup_repeats_s": setup_raw,
        "unclassified_frac": harness.unclassified_frac(loop),
        "latency_by_class": harness.by_class(loop),
        "latencies_ref_s": lat,
    }
    return metrics, {"passes": [loop], "extra": extra}


def layer_metrics(tracer, table: dict) -> dict[str, float]:
    def get(name: str, field: str) -> float:
        return table.get(name, {}).get(field, 0)

    m: dict[str, float] = {}
    for k in ("pair_violation", "entangled_overlap"):
        calls, busy = get(f"kernels.{k}", "calls"), get(f"kernels.{k}", "busy_s")
        m[f"kernels.{k}.calls"] = calls
        m[f"kernels.{k}.busy_s"] = busy
        m[f"kernels.{k}.us_per_call"] = busy / calls * 1e6 if calls else 0.0
    for k in ("apply_kraus", "eigh"):
        m[f"kernels.{k}.calls"] = get(f"kernels.{k}", "calls")
        m[f"kernels.{k}.busy_s"] = get(f"kernels.{k}", "busy_s")
    m["optimize.nelder_mead.calls"] = get("optimize.nelder_mead", "calls")
    m["optimize.nelder_mead.self_s"] = get("optimize.nelder_mead", "self_s")
    m["optimize.evals"] = tracer.nm_evals
    m["optimize.budget_used_frac"] = (
        tracer.search_evals / tracer.search_budget if tracer.search_budget else 0.0
    )
    m["optimize.early_stop_frac"] = (
        tracer.search_early / tracer.search_calls if tracer.search_calls else 0.0
    )
    for name, fields in (
        ("classify.is_commutativity_preserving", ("calls", "busy_s", "self_s")),
        ("classify.find_decohering_basis", ("busy_s",)),
        ("classify.fit_isotropic", ("busy_s",)),
        ("classify.is_unital", ("busy_s",)),
        ("classify.witness_from_pair", ("busy_s",)),
        ("states.is_classical_on_b", ("calls", "busy_s")),
        ("channels.apply_local_b", ("calls", "busy_s")),
        ("classify.msf", ("calls", "busy_s", "self_s")),
        ("classify.verify_msf_bound", ("calls", "busy_s", "self_s")),
        ("channels.apply_matrix", ("calls", "busy_s")),
        ("linalg.hermitian_eig", ("busy_s",)),
        ("linalg.simultaneous_diagonalization", ("busy_s",)),
        ("jsonio.load", ("busy_s",)),
        ("jsonio.channel_from_json", ("busy_s",)),
        ("jsonio.dump", ("busy_s",)),
        ("cli.main", ("self_s",)),
    ):
        for field in fields:
            m[f"{name}.{field}"] = get(name, field)
    m["classify.margin_min"] = min(tracer.creator_margins, default=0.0)
    m["classify.pass_violation_max"] = max(tracer.pass_violations, default=0.0)
    m["sampling.busy_s"] = sum(v["busy_s"] for k, v in table.items() if k.startswith("sampling."))
    return m


def traced_run(w, ops, args, harness, micro, tracing) -> tuple[dict, dict]:
    kernel_us = micro.kernel_timings(args.seed)
    listed = ops[: w.traced_ops]
    tracer = tracing.Tracer()
    traced, plain = harness.paired_pass(w, listed, tracer)
    left = tracing.installed_targets()
    if left:
        raise RuntimeError(f"tracer wrappers left installed: {left}")

    table = tracer.table()
    root = table[tracing.ROOT_SPAN]
    total_self = sum(v["self_s"] for v in table.values())
    metrics = layer_metrics(tracer, table)
    metrics.update(kernel_us)
    metrics["trace.overhead_frac"] = sum(traced.latencies) / sum(plain.latencies) - 1.0
    metrics["trace.speed_factor"] = harness.median(traced.speed)
    metrics["trace.wall_s"] = root["busy_s"]
    metrics["trace.self_sum_frac"] = total_self / root["busy_s"]
    metrics["trace.unattributed_frac"] = root["self_s"] / root["busy_s"]
    metrics["failed_frac"] = len(traced.failures) / traced.attempted
    metrics["classify.unclassified_frac"] = harness.unclassified_frac(traced)

    OUT_DIR.mkdir(exist_ok=True)
    tracer.save(OUT_DIR / f"spans-{w.name}.npz")
    extra = {
        "span_table": table,
        "spans": len(tracer.name),
        "traced_ops": len(listed),
        "latency_by_class": harness.by_class(traced),
    }
    return metrics, {"passes": [traced, plain], "extra": extra}


def unit_of(name: str) -> str:
    name = name.removeprefix("raw.")
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith(".us") or name.endswith("us_per_call"):
        return "us"
    if "percentile" in name:
        return "%"
    if name.endswith(("calls", "samples", "beyond", "evals", "ops", "spans")):
        return "count"
    return "ratio"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qcorr" / "__init__.py").is_file():
        print(f"error: no qcorr sources under {SRC}; run from a qcorr checkout", file=sys.stderr)
        return 2

    t0 = perf_counter()
    sys.path.insert(0, str(SRC))
    import qcorr
    import harness
    import micro
    import tracing
    import workloads
    import_s = perf_counter() - t0
    if not Path(qcorr.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported qcorr from {qcorr.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import_ref = import_s * harness.CAL_REFERENCE_S / harness.calibration_median()
    env = harness.environment(str(ROOT), args.seed)
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix=f"work-{args.workload}-") as workdir:
        w = workloads.WORKLOADS[args.workload](workdir)
        setup = set_up(w, args.seed, 1 if args.trace else SETUP_REPEATS, harness)
        ops = setup[0]
        if args.trace:
            metrics, info = traced_run(w, ops, args, harness, micro, tracing)
        else:
            metrics, info = untraced_run(w, ops, args, (import_s, import_ref), setup, harness)
        digest = workloads.inputs_digest(w, ops)

    passes = info["passes"]
    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]
    report = {
        "workload": args.workload,
        "trace": args.trace,
        "environment": env,
        "inputs_sha256": digest,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
        "info": info["extra"],
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
    }
    out = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(report, indent=1, default=float) + "\n")

    print("# environment " + json.dumps(env))
    for name, value in {**metrics, **info["extra"]}.items():
        if isinstance(value, (int, float)):
            print(f"# {name} = {value:.6g} {unit_of(name)}")
    for f in failures:
        problems = "; ".join(f["problems"]).replace("\n", " | ")
        print(f"# FAILED {f['key']} seed={f['seed']}: {problems}")
    print(f"# full result: {out.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
