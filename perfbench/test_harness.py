"""Self-test of the benchmark harness.

Run from the repository root:

    python3 -m pytest -q perfbench/test_harness.py

Each workload runs at a tiny size.  The tests check that one seed gives
bit-identical inputs, verdicts and traced counts, that a wrong expected
answer is counted as a failure, and that tracing leaves no wrapper behind.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SEED = 20240607
WRONG = {"census": "isotropic", "boundary": "preserving", "msf": "violated"}


def tiny_ops(w, seed):
    ops = w.build(seed)
    if w.name == "census":
        return ops[:3]
    if w.name == "boundary":
        # d = 2 only: a creator at eps = 1e-3 and a preserving case at eps = 1e-9
        return [op for op in ops if op.dim == 2][:5:4]
    return ops[:2]


def traced_tiny(name, workdir):
    workdir.mkdir()
    w = workloads.WORKLOADS[name](str(workdir))
    ops = tiny_ops(w, SEED)
    tracer = tracing.Tracer()
    done, plain = harness.paired_pass(w, ops, tracer)
    assert plain.verdicts == done.verdicts
    table = tracer.table()
    counts = {k: v["calls"] for k, v in table.items()}
    counters = (tracer.nm_evals, tracer.search_evals, tracer.search_budget, tracer.search_early)
    return w, ops, done, table, counts, counters


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_is_bit_identical(name, tmp_path):
    w1, ops1, done1, table, counts1, counters1 = traced_tiny(name, tmp_path / "a")
    w2, ops2, done2, _, counts2, counters2 = traced_tiny(name, tmp_path / "b")
    assert done1.failures == [] and done2.failures == []
    assert workloads.inputs_digest(w1, ops1) == workloads.inputs_digest(w2, ops2)
    assert done1.verdicts == done2.verdicts
    assert counts1 == counts2
    assert counters1 == counters2
    # self times add up to the traced operations' wall time: nothing is counted twice
    root = table[tracing.ROOT_SPAN]
    assert root["calls"] == len(ops1)
    total_self = sum(v["self_s"] for v in table.values())
    assert total_self == pytest.approx(root["busy_s"], rel=1e-9)


def test_different_seed_changes_inputs(tmp_path):
    w = workloads.Msf(str(tmp_path))
    assert workloads.inputs_digest(w, w.build(1)) != workloads.inputs_digest(w, w.build(2))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_schedule_is_whole_rounds(name, tmp_path):
    w = workloads.WORKLOADS[name](str(tmp_path))
    assert len(w.build(SEED)) == w.rounds * w.round_len


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_wrong_expected_answer_is_a_failure(name, tmp_path):
    w = workloads.WORKLOADS[name](str(tmp_path))
    op = tiny_ops(w, SEED)[0]
    wrong = dataclasses.replace(op, expected=WRONG[name])
    for done in harness.paired_pass(w, [op, wrong], tracing.Tracer()):
        assert done.attempted == 2
        assert len(done.failures) == 1
        assert done.failures[0]["seed"] == op.seed


def test_no_wrapper_left_after_traced_run(tmp_path):
    from qcorr import channels, classify, kernels

    originals = [kernels.pair_violation, classify.msf, channels.KrausChannel.apply_matrix]
    tracer = tracing.Tracer()
    with pytest.raises(ZeroDivisionError):
        with tracer:
            assert len(tracing.installed_targets()) == len(tracing.TARGETS)
            1 / 0
    assert tracing.installed_targets() == []
    assert [kernels.pair_violation, classify.msf, channels.KrausChannel.apply_matrix] == originals
    traced_tiny("msf", tmp_path / "run")
    assert tracing.installed_targets() == []


def test_calls_outside_an_operation_are_not_recorded(tmp_path):
    w = workloads.Msf(str(tmp_path))
    op = tiny_ops(w, SEED)[0]
    tracer = tracing.Tracer()
    with tracer:
        w.warm(op)
    assert len(tracer.name) == 0


def test_tail_is_the_eleventh_largest():
    assert harness.tail([float(x) for x in range(1, 21)]) == (10.0, 100 * 9 / 19, 10)
    assert harness.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 2)


def test_command_prints_a_result_line(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "census", "--seed", "3",
         "--seconds", "0.2", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["attempted"] >= 1 and last["failed"] == 0
    assert set(last["metrics"]) == {"setup_s", "throughput_per_s", "op_p50_s", "op_tail_s", "peak_rss_mb"}


def test_command_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "census", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
