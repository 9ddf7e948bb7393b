import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from helpers import amplitude_damping

import qcorr
from qcorr import channels as chn
from qcorr import classify, cli, jsonio
from qcorr.channels import maximally_entangled_ket
from qcorr.cli import main
from qcorr.sampling import (
    haar_unitary,
    random_bipartite,
    random_cptp,
    random_isotropic,
    random_unital_mixture,
    rng_from_seed,
)
from qcorr.states import BipartiteState, DensityMatrix


def rotation2(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s], [s, c]], dtype=complex)


@pytest.fixture
def files(tmp_path):
    def write(name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)

    return tmp_path, write


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestClassifyCommand:
    def test_depolarizing_isotropic(self, files, capsys):
        _, write = files
        path = write("dep.json", jsonio.channel_to_json(chn.depolarizing(3, 0.3)))
        code, out, _ = run(capsys, ["classify", "--channel", path, "--seed", "1"])
        assert code == 0
        assert "isotropic" in out
        assert "certified: True" in out

    def test_depolarizing_certified_json(self, files, capsys):
        _, write = files
        path = write("dep.json", jsonio.channel_to_json(chn.depolarizing(3, 0.3)))
        code, out, _ = run(
            capsys, ["classify", "--channel", path, "--seed", "1", "--format", "json"]
        )
        assert code == 0
        report = json.loads(out)
        assert set(report) == {"command", "version", "config", "notes", "timing_s", "result"}
        cp = report["result"]["cp"]
        assert cp["preserving"] and cp["certified"]
        assert cp["upper_bound"] <= cp["tol"]
        assert cp["evals"] == 0
        assert "witness_pair" not in cp
        assert cp["note"] == "certified: no orthogonal pair exceeds tol"

    def test_band_reported_json(self, files, capsys):
        # cp.band says which search phase ran: none on a certified pass, the
        # winner's polish on a Haar creator, the band near the boundary
        _, write = files
        rng = rng_from_seed(11)
        p, r = random_isotropic(3, rng), random_cptp(3, rng)
        near = chn.KrausChannel(np.concatenate([np.sqrt(1 - 1e-3) * p.ops, np.sqrt(1e-3) * r.ops]))
        cases = [(chn.depolarizing(3, 0.3), True, False), (random_cptp(4, rng), False, False),
                 (near, False, True)]
        for i, (ch, preserving, band) in enumerate(cases):
            path = write(f"ch{i}.json", jsonio.channel_to_json(ch))
            code, out, _ = run(capsys, ["classify", "--channel", path, "--format", "json"])
            assert code == 0
            cp = json.loads(out)["result"]["cp"]
            assert cp["preserving"] is preserving, i
            assert cp["band"] is band, i

    def test_dephasing_decohering_json(self, files, capsys):
        _, write = files
        ch = chn.completely_decohering(
            np.eye(3), [np.diag([1.0 * (i == j) for j in range(3)]) for i in range(3)]
        )
        path = write("deph.json", jsonio.channel_to_json(ch))
        code, out, _ = run(
            capsys, ["classify", "--channel", path, "--seed", "1", "--format", "json"]
        )
        assert code == 0
        report = json.loads(out)
        assert report["result"]["label"] == "completely_decohering"
        assert report["result"]["consistent"] is True

    def test_block_mixture_creator_with_witness(self, files, capsys):
        _, write = files
        ch = chn.block_unitary_mixture(
            np.array([1.0, 1.0]) / np.sqrt(2), [np.eye(2), rotation2(np.pi / 4)]
        )
        path = write("block.json", jsonio.channel_to_json(ch))
        code, out, _ = run(
            capsys, ["classify", "--channel", path, "--seed", "2", "--format", "json"]
        )
        assert code == 0
        report = json.loads(out)
        assert report["result"]["label"] == "creator"
        witness = jsonio.witness_from_json(report["result"]["witness"])
        assert witness.output_quantumness > 1e-7

    def test_malformed_file_exit_2(self, files, capsys):
        tmp_path, _ = files
        bad = tmp_path / "bad.json"
        bad.write_text("{\"dim\": 2}")
        code, _, err = run(capsys, ["classify", "--channel", str(bad), "--seed", "1"])
        assert code == 2
        assert "error" in err

    def test_non_cptp_file_exit_2(self, files, capsys):
        _, write = files
        path = write("bad.json", {"dim": 2, "kraus": [jsonio.matrix_to_json(np.eye(2) * 0.7)]})
        code, _, err = run(capsys, ["classify", "--channel", str(path), "--seed", "1"])
        assert code == 2

    def test_report_does_not_depend_on_seed(self, files, capsys):
        _, write = files
        ch = chn.isotropic(3, -0.2, "transpose", haar_unitary(3, rng_from_seed(7)))
        path = write("iso.json", jsonio.channel_to_json(ch))
        reports = []
        for seed in ("1", "2"):
            code, out, _ = run(
                capsys, ["classify", "--channel", path, "--seed", seed, "--format", "json"]
            )
            assert code == 0
            report = json.loads(out)
            assert report["config"].pop("seed") == int(seed)
            report.pop("timing_s")
            reports.append(report)
        assert reports[0]["result"]["label"] == "isotropic"
        assert reports[0] == reports[1]


# Kraus operators scaled by 1 + s give ||sum E^dag E - I||_F = 2 sqrt(2) s (1 + s/2),
# 9.0e-10 at d = 2: accepted at TP_ATOL = 1e-9, while every image's trace is
# off by 2s = 6.4e-10, beyond TRACE_ATOL = 1e-10.
TP_EDGE_SCALE = 1 + 0.9e-9 / (2 * np.sqrt(2))


class TestAcceptedTraceResidual:
    """A channel accepted as trace preserving gets a report, not exit 2."""

    @staticmethod
    def write_scaled(write, ch):
        scaled = chn.KrausChannel(TP_EDGE_SCALE * ch.ops)
        resid = np.linalg.norm(np.einsum("kji,kjl->il", scaled.ops.conj(), scaled.ops) - np.eye(2))
        assert 8.9e-10 < resid <= chn.TP_ATOL
        return write("edge.json", jsonio.channel_to_json(scaled))

    def test_classify_creator(self, files, capsys):
        _, write = files
        path = self.write_scaled(write, random_cptp(2, rng_from_seed(21)))
        code, out, err = run(capsys, ["classify", "--channel", path, "--format", "json"])
        assert code == 0, err
        result = json.loads(out)["result"]
        assert result["label"] == "creator"
        assert result["witness"] is not None

    def test_witness_found(self, files, capsys):
        _, write = files
        path = self.write_scaled(write, random_cptp(2, rng_from_seed(21)))
        code, out, err = run(capsys, ["witness", "--channel", path, "--format", "json"])
        assert code == 0, err
        assert json.loads(out)["result"]["found"] is True

    def test_msf_bound_holds(self, files, capsys):
        _, write = files
        spath = write("bell.json", _bell_state_json())
        cpath = self.write_scaled(write, random_unital_mixture(2, rng_from_seed(22)))
        code, out, err = run(
            capsys, ["msf", "--in", spath, "--channel", cpath, "--seed", "3", "--format", "json"]
        )
        assert code == 0, err
        assert json.loads(out)["result"]["bound"]["holds"] is True


def _bell_state_json():
    bell = BipartiteState(2, 2, DensityMatrix.pure(maximally_entangled_ket(2)))
    return jsonio.state_to_json(bell)


def _bell_state_json_with_null():
    obj = _bell_state_json()
    obj["matrix"][0][0][0] = None
    return obj


class TestMalformedJson:
    @pytest.mark.parametrize(
        "command, obj",
        [
            ("classify", {"dim": 2, "kraus": 5}),
            ("classify", {"dim": None, "kraus": []}),
            ("classify", {**jsonio.channel_to_json(chn.identity_channel(2)), "dim": 2.7}),
            ("classify", {**jsonio.channel_to_json(chn.identity_channel(1)), "dim": True}),
            ("classify", {**jsonio.channel_to_json(chn.identity_channel(2)), "meta": [1]}),
            ("classify", {**jsonio.channel_to_json(chn.identity_channel(2)),
                          "meta": {"kind": "identity", "params": [1]}}),
            ("classify", {"dim": 2, "kraus": [[[[1, 0], [0, 0]], [[0, 0], [1, 0]]], [[[1, 0]]]]}),
            ("classify", {"dim": 2, "kraus": [[[[1, 0, 0], [0, 0, 0]], [[0, 0, 0], [1, 0, 0]]]]}),
            ("classify", {**jsonio.channel_to_json(chn.identity_channel(2)), "dim": 3}),
            ("msf", {**_bell_state_json(), "dimA": None}),
            ("msf", {**_bell_state_json(), "dimB": 2.0}),
            ("msf", {**_bell_state_json(), "dimA": -2, "dimB": -2}),
            ("msf", _bell_state_json_with_null()),
        ],
        ids=["kraus-not-list", "dim-null", "dim-float", "dim-bool", "meta-not-object",
             "params-not-object", "kraus-ragged", "kraus-three-number-pair",
             "kraus-wrong-dimension", "dimA-null", "dimB-float", "dims-negative",
             "matrix-entry-null"],
    )
    def test_exit_2(self, files, capsys, command, obj):
        _, write = files
        path = write("bad.json", obj)
        flag = "--channel" if command == "classify" else "--in"
        code, _, err = run(capsys, [command, flag, path, "--seed", "1"])
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("command, flag", [("classify", "--channel"), ("msf", "--in")])
    def test_deep_nesting_is_named(self, files, capsys, command, flag):
        # json's decoder recurses once per array level; the file is 200 kB
        tmp, _ = files
        path = tmp / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        code, _, err = run(capsys, [command, flag, str(path), "--seed", "1"])
        assert code == 2
        assert err.startswith("error:") and "nested too deeply" in err

    def test_null_entry_is_named(self, files, capsys):
        # NumPy reads JSON null as NaN; the state check must not see it as non-Hermitian
        _, write = files
        path = write("null.json", _bell_state_json_with_null())
        code, _, err = run(capsys, ["msf", "--in", path, "--seed", "1"])
        assert code == 2
        assert "non-finite" in err and "Hermitian" not in err


class TestUnwritableOut:
    @pytest.mark.parametrize("fmt", ["json", "text"])
    @pytest.mark.parametrize("target", ["directory", "missing-parent"])
    def test_exit_2(self, files, capsys, fmt, target):
        tmp, write = files
        path = write("id.json", jsonio.channel_to_json(chn.identity_channel(2)))
        out = tmp if target == "directory" else tmp / "missing" / "report.out"
        code, stdout, err = run(
            capsys, ["classify", "--channel", path, "--format", fmt, "--out", str(out)]
        )
        assert code == 2
        assert err.startswith("error:")
        assert stdout == ""


class TestOutOfMemory:
    @pytest.mark.parametrize(
        "exc, message",
        [(MemoryError(), "MemoryError"), (MemoryError("Unable to allocate 149. GiB"), "149. GiB")],
    )
    def test_exit_2(self, capsys, monkeypatch, exc, message):
        # an input too large for memory is refused like any invalid input; the
        # command raises here instead of allocating
        def scan(args):
            raise exc

        monkeypatch.setitem(cli._COMMANDS, "scan", scan)
        code, out, err = run(capsys, ["scan", "--dim", "100000", "--samples", "1", "--seed", "1"])
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and message in err


class TestWitnessCommand:
    def test_identity_none_found_exit_1(self, files, capsys):
        _, write = files
        path = write("id.json", jsonio.channel_to_json(chn.identity_channel(2)))
        code, out, _ = run(capsys, ["witness", "--channel", path])
        assert code == 1
        assert "no creation witness" in out

    def test_certified_pass_reports_no_witness_exists(self, files, capsys):
        _, write = files
        path = write("dep.json", jsonio.channel_to_json(chn.depolarizing(3, 0.3)))
        code, out, _ = run(capsys, ["witness", "--channel", path, "--format", "json"])
        assert code == 1
        result = json.loads(out)["result"]
        assert result["found"] is False
        assert result["certified"] is True
        assert result["upper_bound"] <= 1e-7
        assert result["note"] == "certified: no orthogonal pair exceeds tol"
        code, out, _ = run(capsys, ["witness", "--channel", path])
        assert code == 1
        assert "no creation witness exists" in out

    def test_amplitude_damping_witness_round_trip(self, files, capsys):
        _, write = files
        path = write("ad.json", jsonio.channel_to_json(amplitude_damping(0.5)))
        code, out, _ = run(capsys, ["witness", "--channel", path, "--format", "json"])
        assert code == 0
        report = json.loads(out)
        # the search is seed-free, so witness neither takes nor echoes a seed
        assert "seed" not in report["config"]
        assert report["result"]["found"]
        witness = jsonio.witness_from_json(report["result"]["witness"])
        assert witness.output_quantumness > 1e-6
        with pytest.raises(SystemExit) as exc:
            main(["witness", "--channel", path, "--seed", "4"])
        assert exc.value.code == 2


class TestMsfCommand:
    def test_bell_state(self, files, capsys):
        _, write = files
        bell = BipartiteState(2, 2, DensityMatrix.pure(maximally_entangled_ket(2)))
        path = write("bell.json", jsonio.state_to_json(bell))
        code, out, _ = run(capsys, ["msf", "--in", path, "--seed", "5", "--format", "json"])
        assert code == 0
        report = json.loads(out)
        assert report["result"]["msf"]["F"] == pytest.approx(1.0, abs=1e-8)
        assert report["result"]["msf"]["F_upper"] == pytest.approx(1.0, abs=1e-12)
        assert report["result"]["msf"]["converged"] is True

    def test_bell_state_bracket_closed_at_start(self, files, capsys):
        # U = I already attains the exact two-qubit bound, so no step is taken
        _, write = files
        bell = BipartiteState(2, 2, DensityMatrix.pure(maximally_entangled_ket(2)))
        path = write("bell.json", jsonio.state_to_json(bell))
        code, out, _ = run(capsys, ["msf", "--in", path, "--seed", "5", "--format", "json"])
        assert code == 0
        res = json.loads(out)["result"]["msf"]
        assert res["iterations"] == 0
        assert res["F_upper"] == res["F"]
        assert res["converged"] is True

    def test_bell_with_depolarizing_closed_form(self, files, capsys):
        _, write = files
        bell = BipartiteState(2, 2, DensityMatrix.pure(maximally_entangled_ket(2)))
        spath = write("bell.json", jsonio.state_to_json(bell))
        cpath = write("dep.json", jsonio.channel_to_json(chn.depolarizing(2, 0.5)))
        code, out, _ = run(
            capsys,
            ["msf", "--in", spath, "--channel", cpath, "--seed", "6", "--format", "json"],
        )
        assert code == 0
        report = json.loads(out)
        bound = report["result"]["bound"]
        assert bound["after"]["F"] == pytest.approx((1 + 3 * 0.5) / 4, abs=1e-8)
        assert bound["holds"]

    @pytest.mark.parametrize("d", [2, 3])
    def test_non_unital_pair_equals_two_sequential_searches(self, files, capsys, d):
        # the non-unital branch climbs rho and its image in one batch; the
        # result equals two msf calls on one rng, rho first
        _, write = files
        spath = write("state.json", jsonio.state_to_json(random_bipartite(d, d, rng_from_seed(11))))
        cpath = write("cptp.json", jsonio.channel_to_json(random_cptp(d, rng_from_seed(12))))
        code, out, _ = run(
            capsys,
            ["msf", "--in", spath, "--channel", cpath, "--seed", "13", "--budget", "900",
             "--format", "json"],
        )
        assert code == 0
        result = json.loads(out)["result"]
        assert "not unital" in result["note"]
        state = jsonio.state_from_json(jsonio.load(spath))
        channel = jsonio.channel_from_json(jsonio.load(cpath))
        rng = rng_from_seed(13)
        for key, st in (("before", state), ("after", channel.apply_local_b(state))):
            alone = classify.msf(st, budget=900, rng=rng)
            got = result[key]
            assert abs(got["F"] - alone.f_value) <= 1e-12
            assert got["F_upper"] == alone.f_upper
            assert (got["iterations"], got["evals"], got["converged"]) == (
                alone.iterations, alone.evals, alone.converged
            )

    def test_require_mixing_rejects_non_unital(self, files, capsys):
        _, write = files
        bell = BipartiteState(2, 2, DensityMatrix.pure(maximally_entangled_ket(2)))
        spath = write("bell.json", jsonio.state_to_json(bell))
        cpath = write("ad.json", jsonio.channel_to_json(amplitude_damping(0.4)))
        code, _, err = run(
            capsys,
            ["msf", "--in", spath, "--channel", cpath, "--require-mixing", "--seed", "7"],
        )
        assert code == 2
        assert "unital" in err

    def test_tol_is_usage_error(self, files, capsys):
        # msf reads no tolerance, so it does not take one
        _, write = files
        bell = BipartiteState(2, 2, DensityMatrix.pure(maximally_entangled_ket(2)))
        path = write("bell.json", jsonio.state_to_json(bell))
        with pytest.raises(SystemExit) as exc:
            main(["msf", "--in", path, "--seed", "5", "--tol", "1e-7"])
        assert exc.value.code == 2
        assert "--tol" in capsys.readouterr().err


class TestScanCommand:
    def test_small_qutrit_scan_clean(self, capsys):
        code, out, _ = run(
            capsys,
            ["scan", "--dim", "3", "--samples", "12", "--seed", "8",
             "--budget", "6000", "--format", "json"],
        )
        assert code == 0
        report = json.loads(out)
        assert report["result"]["anomalies"] == []
        assert report["result"]["n_channels"] == 12
        # every verdict here is a proof: creators by their pair, passes by the bound
        for counts in report["result"]["family_counts"].values():
            labeled = sum(v for k, v in counts.items() if k not in ("cp_pass", "cp_certified"))
            assert counts["cp_certified"] == labeled

    def test_qubit_scan(self, capsys):
        code, out, _ = run(
            capsys, ["scan", "--dim", "2", "--samples", "10", "--seed", "9", "--budget", "6000"]
        )
        assert code == 0
        assert "anomalies: 0" in out


class TestNonPositiveCounts:
    @pytest.mark.parametrize(
        "argv",
        [
            ["classify", "--channel", "{channel}", "--budget", "-5"],
            ["msf", "--in", "{state}", "--budget", "0"],
            ["scan", "--dim", "2", "--samples", "-3"],
        ],
    )
    def test_exit_2(self, files, capsys, argv):
        _, write = files
        bell = BipartiteState(2, 2, DensityMatrix.pure(maximally_entangled_ket(2)))
        paths = {
            "channel": write("dep.json", jsonio.channel_to_json(chn.depolarizing(2, 0.3))),
            "state": write("bell.json", jsonio.state_to_json(bell)),
        }
        with pytest.raises(SystemExit) as exc:
            main([arg.format(**paths) for arg in argv] + ["--seed", "1"])
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err


class TestMalformedTolerance:
    @pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
    def test_exit_2(self, files, capsys, tol):
        _, write = files
        path = write("dep.json", jsonio.channel_to_json(chn.depolarizing(2, 0.3)))
        with pytest.raises(SystemExit) as exc:
            main(["classify", "--channel", path, "--seed", "1", "--tol", tol])
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err


class TestWorkerEnv:
    def test_thread_env_does_not_change_results(self, capsys, monkeypatch):
        argv = ["scan", "--dim", "2", "--samples", "6", "--seed", "13",
                "--budget", "4000", "--format", "json"]
        code1, out1, _ = run(capsys, argv)
        monkeypatch.setenv("QCORR_THREADS", "2")
        code2, out2, _ = run(capsys, argv)
        assert code1 == code2 == 0
        a, b = json.loads(out1), json.loads(out2)
        assert a["result"] == b["result"]

    @pytest.mark.parametrize("value", ["abc", "0", "-3"])
    def test_invalid_thread_env_exit_2(self, capsys, monkeypatch, value):
        monkeypatch.setenv("QCORR_THREADS", value)
        code, _, err = run(capsys, ["scan", "--dim", "2", "--samples", "2", "--seed", "13"])
        assert code == 2
        assert "QCORR_THREADS" in err


class TestSelftestCommand:
    def test_default_passes(self, capsys):
        code, out, _ = run(capsys, ["selftest", "--seed", "10"])
        assert code == 0
        assert "selftest PASSED" in out

    def test_per_check_timing(self, capsys):
        code, out, _ = run(capsys, ["selftest", "--seed", "10", "--format", "json"])
        assert code == 0
        report = json.loads(out)["result"]
        assert all(check["elapsed_s"] >= 0 for check in report["checks"])
        for group, summary in report["groups"].items():
            times = [c["elapsed_s"] for c in report["checks"] if c["group"] == group]
            assert summary["elapsed_s"] == pytest.approx(sum(times), rel=1e-12, abs=0)
        code, out, _ = run(capsys, ["selftest", "--seed", "10"])
        assert "linalg: 3 passed, 0 failed (" in out

    def test_absurd_tolerance_fails(self, capsys):
        code, out, _ = run(capsys, ["selftest", "--seed", "10", "--tol", "1e-20"])
        assert code == 1
        assert "selftest FAILED" in out

    def test_budget_is_usage_error(self, capsys):
        # the suite reads no budget, so selftest does not take one
        with pytest.raises(SystemExit) as exc:
            main(["selftest", "--seed", "10", "--budget", "100"])
        assert exc.value.code == 2
        assert "--budget" in capsys.readouterr().err


class TestModuleEntryPoint:
    def test_python_m_qcorr_prints_one_json_line(self):
        # the directory holding this qcorr package, as PYTHONPATH=src gives from a checkout
        env = {**os.environ, "PYTHONPATH": str(Path(qcorr.__file__).resolve().parents[1])}
        proc = subprocess.run(
            [sys.executable, "-m", "qcorr", "selftest", "--seed", "1", "--format", "json"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert len(lines) == 1
        report = json.loads(lines[0])
        assert report["command"] == "selftest"
        assert report["config"]["seed"] == 1


class TestDeterminism:
    def test_same_seed_same_report(self, files, capsys):
        _, write = files
        path = write("dep.json", jsonio.channel_to_json(chn.depolarizing(2, 0.4)))
        argv = ["classify", "--channel", path, "--seed", "11", "--format", "json"]
        code1, out1, _ = run(capsys, argv)
        code2, out2, _ = run(capsys, argv)
        assert code1 == code2 == 0
        a = json.loads(out1)
        b = json.loads(out2)
        a.pop("timing_s")
        b.pop("timing_s")
        assert a == b

    def test_rejected_input_does_not_change_later_reports(self, files, capsys):
        # main reuses one parser per process, so a parse error must leave it intact
        _, write = files
        path = write("ad.json", jsonio.channel_to_json(amplitude_damping(0.3)))
        argv = ["classify", "--channel", path, "--seed", "5", "--format", "json"]
        code1, out1, _ = run(capsys, argv)
        with pytest.raises(SystemExit) as exc:
            main(["classify", "--channel", path, "--seed", "5", "--tol", "-1"])
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err
        code2, out2, _ = run(capsys, argv)
        assert code1 == code2 == 0
        a, b = json.loads(out1), json.loads(out2)
        a.pop("timing_s")
        b.pop("timing_s")
        assert a == b
        assert a["result"]["label"] == "creator"

    def test_output_file_written(self, files, capsys):
        tmp_path, write = files
        path = write("dep.json", jsonio.channel_to_json(chn.depolarizing(2, 0.4)))
        out_path = tmp_path / "report.json"
        code, _, _ = run(
            capsys,
            ["classify", "--channel", path, "--seed", "12", "--format", "json",
             "--out", str(out_path)],
        )
        assert code == 0
        report = json.loads(out_path.read_text())
        assert report["config"]["seed"] == 12
        # qubit classifier checks unitality first: depolarizing lands there
        assert report["result"]["label"] == "unital_mixing"
