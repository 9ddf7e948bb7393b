import json

import numpy as np
import pytest

from qcorr import channels as chn
from qcorr import classify, jsonio
from qcorr.sampling import random_bipartite, random_cptp
from qcorr.states import is_classical_on_b


def old_matrix_to_json(m):
    """The per-element encoder the whole-array one replaced."""
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m, dtype=complex)]


def old_vector_to_json(v):
    return [[float(z.real), float(z.imag)] for z in np.asarray(v, dtype=complex)]


# -0.0, the smallest subnormal and a value near the largest double, with signs
EDGE = np.array([-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 1.0 / 3.0, -2.5, 7.0]).reshape(3, 3)


def complex_from(re, im):
    """re + i im without arithmetic, so -0.0 parts survive."""
    z = np.empty(np.shape(re), dtype=complex)
    z.real, z.imag = re, im
    return z


class TestEncodersMatchPerElementLists:
    # == reads -0.0 as 0.0, so the JSON texts are compared too
    def test_matrix_and_vector(self):
        m = complex_from(EDGE, EDGE[::-1, ::-1])
        for new, old in [(jsonio.matrix_to_json(m), old_matrix_to_json(m))] + [
            (jsonio.vector_to_json(row), old_vector_to_json(row)) for row in m
        ]:
            assert new == old
            assert json.dumps(new) == json.dumps(old)
        text = json.dumps(jsonio.matrix_to_json(m))
        assert "[-0.0, 7.0]" in text and "[7.0, -0.0]" in text and "5e-324" in text

    def test_real_input(self):
        assert json.dumps(jsonio.matrix_to_json(EDGE)) == json.dumps(old_matrix_to_json(EDGE))
        assert json.dumps(jsonio.vector_to_json(EDGE[0])) == json.dumps(old_vector_to_json(EDGE[0]))


class TestMatrixRoundTrip:
    def test_exact_round_trip(self, rng):
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        # through actual JSON text, not just the intermediate lists
        back = jsonio.matrix_from_json(json.loads(json.dumps(jsonio.matrix_to_json(m))))
        assert np.array_equal(back, m)

    def test_vector_round_trip(self, rng):
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        back = jsonio.vector_from_json(json.loads(json.dumps(jsonio.vector_to_json(v))))
        assert np.array_equal(back, v)

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            jsonio.matrix_from_json([[1.0, 2.0], [3.0, 4.0]])

    @pytest.mark.parametrize("decode, wrap", [
        (jsonio.vector_from_json, lambda pair: [pair, [0.0, 0.0]]),
        (jsonio.matrix_from_json, lambda pair: [[pair, [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]),
    ], ids=["vector", "matrix"])
    @pytest.mark.parametrize("pair, match", [
        ([{}, 0.0], "list of \\[re, im\\] pairs"),
        (["a", 0.0], "list of \\[re, im\\] pairs"),
        ([None, 0.0], "non-finite"),
        ([0.0, float("nan")], "non-finite"),
        ([float("inf"), 0.0], "non-finite"),
        ([0.0, float("-inf")], "non-finite"),
    ], ids=["object", "string", "null", "nan", "inf", "minus-inf"])
    def test_bad_entries_raise_value_error(self, decode, wrap, pair, match):
        with pytest.raises(ValueError, match=match):
            decode(wrap(pair))


class TestChannelFiles:
    def test_round_trip_action(self, rng):
        ch = random_cptp(3, rng)
        obj = json.loads(json.dumps(jsonio.channel_to_json(ch)))
        back = jsonio.channel_from_json(obj)
        assert back.dim == 3
        assert chn.channel_action_distance(ch, back) == 0.0

    def test_meta_preserved(self):
        ch = chn.depolarizing(3, 0.25)
        obj = jsonio.channel_to_json(ch)
        assert obj["meta"]["kind"] == "depolarizing"
        assert obj["meta"]["params"]["p"] == 0.25
        back = jsonio.channel_from_json(obj)
        assert back.kind == "depolarizing"

    def test_invalid_channel_rejected(self):
        obj = {"dim": 2, "kraus": [jsonio.matrix_to_json(np.eye(2) * 0.5)]}
        with pytest.raises(ValueError, match="trace preserving"):
            jsonio.channel_from_json(obj)

    def test_missing_fields_rejected(self):
        with pytest.raises(ValueError, match="dim"):
            jsonio.channel_from_json({"kraus": []})

    @pytest.mark.parametrize(
        "kraus, match",
        [
            ([], "nonempty list"),
            ([[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]], [[[1.0, 0.0]]]], "equal-size"),
            ([[[[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]], [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]]], "pairs"),
            ([[[[1.0, 0.0]]]], "declared dimension"),
            ([[[["a", 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]], "pairs"),
            ([[[[None, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]], "'kraus' has non-finite"),
        ],
        ids=["empty", "ragged", "three-number-pair", "wrong-dimension", "not-a-number", "null"],
    )
    def test_malformed_kraus_rejected(self, kraus, match):
        with pytest.raises(ValueError, match=match):
            jsonio.channel_from_json({"dim": 2, "kraus": kraus})

    def test_decoded_ops_equal_per_matrix_decoding(self, rng):
        ch = random_cptp(4, rng)
        obj = json.loads(json.dumps(jsonio.channel_to_json(ch)))
        old = np.array([jsonio.matrix_from_json(k) for k in obj["kraus"]])
        assert np.array_equal(jsonio.channel_from_json(obj).ops, old)
        assert np.array_equal(old, ch.ops)


class TestDump:
    def test_creator_report_is_one_line(self, tmp_path):
        e = np.array([1.0, 1.0]) / np.sqrt(2)
        c, s = np.cos(np.pi / 4), np.sin(np.pi / 4)
        block = chn.block_unitary_mixture(e, [np.eye(2), np.array([[c, -s], [s, c]])])
        obj = jsonio.classification_to_json(classify.classify_channel(block))
        assert obj["label"] == "creator" and "witness" in obj
        path = tmp_path / "report.json"
        text = jsonio.dump(obj, str(path))
        assert "\n" not in text
        assert path.read_text() == text + "\n"
        assert json.loads(text) == obj
        assert jsonio.load(str(path)) == obj


class TestStateFiles:
    def test_round_trip(self, rng):
        st = random_bipartite(2, 3, rng)
        back = jsonio.state_from_json(json.loads(json.dumps(jsonio.state_to_json(st))))
        assert back.dim_a == 2 and back.dim_b == 3
        assert np.allclose(back.mat, st.mat, atol=1e-15)

    def test_dimension_mismatch_rejected(self):
        obj = {"dimA": 2, "dimB": 2, "matrix": jsonio.matrix_to_json(np.eye(2) / 2)}
        with pytest.raises(ValueError):
            jsonio.state_from_json(obj)


class TestWitnessRoundTrip:
    def test_reloaded_witness_reverifies(self, rng):
        ch = random_cptp(3, rng)
        verdict = classify.is_commutativity_preserving(ch)
        w = classify.witness_from_pair(ch, *verdict.witness_pair)
        obj = json.loads(json.dumps(jsonio.witness_to_json(w)))
        back = jsonio.witness_from_json(obj)
        # quantumness is recomputed from the reloaded states, not trusted
        assert is_classical_on_b(back.input_state).is_classical_on_b
        assert back.input_quantumness <= 1e-9
        assert back.output_quantumness == pytest.approx(w.output_quantumness, abs=1e-9)
        assert back.output_quantumness > 1e-7
        assert abs(np.vdot(back.pair[0], back.pair[1])) < 1e-9

    def test_confirmed_is_recomputed_against_the_stored_tol(self, rng):
        obj = json.loads(json.dumps(self.witness_json(rng)))
        assert obj["tol"] == classify.CP_TOL and obj["confirmed"] is True
        back = jsonio.witness_from_json(obj)
        assert back.tol == classify.CP_TOL and back.confirmed
        # the same witness judged at a tol its output quantumness does not clear
        obj["tol"] = back.output_quantumness
        with pytest.raises(ValueError, match="'confirmed' is True"):
            jsonio.witness_from_json(obj)
        obj["confirmed"] = False
        assert not jsonio.witness_from_json(obj).confirmed

    def test_edited_confirmed_flag_is_rejected(self):
        # depolarizing preserves commutativity: every pair's output
        # quantumness is 0, so a witness of it can never be confirmed
        w = classify.witness_from_pair(chn.depolarizing(2, 0.5), np.eye(2)[0], np.eye(2)[1])
        obj = json.loads(json.dumps(jsonio.witness_to_json(w)))
        assert obj["output_quantumness"] == 0.0 and obj["confirmed"] is False
        obj["confirmed"] = True
        with pytest.raises(ValueError, match="'confirmed' is True"):
            jsonio.witness_from_json(obj)

    @staticmethod
    def witness_json(rng) -> dict:
        ch = random_cptp(3, rng)
        verdict = classify.is_commutativity_preserving(ch)
        return jsonio.witness_to_json(classify.witness_from_pair(ch, *verdict.witness_pair))

    @pytest.mark.parametrize("entry, match", [({}, "pairs"), (None, "non-finite")])
    def test_bad_pair_entry_is_a_value_error(self, rng, entry, match):
        obj = self.witness_json(rng)
        obj["pair"][0][0][0] = entry
        with pytest.raises(ValueError, match=match):
            jsonio.witness_from_json(obj)

    @pytest.mark.parametrize(
        "edit, match",
        [
            (lambda obj: "x", "witness JSON must have 'pair', 'input' and 'output'"),
            (lambda obj: {"pair": 1}, "witness JSON must have 'pair', 'input' and 'output'"),
            (lambda obj: {k: v for k, v in obj.items() if k != "input"}, "'input'"),
            (lambda obj: {**obj, "pair": 1}, "'pair' must be a list of two vectors"),
            (lambda obj: {**obj, "pair": obj["pair"][:1]}, "'pair' must be a list of two vectors"),
            (lambda obj: {**obj, "output": []}, "state JSON must have"),
            (lambda obj: {k: v for k, v in obj.items() if k != "tol"}, "'tol'"),
            (lambda obj: {**obj, "tol": "1e-7"}, "'tol' must be a number"),
            (lambda obj: {**obj, "tol": -1.0}, "tol must be finite and positive"),
            (lambda obj: {**obj, "confirmed": 1}, "'confirmed' is 1"),
        ],
    )
    def test_malformed_witness_is_a_value_error(self, rng, edit, match):
        with pytest.raises(ValueError, match=match):
            jsonio.witness_from_json(edit(self.witness_json(rng)))


class TestCPVerdictNotes:
    def test_each_kind_of_claim_is_named(self):
        e = np.array([1.0, 1.0]) / np.sqrt(2)
        c, s = np.cos(np.pi / 4), np.sin(np.pi / 4)
        block = chn.block_unitary_mixture(e, [np.eye(2), np.array([[c, -s], [s, c]])])
        cases = [
            (chn.depolarizing(3, 0.3), {}, True, "certified: no orthogonal pair exceeds tol"),
            (block, {}, True, "violation is a constructive proof"),
            (block, {"budget": 1}, False, "no violation found within budget (not certified)"),
        ]
        for ch, kwargs, certified, note in cases:
            verdict = classify.is_commutativity_preserving(ch, **kwargs)
            obj = json.loads(json.dumps(jsonio.cp_verdict_to_json(verdict)))
            assert obj["certified"] is certified
            assert obj["note"] == note
            assert (obj["upper_bound"] is None) == (verdict.upper_bound is None)
