import json

import numpy as np
import pytest

from qcorr import channels as chn
from qcorr import classify, jsonio
from qcorr.sampling import random_bipartite, random_cptp
from qcorr.states import is_classical_on_b


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
