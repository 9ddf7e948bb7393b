"""What one check accepts, no later check rejects.

Each strategy draws an input at the edge of what its own check accepts,
a fraction t in [0.9, 0.999] of that check's tolerance (read from the
modules, so a changed tolerance moves the edge with it), and pushes it
through every public path: the constructors, apply, apply_local_b, the
witness, classify_channel, msf, the JSON round trip and the command line.
A ValueError, an exit code 2, or a later check that calls the input
something else (a half-classical state that is not classical on B, an
isotropic channel that does not fit as isotropic) fails the test.
"""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcorr import channels as chn
from qcorr import classify, cli, jsonio, linalg, states
from qcorr.sampling import haar_unitary, random_cptp, random_density, rng_from_seed
from qcorr.states import BipartiteState, DensityMatrix, is_classical_on_b, make_half_classical

BUDGET = 300
EDGE = st.floats(0.9, 0.999)
SIGN = st.sampled_from((-1.0, 1.0))


def edge_unitary(d, rng, t):
    """A d x d matrix whose Gram matrix is I + delta, every |delta| entry t ORTHONORMAL_ATOL."""
    target = t * states.ORTHONORMAL_ATOL
    delta = np.triu(target * np.exp(2j * np.pi * rng.random((d, d))), 1)
    delta += delta.conj().T + np.diag(target * rng.choice((-1.0, 1.0), d))
    w, v = np.linalg.eigh(np.eye(d) + delta)
    return haar_unitary(d, rng) @ (v * np.sqrt(w)) @ v.conj().T


def edge_weights(n, rng, t, sign):
    """n weights, one t SPECTRUM_ATOL below 0, the rest summing to 1 + sign t TRACE_ATOL."""
    w = np.empty(n)
    w[0] = -t * linalg.SPECTRUM_ATOL
    w[1:] = rng.dirichlet(np.ones(n - 1)) * (1 + sign * t * states.TRACE_ATOL)
    return rng.permutation(w)


def edge_density(d, rng, t, sign):
    """A matrix DensityMatrix accepts at t of its Hermiticity, trace and spectrum tolerances."""
    w = np.empty(d)
    w[0] = -t * linalg.SPECTRUM_ATOL
    w[1:] = rng.dirichlet(np.ones(d - 1)) * (1 + sign * t * states.TRACE_ATOL - w[0])
    u = haar_unitary(d, rng)
    m = (u * w) @ u.conj().T
    k = random_density(d, rng).mat
    k = k / np.linalg.norm(k)
    # m + i c k has ||M - M^dag||_F = 2c
    return m + 0.5j * t * linalg.HERM_TOL * (1 + np.linalg.norm(m)) * k


def edge_isotropic(d, gamma, side, exponent, inside, u):
    """isotropic at 10^exponent inside or outside one end of its CP range, or its error."""
    lo, hi = chn.isotropic_p_range(d, gamma)
    step = 10.0**exponent * (-1 if inside else 1)
    p = lo - step if side == "lower" else hi + step
    try:
        return chn.isotropic(d, p, gamma, u)
    except ValueError as exc:
        # the Choi positivity check, never the TP check after it, names the fault
        assert not inside and "Choi matrix has eigenvalue" in str(exc)
        return None


def edge_povm(d, rng, t):
    """A projective POVM with t d choi_atol(d) moved from one element to another."""
    basis = haar_unitary(d, rng)
    povm = [np.outer(b, b.conj()) for b in basis.T]
    a = t * d * chn.choi_atol(d) * np.outer(basis[:, 1], basis[:, 1].conj())
    povm[0] = povm[0] - a
    povm[1] = povm[1] + a
    return povm


def round_trip(obj):
    return json.loads(json.dumps(obj))


def run_cli(tmp, channel, state):
    cpath, spath = tmp / "channel.json", tmp / "state.json"
    jsonio.dump(jsonio.channel_to_json(channel), str(cpath))
    jsonio.dump(jsonio.state_to_json(state), str(spath))
    common = ["--budget", str(BUDGET), "--format", "json", "--out", str(tmp / "report.json")]
    for argv in (
        ["classify", "--channel", str(cpath), "--seed", "1"],
        ["witness", "--channel", str(cpath)],
        ["msf", "--in", str(spath), "--channel", str(cpath), "--seed", "1"],
    ):
        assert cli.main(argv + common) in (0, 1), argv


def check_channel(ch, rng, t, sign):
    """Every later path accepts a channel its constructor accepted."""
    d = ch.dim
    ch.apply(DensityMatrix(edge_density(d, rng, t, sign)))
    state = BipartiteState(d, d, DensityMatrix(edge_density(d * d, rng, t, sign)))
    out = ch.apply_local_b(state)
    assert jsonio.state_from_json(round_trip(jsonio.state_to_json(out))).dim_b == d
    back = jsonio.channel_from_json(round_trip(jsonio.channel_to_json(ch)))
    verdict = classify.classify_channel(back, budget=BUDGET)
    if verdict.witness is not None:
        jsonio.witness_from_json(round_trip(jsonio.witness_to_json(verdict.witness)))
    phi, psi = edge_unitary(d, rng, t)[:, :2].T
    witness = classify.witness_from_pair(ch, phi, psi)
    assert is_classical_on_b(witness.input_state).is_classical_on_b
    jsonio.witness_from_json(round_trip(jsonio.witness_to_json(witness)))
    classify.msf(out, budget=BUDGET, rng=rng)
    with tempfile.TemporaryDirectory() as tmp:
        run_cli(Path(tmp), ch, state)
    return verdict


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(("unitary", "mixture", "block", "tp_edge", "isotropic", "decohering")),
    d=st.integers(2, 4),
    seed=st.integers(0, 2**32),
    t=EDGE,
    sign=SIGN,
    gamma=st.sampled_from(("unitary", "transpose")),
    side=st.sampled_from(("lower", "upper")),
    exponent=st.integers(-130, -70).map(lambda k: k / 10),
    inside=st.booleans(),
    exact_u=st.booleans(),
)
def test_channels_at_the_edge_pass_every_later_check(
    kind, d, seed, t, sign, gamma, side, exponent, inside, exact_u
):
    rng = rng_from_seed(seed)
    if kind == "unitary":
        ch = chn.unitary_channel(edge_unitary(d, rng, t))
    elif kind == "mixture":
        w = edge_weights(3, rng, t, sign)
        ch = chn.unital_mixture(w, [edge_unitary(d, rng, t) for _ in w])
    elif kind == "block":
        e = np.sqrt(np.clip(edge_weights(3, rng, t, sign), 0, None))
        ch = chn.block_unitary_mixture(e, [edge_unitary(d - 1, rng, t) for _ in e])
    elif kind == "tp_edge":
        ch = chn.KrausChannel(np.sqrt(1 + sign * t * chn.TP_ATOL) * random_cptp(d, rng).ops)
    elif kind == "isotropic":
        ch = edge_isotropic(d, gamma, side, exponent, inside, None if exact_u else edge_unitary(d, rng, t))
        if ch is None:
            return
    else:
        ch = chn.completely_decohering(edge_unitary(d, rng, t), edge_povm(d, rng, t))
    verdict = check_channel(ch, rng, t, sign)
    # at d = 2 both families are unital and labelled so
    family = {"isotropic": classify.LABEL_ISOTROPIC, "decohering": classify.LABEL_CD}
    if kind in family and d >= 3:
        assert verdict.label == family[kind]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    d=st.integers(2, 4),
    n=st.integers(2, 4),
    seed=st.integers(0, 2**32),
    t=EDGE,
    sign=SIGN,
)
def test_states_at_the_edge_pass_every_later_check(d, n, seed, t, sign):
    rng = rng_from_seed(seed)
    n = min(n, d)
    # a ket off unit norm by t KET_ATOL, read back through the trace check
    ket = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    ket *= (1 + sign * t * states.KET_ATOL) / np.linalg.norm(ket)
    pure = BipartiteState(1, d, DensityMatrix.pure(ket))
    jsonio.state_from_json(round_trip(jsonio.state_to_json(pure)))
    # edge weights and an edge basis give a classical-on-B state
    cond = [random_density(2, rng) for _ in range(n)]
    basis = edge_unitary(d, rng, t)[:, :n]
    half = make_half_classical(edge_weights(n, rng, t, sign), cond, basis)
    assert is_classical_on_b(half).is_classical_on_b
    back = jsonio.state_from_json(round_trip(jsonio.state_to_json(half)))
    assert is_classical_on_b(back).is_classical_on_b
    assert is_classical_on_b(states.measure_and_dephase(back, edge_unitary(d, rng, t))).is_classical_on_b
    # an edge density matrix survives entropy, the JSON round trip and msf
    rho = DensityMatrix(edge_density(d * d, rng, t, sign))
    rho.entropy()
    classify.msf(jsonio.state_from_json(round_trip(jsonio.state_to_json(BipartiteState(d, d, rho)))),
                 budget=BUDGET, rng=rng)


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("gamma", ["unitary", "transpose"])
@pytest.mark.parametrize("side", ["lower", "upper"])
def test_isotropic_past_its_range_is_rejected_by_the_choi_check(d, gamma, side):
    # p = p_lo - k 1e-10 (or p_hi + k 1e-10): a rejection names the Choi
    # eigenvalue, never the TP check, and an accepted p is within d^2
    # choi_atol(d) of the range, the distance at which the least Choi
    # eigenvalue, falling at slope >= 1/d^2, reaches -choi_atol(d)
    lo, hi = chn.isotropic_p_range(d, gamma)
    accepted = []
    for k in range(1, 31):
        p = lo - k * 1e-10 if side == "lower" else hi + k * 1e-10
        try:
            ch = chn.isotropic(d, p, gamma)
        except ValueError as exc:
            assert "Choi matrix has eigenvalue" in str(exc)
            continue
        accepted.append(k)
        assert k * 1e-10 <= d * d * chn.choi_atol(d)
        assert classify.fit_isotropic(ch) is not None
    # the accepted ones are the first few
    assert accepted == list(range(1, len(accepted) + 1))


def test_derived_tolerances_fit_under_their_bounds():
    # each row of the README's tolerance table that is derived, checked as an inequality
    assert states.KET_ATOL * 2.01 < states.TRACE_ATOL
    c = states.ORTHONORMAL_ATOL
    assert np.sqrt(2) * c / (1 - c) < states.CLASSICALITY_TOL
    assert c + states.TRACE_ATOL < chn.TP_ATOL
