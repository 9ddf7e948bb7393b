"""The names that only perfbench resolves: the library runs without any of them.

PINNED lists the functions and re-exports that no library code calls;
they stay because perfbench's tracer or micro-benchmarks look them up by
name.  Each is replaced by a stub that raises, and then every entry point
runs once on small inputs.  So PINNED is the deletion list for the day
perfbench stops resolving these names.
"""

import json

import pytest

from qcorr import channels as chn
from qcorr import classify, cli, jsonio, kernels, optimize, sampling
from qcorr.sampling import (
    random_bipartite,
    random_completely_decohering,
    random_cptp,
    rng_from_seed,
)

PINNED = [
    (optimize, "nelder_mead"),
    (optimize, "maximize_unitary_objective"),
    (classify, "maximize_unitary_objective"),
    (kernels, "pair_violation"),
    (kernels, "entangled_overlap"),
    (kernels, "unpack_hermitian"),
    (kernels, "expi_hermitian"),
    (sampling, "random_ket"),
    (classify, "random_ket"),
]


@pytest.fixture
def stubbed(monkeypatch):
    for module, name in PINNED:
        assert callable(getattr(module, name)), (module.__name__, name)

        def stub(*args, _name=f"{module.__name__}.{name}", **kwargs):
            raise AssertionError(f"{_name} was called")

        monkeypatch.setattr(module, name, stub)


def test_library_runs_without_pinned_names(stubbed):
    rng = rng_from_seed(17)
    for d in (2, 3):
        creator = random_cptp(d, rng)
        assert classify.classify_channel(creator).label == classify.LABEL_CREATOR
        decohering = random_completely_decohering(d, rng)
        assert classify.classify_channel(decohering).label == classify.LABEL_CD
        isotropic = chn.depolarizing(d, 0.3)
        label = classify.LABEL_UNITAL if d == 2 else classify.LABEL_ISOTROPIC
        assert classify.classify_channel(isotropic).label == label
        state = random_bipartite(d, d, rng)
        assert classify.msf(state, budget=400, starts=4, rng=rng).f_value > 0
        bound = classify.verify_msf_bound(state, isotropic, budget=400, starts=4, rng=rng)
        assert bound.holds
    assert len(classify.scan_channels(3, 6, seed=5).rows) == 6


def test_cli_runs_without_pinned_names(stubbed, tmp_path, capsys):
    channel = tmp_path / "channel.json"
    channel.write_text(json.dumps(jsonio.channel_to_json(chn.depolarizing(2, 0.3))))
    state = tmp_path / "state.json"
    state.write_text(json.dumps(jsonio.state_to_json(random_bipartite(2, 2, rng_from_seed(3)))))
    for argv, code in (
        (["classify", "--channel", str(channel)], 0),
        (["witness", "--channel", str(channel)], 1),  # a certified pass: no witness exists
        (["msf", "--in", str(state), "--channel", str(channel), "--budget", "400"], 0),
        (["scan", "--dim", "2", "--samples", "4"], 0),
        (["selftest"], 0),
    ):
        assert cli.main(argv + ["--format", "json"]) == code, argv
        assert json.loads(capsys.readouterr().out)["command"] == argv[0]
