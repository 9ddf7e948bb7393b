"""In-memory span tracer that wraps qcorr functions at their lookup names.

A span is (name, start, end, parent span, operation id).  Spans are stored
in flat arrays while a traced run is active and summarised at the end, so
a traced run keeps no Python object per call.  Each wrapped function is
replaced at the attribute through which the library looks it up (for
example ``qcorr.kernels.pair_violation``, which classify reads as
``kernels.pair_violation``), and `Tracer.uninstall` puts every original
object back.  Calls made outside an operation (warm-up, oracles) pass
straight through and record nothing.
"""

from __future__ import annotations

import functools
import importlib
from array import array
from time import perf_counter

import numpy as np

ROOT_SPAN = "op"

_SAMPLERS = (
    "random_block_unitary_mixture",
    "random_completely_decohering",
    "random_cptp",
    "random_isotropic",
    "random_ket",
    "random_unital_mixture",
    "substream",
)

# (span name, module, attribute path inside the module)
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("kernels.pair_violation", "qcorr.kernels", "pair_violation"),
    ("kernels.entangled_overlap", "qcorr.kernels", "entangled_overlap"),
    ("kernels.apply_kraus", "qcorr.kernels", "apply_kraus"),
    ("kernels.eigh", "qcorr.kernels", "eigh"),
    ("optimize.nelder_mead", "qcorr.optimize", "nelder_mead"),
    ("optimize.maximize_unitary_objective", "qcorr.classify", "maximize_unitary_objective"),
    ("classify.is_commutativity_preserving", "qcorr.classify", "is_commutativity_preserving"),
    ("classify.find_decohering_basis", "qcorr.classify", "find_decohering_basis"),
    ("classify.fit_isotropic", "qcorr.classify", "fit_isotropic"),
    ("classify.is_unital", "qcorr.classify", "is_unital"),
    ("classify.witness_from_pair", "qcorr.classify", "witness_from_pair"),
    ("classify.classify_channel", "qcorr.classify", "classify_channel"),
    ("classify.scan_channels", "qcorr.classify", "scan_channels"),
    ("classify.msf", "qcorr.classify", "msf"),
    ("classify.verify_msf_bound", "qcorr.classify", "verify_msf_bound"),
    ("states.is_classical_on_b", "qcorr.classify", "is_classical_on_b"),
    ("states.is_classical_on_b", "qcorr.states", "is_classical_on_b"),
    ("channels.apply_matrix", "qcorr.channels", "KrausChannel.apply_matrix"),
    ("channels.apply_local_b", "qcorr.channels", "KrausChannel.apply_local_b"),
    ("linalg.hermitian_eig", "qcorr.linalg", "hermitian_eig"),
    ("linalg.simultaneous_diagonalization", "qcorr.linalg", "simultaneous_diagonalization"),
    ("jsonio.load", "qcorr.jsonio", "load"),
    ("jsonio.channel_from_json", "qcorr.jsonio", "channel_from_json"),
    ("jsonio.dump", "qcorr.jsonio", "dump"),
    ("cli.main", "qcorr.cli", "main"),
) + tuple((f"sampling.{fn}", "qcorr.classify", fn) for fn in _SAMPLERS)


def _resolve(module: str, path: str):
    """(owner object, attribute name) for a dotted attribute path in a module."""
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


def installed_targets() -> list[str]:
    """Lookup names that currently hold a tracer wrapper (empty when clean)."""
    out = []
    for _, module, path in TARGETS:
        owner, attr = _resolve(module, path)
        if getattr(getattr(owner, attr), "__perfbench_wrapped__", None) is not None:
            out.append(f"{module}.{path}")
    return out


class Tracer:
    """Records nested spans for calls made inside benchmark operations."""

    def __init__(self) -> None:
        self.names: list[str] = [ROOT_SPAN]
        self._name_ids = {ROOT_SPAN: 0}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._current = -1
        self._op_id = -1
        self._saved: list[tuple[object, str, object]] = []
        # counters read off return values at the same boundaries
        self.nm_evals = 0
        self.search_calls = 0
        self.search_evals = 0
        self.search_budget = 0
        self.search_early = 0
        self.creator_margins: list[float] = []
        self.pass_violations: list[float] = []

    # -- span recording ---------------------------------------------------

    def _open(self, name_id: int) -> int:
        idx = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._current)
        self.op.append(self._op_id)
        self.end.append(0.0)
        self._current = idx
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._current = self.parent[idx]

    def run_op(self, op_id: int, fn, *args):
        """Call fn(*args) as operation op_id under a root span."""
        self._op_id = op_id
        idx = self._open(0)
        try:
            return fn(*args)
        finally:
            self._close(idx)
            self._op_id = -1

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        try:
            for span, module, path in TARGETS:
                owner, attr = _resolve(module, path)
                original = getattr(owner, attr)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(span, original))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, span: str, fn):
        name_id = self._name_ids.setdefault(span, len(self._name_ids))
        if name_id == len(self.names):
            self.names.append(span)
        observe = _OBSERVERS.get(span)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._op_id < 0:
                return fn(*args, **kwargs)
            idx = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if observe is not None:
                observe(tracer, kwargs, result)
            return result

        wrapper.__perfbench_wrapped__ = fn
        return wrapper

    # -- summaries --------------------------------------------------------

    def table(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy seconds and self seconds.

        Self time is a span's duration minus the durations of its direct
        children; children of one span never overlap (one thread), so the
        self times of all spans sum to the total duration of the root spans.
        """
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        self_t = dur - child
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        busy = np.bincount(name, weights=dur, minlength=k)
        selfs = np.bincount(name, weights=self_t, minlength=k)
        return {
            n: {"calls": int(calls[i]), "busy_s": float(busy[i]), "self_s": float(selfs[i])}
            for i, n in enumerate(self.names)
        }

    def save(self, path) -> None:
        """Write every span as arrays (npz) with the span-name table."""
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
        )


def _observe_nelder_mead(tracer: Tracer, kwargs, result) -> None:
    tracer.nm_evals += int(result[2])


def _observe_search(tracer: Tracer, kwargs, result) -> None:
    from qcorr.optimize import DEFAULT_BUDGET

    tracer.search_calls += 1
    tracer.search_evals += int(result.evals)
    tracer.search_budget += int(kwargs.get("budget", DEFAULT_BUDGET))
    tracer.search_early += bool(result.stopped_early)


def _observe_cp(tracer: Tracer, kwargs, verdict) -> None:
    ratio = verdict.max_violation / verdict.tol
    (tracer.pass_violations if verdict.preserving else tracer.creator_margins).append(ratio)


_OBSERVERS = {
    "optimize.nelder_mead": _observe_nelder_mead,
    "optimize.maximize_unitary_objective": _observe_search,
    "classify.is_commutativity_preserving": _observe_cp,
}
