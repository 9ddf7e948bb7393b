"""JSON encodings for matrices, channels, states, witnesses, and reports.

Complex numbers are [re, im] pairs and matrices are row-major nested lists,
so files are diffable and language neutral.  Values round-trip at full
double precision (json emits shortest-round-trip decimals).

Channel files:  {"dim": d, "kraus": [matrix, ...], "meta": {"kind": ..., "params": {...}}}
State files:    {"dimA": dA, "dimB": dB, "matrix": matrix}
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from .channels import KrausChannel
from .classify import (
    ClassificationVerdict,
    CPVerdict,
    CreationWitness,
    IsotropicFit,
    MsfBoundCheck,
    MsfResult,
    ScanReport,
)
from .states import BipartiteState, DensityMatrix

CHOI_CONVENTION = (
    "J = (channel x id)(|Phi+><Phi+|) with |Phi+> = d^{-1/2} sum_i |ii>, unit trace; "
    "the channel acts on the first tensor factor"
)
MEASURE_NOTES = (
    "unitaries: Haar (Ginibre QR, phase-fixed); density matrices: trace-normalized "
    "Wishart GG^dag (Hilbert-Schmidt at full rank); channels: Haar Stinespring isometries"
)


def matrix_to_json(m: np.ndarray) -> list:
    m = np.asarray(m, dtype=complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def matrix_from_json(obj: Any) -> np.ndarray:
    try:
        arr = np.asarray(obj, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError("matrix must be a nested list of [re, im] pairs") from exc
    if arr.ndim != 3 or arr.shape[2] != 2:
        raise ValueError("matrix must be a nested list of [re, im] pairs")
    return arr[..., 0] + 1j * arr[..., 1]


def vector_to_json(v: np.ndarray) -> list:
    return [[float(z.real), float(z.imag)] for z in np.asarray(v, dtype=complex)]


def vector_from_json(obj: Any) -> np.ndarray:
    arr = np.asarray(obj, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("vector must be a list of [re, im] pairs")
    return arr[:, 0] + 1j * arr[:, 1]


def _params_to_json(params: dict) -> dict:
    out = {}
    for k, v in params.items():
        if isinstance(v, np.ndarray):
            out[k] = matrix_to_json(v) if v.ndim == 2 else [float(x) for x in np.real(v)]
        elif isinstance(v, (np.floating, float)):
            out[k] = float(v)
        elif isinstance(v, (np.integer, int)):
            out[k] = int(v)
        else:
            out[k] = v
    return out


def channel_to_json(ch: KrausChannel) -> dict:
    return {
        "dim": ch.dim,
        "kraus": [matrix_to_json(e) for e in ch.ops],
        "meta": {"kind": ch.kind or "raw", "params": _params_to_json(ch.params)},
    }


def _int_field(obj: dict, key: str) -> int:
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{key!r} must be an integer, got {value!r}")
    return value


def _object_field(obj: dict, key: str) -> dict:
    value = obj.get(key)
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ValueError(f"{key!r} must be a JSON object, got {value!r}")
    return value


def channel_from_json(obj: Any) -> KrausChannel:
    """A channel from its Kraus list, checked to be finite and trace preserving."""
    if not isinstance(obj, dict) or "dim" not in obj or "kraus" not in obj:
        raise ValueError("channel JSON must have 'dim' and 'kraus' fields")
    dim = _int_field(obj, "dim")
    if not isinstance(obj["kraus"], list):
        raise ValueError("'kraus' must be a list of matrices")
    ops = [matrix_from_json(k) for k in obj["kraus"]]
    if any(e.shape != (dim, dim) for e in ops):
        raise ValueError("Kraus matrices do not match the declared dimension")
    meta = _object_field(obj, "meta")
    return KrausChannel(ops, kind=meta.get("kind"), params=_object_field(meta, "params"))


def state_to_json(state: BipartiteState) -> dict:
    return {"dimA": state.dim_a, "dimB": state.dim_b, "matrix": matrix_to_json(state.mat)}


def state_from_json(obj: Any) -> BipartiteState:
    if not isinstance(obj, dict) or not {"dimA", "dimB", "matrix"} <= set(obj):
        raise ValueError("state JSON must have 'dimA', 'dimB' and 'matrix' fields")
    dims = _int_field(obj, "dimA"), _int_field(obj, "dimB")
    return BipartiteState(*dims, DensityMatrix(matrix_from_json(obj["matrix"])))


def witness_to_json(w: CreationWitness) -> dict:
    return {
        "pair": [vector_to_json(w.pair[0]), vector_to_json(w.pair[1])],
        "input": state_to_json(w.input_state),
        "output": state_to_json(w.output_state),
        "input_quantumness": w.input_quantumness,
        "output_quantumness": w.output_quantumness,
        "confirmed": w.confirmed,
    }


def witness_from_json(obj: Any) -> CreationWitness:
    from .states import is_classical_on_b

    pair = (vector_from_json(obj["pair"][0]), vector_from_json(obj["pair"][1]))
    input_state = state_from_json(obj["input"])
    output_state = state_from_json(obj["output"])
    return CreationWitness(
        pair=pair,
        input_state=input_state,
        output_state=output_state,
        input_quantumness=is_classical_on_b(input_state).quantumness,
        output_quantumness=is_classical_on_b(output_state).quantumness,
        confirmed=bool(obj.get("confirmed", False)),
    )


def cp_verdict_to_json(v: CPVerdict) -> dict:
    if not v.preserving:
        note = "violation is a constructive proof"
    elif v.certified:
        note = "certified: no orthogonal pair exceeds tol"
    else:
        note = "no violation found within budget (not certified)"
    out = {
        "preserving": v.preserving,
        "max_violation": v.max_violation,
        "tol": v.tol,
        "evals": v.evals,
        "budget": v.budget,
        "upper_bound": v.upper_bound,
        "certified": v.certified,
        "band": v.band,
        "note": note,
    }
    if v.witness_pair is not None:
        out["witness_pair"] = [vector_to_json(v.witness_pair[0]), vector_to_json(v.witness_pair[1])]
    return out


def classification_to_json(v: ClassificationVerdict) -> dict:
    out: dict = {"label": v.label}
    if v.basis is not None:
        out["basis"] = matrix_to_json(v.basis)
    if v.iso_fit is not None:
        out["isotropic_fit"] = {
            "p": v.iso_fit.p,
            "gamma": v.iso_fit.gamma,
            "u": None if v.iso_fit.u is None else matrix_to_json(v.iso_fit.u),
        }
    if v.witness is not None:
        out["witness"] = witness_to_json(v.witness)
    out["cp"] = cp_verdict_to_json(v.cp)
    if v.consistent is not None:
        out["consistent"] = v.consistent
    return out


def msf_to_json(r: MsfResult) -> dict:
    return {
        "F": r.f_value,
        "F_upper": r.f_upper,
        "fidelity": r.fidelity,
        "unitary": matrix_to_json(r.unitary),
        "evals": r.evals,
        "iterations": r.iterations,
        "converged": r.converged,
    }


def msf_bound_to_json(b: MsfBoundCheck) -> dict:
    return {
        "before": msf_to_json(b.before),
        "after": msf_to_json(b.after),
        "slack": b.slack,
        "holds": b.holds,
    }


def scan_to_json(report: ScanReport) -> dict:
    return {
        "dim": report.dim,
        "seed": report.seed,
        "n_channels": len(report.rows),
        "family_counts": {
            family: {
                **counts,
                "cp_certified": sum(r.cp_certified for r in report.rows if r.family == family),
            }
            for family, counts in report.family_counts.items()
        },
        "anomalies": [
            {
                "index": r.index,
                "family": r.family,
                "label": r.label,
                "anomaly": r.anomaly,
                "cp_preserving": r.cp_preserving,
                "max_violation": r.max_violation,
            }
            for r in report.anomalies
        ],
    }


def dump(obj: Any, path: str | None) -> str:
    text = json.dumps(obj, indent=2, sort_keys=False)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    return text


def load(path: str) -> Any:
    with open(path) as fh:
        return json.load(fh)
