"""JSON encodings for matrices, channels, states, witnesses, and reports.

Complex numbers are [re, im] pairs and matrices are row-major nested lists,
so files are language neutral.  Values round-trip at full double precision
(json emits shortest-round-trip decimals).  dump writes one line of compact
JSON, which json encodes in C; `python -m json.tool FILE` pretty-prints it.

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
from .states import BipartiteState, DensityMatrix, check_tolerance

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
    return np.stack([m.real, m.imag], -1).tolist()


vector_to_json = matrix_to_json  # the [re, im] encoding of any array


def _pairs_from_json(obj: Any, ndim: int, name: str, form: str) -> np.ndarray:
    """A complex array of ndim axes from nested [re, im] pairs, all finite.

    Malformed input raises "<name> must be <form>"; JSON null (which NumPy
    reads as NaN), NaN and Infinity raise a ValueError that names them.
    """
    malformed = f"{name} must be {form}"
    try:
        arr = np.asarray(obj, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(malformed) from exc
    if arr.ndim != ndim + 1 or arr.shape[-1] != 2:
        raise ValueError(malformed)
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} has non-finite entries (null, NaN or Infinity)")
    return arr[..., 0] + 1j * arr[..., 1]


def matrix_from_json(obj: Any) -> np.ndarray:
    return _pairs_from_json(obj, 2, "matrix", "a nested list of [re, im] pairs")


def vector_from_json(obj: Any) -> np.ndarray:
    return _pairs_from_json(obj, 1, "vector", "a list of [re, im] pairs")


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
    ops = _pairs_from_json(
        obj["kraus"], 3, "'kraus'", "a nonempty list of equal-size matrices of [re, im] pairs"
    )
    if ops.shape[1:] != (dim, dim):
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
        "tol": w.tol,
        "confirmed": w.confirmed,
    }


def witness_from_json(obj: Any) -> CreationWitness:
    """A witness from its pair and states, with both quantumness values recomputed.

    confirmed is recomputed too, against the stored tol; a stored
    "confirmed" flag that disagrees raises.
    """
    from .states import is_classical_on_b

    if not isinstance(obj, dict) or not {"pair", "input", "output"} <= set(obj):
        raise ValueError("witness JSON must have 'pair', 'input' and 'output' fields")
    if "tol" not in obj:
        raise ValueError("witness JSON must have the 'tol' it was confirmed against")
    tol = obj["tol"]
    if isinstance(tol, bool) or not isinstance(tol, (int, float)):
        raise ValueError(f"'tol' must be a number, got {tol!r}")
    if not isinstance(obj["pair"], list) or len(obj["pair"]) != 2:
        raise ValueError("'pair' must be a list of two vectors")
    pair = (vector_from_json(obj["pair"][0]), vector_from_json(obj["pair"][1]))
    input_state = state_from_json(obj["input"])
    output_state = state_from_json(obj["output"])
    witness = CreationWitness(
        pair=pair,
        input_state=input_state,
        output_state=output_state,
        input_quantumness=is_classical_on_b(input_state).quantumness,
        output_quantumness=is_classical_on_b(output_state).quantumness,
        tol=check_tolerance(float(tol)),
    )
    if "confirmed" in obj and obj["confirmed"] is not witness.confirmed:
        raise ValueError(
            f"'confirmed' is {obj['confirmed']!r}, but the output quantumness "
            f"{witness.output_quantumness:.3e} gives {witness.confirmed} at tol {witness.tol:g}"
        )
    return witness


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
    text = json.dumps(obj)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    return text


def load(path: str) -> Any:
    """The JSON value in a file; nesting deeper than the parser's recursion limit is a ValueError."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply to decode") from None
