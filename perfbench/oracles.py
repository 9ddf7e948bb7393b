"""Known-answer checks for benchmark outputs.

These are computed from the benchmark's own inputs with plain NumPy and do
not go through the library's search or detector code, except where the
check is explicitly a re-check through the library's public readers
(``jsonio`` and ``states.is_classical_on_b``).
"""

from __future__ import annotations

import numpy as np

from qcorr import jsonio, states

# Columns are the magic basis.  A two-qubit state is maximally entangled iff
# its magic-basis coordinates are a common phase times a real vector, so the
# maximal entangled fraction of rho is the top eigenvalue of Re(M^dag rho M).
MAGIC = (
    np.array(
        [[1, 0, 0, 1], [-1j, 0, 0, 1j], [0, 1, -1, 0], [0, -1j, -1j, 0]],
        dtype=complex,
    ).T
    / np.sqrt(2)
)

MSF_CLOSED_FORM_TOL = 1e-6
WITNESS_CONFIRM_FACTOR = 10.0


def magic_entangled_fraction(rho: np.ndarray) -> float:
    """Exact maximal entangled fraction of a two-qubit density matrix."""
    m = MAGIC.conj().T @ np.asarray(rho, dtype=complex) @ MAGIC
    return float(np.linalg.eigvalsh((m + m.conj().T).real / 2).max())


def local_b_action(kraus: np.ndarray, rho: np.ndarray, dim_a: int) -> np.ndarray:
    """(I_A (x) L)(rho) by explicit Kraus sums over I (x) E_k."""
    eye = np.eye(dim_a)
    out = np.zeros_like(rho, dtype=complex)
    for e in kraus:
        big = np.kron(eye, e)
        out += big @ rho @ big.conj().T
    return out


def sampled_violation(kraus: np.ndarray, n_pairs: int, rng: np.random.Generator) -> float:
    """Largest normalized output commutator over random orthogonal pure pairs.

    Each pair is the first two columns of the Q factor of a complex Gaussian
    matrix.  A violation at any pair is a proof, so this is a lower bound on
    the channel's maximal violation that does not use the library's search.
    """
    d = kraus.shape[1]
    z = rng.standard_normal((n_pairs, d, d)) + 1j * rng.standard_normal((n_pairs, d, d))
    q = np.linalg.qr(z)[0]

    def outputs(v):
        ev = np.einsum("kab,nb->nka", kraus, v)
        return np.einsum("nka,nkc->nac", ev, ev.conj())

    a, b = outputs(q[:, :, 0]), outputs(q[:, :, 1])
    c = a @ b - b @ a
    norms = np.linalg.norm(a, axis=(1, 2)) * np.linalg.norm(b, axis=(1, 2))
    return float((np.linalg.norm(c, axis=(1, 2)) / norms).max())


def check_witness(witness_json: dict, kraus: np.ndarray, tol: float) -> list[str]:
    """Re-check a creation witness read back from a CLI report.

    The witness is parsed with ``jsonio.witness_from_json`` (which recomputes
    both quantumness values) and its input and output are tested again with
    ``states.is_classical_on_b``.  The reported output must also equal the
    channel applied to the reported input, computed here independently, and
    the reported confirmation must match the recomputed quantumness.
    """
    problems = []
    w = jsonio.witness_from_json(witness_json)
    if not states.is_classical_on_b(w.input_state).is_classical_on_b:
        problems.append("witness input is not classical on B")
    out_rep = states.is_classical_on_b(w.output_state)
    if out_rep.is_classical_on_b or out_rep.quantumness <= tol:
        problems.append(f"witness output quantumness {out_rep.quantumness:.3e} is not above tol")
    reported = float(witness_json["output_quantumness"])
    if abs(reported - out_rep.quantumness) > 1e-9 * max(1.0, reported):
        problems.append(f"reported quantumness {reported:.6e} != recomputed {out_rep.quantumness:.6e}")
    if bool(witness_json["confirmed"]) != (out_rep.quantumness > WITNESS_CONFIRM_FACTOR * tol):
        problems.append("confirmed flag disagrees with the recomputed quantumness")
    expect = local_b_action(kraus, w.input_state.mat, w.input_state.dim_a)
    if np.abs(expect - w.output_state.mat).max() > 1e-10:
        problems.append("witness output is not the channel applied to its input")
    return problems


def check_msf_bound(check, state_mat: np.ndarray, after_mat: np.ndarray, d: int) -> list[str]:
    """Oracles for one verify_msf_bound result.

    The bound must hold; F must lie between the overlap at U = I and the top
    eigenvalue of the state; the fidelity must be (d F + 1)/(d + 1); at
    d = 2 both F values must match the magic-basis closed form.
    """
    problems = []
    if not check.holds:
        problems.append(
            f"bound violated: after {check.after.f_value:.9f} > before {check.before.f_value:.9f}"
        )
    phi = np.eye(d).reshape(-1) / np.sqrt(d)
    for tag, res, mat in (("before", check.before, state_mat), ("after", check.after, after_mat)):
        floor = float(np.real(phi.conj() @ mat @ phi))
        ceiling = float(np.linalg.eigvalsh(mat).max())
        if not floor - 1e-12 <= res.f_value <= ceiling + 1e-12:
            problems.append(f"{tag}.F {res.f_value:.9f} outside [{floor:.9f}, {ceiling:.9f}]")
        if abs(res.fidelity - (d * res.f_value + 1) / (d + 1)) > 1e-15:
            problems.append(f"{tag}.fidelity inconsistent with F")
        if d == 2:
            exact = magic_entangled_fraction(mat)
            if abs(res.f_value - exact) > MSF_CLOSED_FORM_TOL:
                problems.append(f"{tag}.F off the closed form by {abs(res.f_value - exact):.2e}")
    return problems
