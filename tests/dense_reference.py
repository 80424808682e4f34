"""Dense reference for the product-form measurement code and the fidelity core.

The library never builds a Pauli-cube element, a probe density matrix or a
Born table from dense POVM elements.  The tests check it against the dense
arithmetic kept here: the ``3^n`` cube POVMs with their ``2^n`` elements
each, Born probabilities ``Tr(P_i rho)``, pure probe states from unit rows,
and the counts of an arbitrary sequence of POVMs drawn with one multinomial.

The library's Uhlmann overlap roots the truth once; ``estimate_rooted_overlap``
keeps the route that roots the estimate on every call, and ``reference_dp``
the ``(F_dp, F_1)`` pair it gives.  ``reference_outcome_table``
keeps the outcome-table formula that checks, clips and sums in separate passes,
and ``reference_frequencies`` the masked division of counts by their row sums.
``sample_counts`` draws one probability vector, the per-row draw that batched
draws are checked against, and ``operator_schmidt_number`` counts the
operator-Schmidt coefficients of a bipartite pure state.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

from aqtomo.linalg import DimensionError, _eigh, hermitian_part, matrix_sqrt
from aqtomo.measurement import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    Frequencies,
    draw_counts,
    outcome_table,
)
from aqtomo.quantum_objects import RANK_TOL, TRACE_ATOL, DensityMatrix, Povm


@lru_cache(maxsize=None)
def cube_povm(n_qubits: int):
    """All 3^n Pauli-eigenbasis POVMs on n qubits, each with 2^n dense elements.

    Settings are lexicographic over axis strings (x, y, z)^n and elements
    lexicographic over outcome signs, the order of ``PauliCube``.
    """
    if n_qubits < 1:
        raise ValueError("need at least one qubit")
    singles = [
        Povm(tuple((np.eye(2) + sign * sigma) / 2.0 for sign in (1, -1)))
        for sigma in (SIGMA_X, SIGMA_Y, SIGMA_Z)
    ]
    povms = []
    for combo in itertools.product(singles, repeat=n_qubits):
        elements = []
        for parts in itertools.product(*(p.elements for p in combo)):
            acc = parts[0]
            for factor in parts[1:]:
                acc = np.kron(acc, factor)
            elements.append(acc)
        povms.append(Povm(tuple(elements)))
    return tuple(povms)


def born_probabilities(rho, povm) -> np.ndarray:
    """Outcome probabilities p_i = Tr(P_i rho), clamped into [0, 1].

    They sum to the trace of ``rho`` (below 1 for pseudo-states).  ``rho``
    may also be a state matrix, or a stack of ``S`` states ``(S, d, d)``
    giving an ``(S, K)`` table whose rows equal the one-state results bit for
    bit; ``povm`` may also be a stack of elements ``(K, d, d)``.
    """
    states = rho.mat if isinstance(rho, DensityMatrix) else np.asarray(rho)
    elems = povm.elements if isinstance(povm, Povm) else np.asarray(povm)
    if states.shape[-1] != elems.shape[-1]:
        raise DimensionError("state and POVM dimensions differ")
    if states.ndim == 2:
        p = np.einsum("aij,ji->a", elems, states).real
    else:  # one contraction per element keeps each trace in one-state order
        p = np.stack([np.einsum("ij,sji->s", e, states) for e in elems], axis=-1).real
    return np.clip(p, 0.0, 1.0)


def unit_rows(vectors) -> np.ndarray:
    """Rows of ``vectors`` divided by their norms (the arithmetic of ``pure_state``)."""
    v = np.asarray(vectors, dtype=complex)
    # per-row dot products of the real and imaginary parts, summed in the
    # order np.linalg.norm uses for one vector
    re, im = v.real[:, None, :], v.imag[:, None, :]
    sq = re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2)
    return v / np.sqrt(sq[:, 0])


def pure_probe_states(unit_vectors) -> np.ndarray:
    """Probe density matrices ``(m, d, d)`` of pure states given as unit rows.

    Equal bit for bit to the matrices of ``DensityMatrix(np.outer(v, v.conj()))``.
    """
    v = np.asarray(unit_vectors, dtype=complex)
    outer = v[:, :, None] * v.conj()[:, None, :]
    states = (outer + outer.conj().swapaxes(-1, -2)) / 2.0
    traces = np.einsum("sii->s", states).real
    if np.any(np.abs(traces - 1.0) > TRACE_ATOL):
        raise ValueError("probe vectors must have unit norm")
    return states


def dense_table(rho, povms) -> np.ndarray:
    """``(S, K+1)`` outcome table of a sequence of POVMs with one outcome count."""
    return outcome_table(np.stack([born_probabilities(rho, p) for p in povms]))


def dense_counts(rho, povms, shots, rng) -> np.ndarray:
    """``(S, K+1)`` counts of a sequence of POVMs from one multinomial draw."""
    return draw_counts(dense_table(rho, povms), shots, rng)


def estimate_rooted_overlap(a, b) -> float:
    """Tr sqrt(sqrt(a) b sqrt(a)) of one pair: the estimate is rooted, the
    full eigendecomposition of the product is taken, and inner eigenvalues up
    to ``d eps`` of the largest are dropped, as in the library's core."""
    ra = matrix_sqrt(a)
    w, _ = _eigh(hermitian_part(ra @ b @ ra, check=False))
    top = max(w[0], 0.0)
    if w[-1] < -1e-10 * max(1.0, top):
        raise ValueError("fidelity operand is not PSD")
    cutoff = len(w) * np.finfo(float).eps * top
    return float(np.sqrt(np.where(w > cutoff, w, 0.0)).sum())


def reference_dp(a, b, d):
    """``(F_dp, F_1)`` of one pair by the estimate-rooted route."""
    tr_a, tr_b = np.trace(a).real, np.trace(b).real
    f_dp = min(estimate_rooted_overlap(a, b) ** 2 / (tr_a * tr_b), 1.0)
    return f_dp, f_dp - (tr_b - tr_a) ** 2 / d**2


def sample_counts(probs, shots: int, rng) -> np.ndarray:
    """Multinomial counts over the declared outcomes of a probability vector.

    Probabilities may sum to less than 1; the residual mass goes to an
    implicit null outcome whose count is ``shots - counts.sum()``.
    """
    return draw_counts(outcome_table(probs), shots, rng)[:-1].astype(np.int64)


def operator_schmidt_number(state) -> int:
    """Operator Schmidt number of ``|phi><phi|`` for a ``BipartitePureState``
    (counts coefficients above ``RANK_TOL``)."""
    rho = np.outer(state.amplitudes, state.amplitudes.conj())
    da, db = state.dim_a, state.dim_b
    # realign rho[(a,b),(a',b')] -> R[(a,a'),(b,b')]; singular values of R
    # are the operator-Schmidt coefficients.
    r = rho.reshape(da, db, da, db).transpose(0, 2, 1, 3).reshape(da * da, db * db)
    return int(np.sum(np.linalg.svd(r, compute_uv=False) > RANK_TOL))


def reference_outcome_table(probs) -> np.ndarray:
    """The outcome table by separate passes: reject entries below -1e-9, clip
    at 0, reject row sums above 1 + 1e-9, renormalize the rows above 1, then
    append the null column.  A zero row beside an overshooting one divides 0
    by 0 before ``np.where`` drops it, which numpy reports as invalid."""
    p = np.asarray(probs, dtype=float)
    if (p < -1e-9).any():
        raise ValueError(f"negative probability {p.min()}")
    p = np.clip(p, 0.0, None)
    total = p.sum(axis=-1, keepdims=True)
    if (total > 1.0 + 1e-9).any():
        raise ValueError(f"probabilities sum to {total.max()} > 1")
    over = total > 1.0
    if over.any():
        p = np.where(over, p / total, p)
        total = np.where(over, 1.0, total)
    return np.concatenate((p, np.maximum(1.0 - total, 0.0)), axis=-1)


def reference_frequencies(counts) -> Frequencies:
    """Frequencies by a masked division: a row with no shots stays zero."""
    counts = np.asarray(counts)
    shots = counts.sum(axis=1, keepdims=True)
    values = np.zeros((counts.shape[0], counts.shape[1] - 1))
    np.divide(counts[:, :-1], shots, out=values, where=shots > 0)
    return Frequencies(values, shots[:, 0] > 0)
