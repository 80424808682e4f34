"""Dense reference for the product-form measurement code.

The library never builds a Pauli-cube element, a probe density matrix or a
Born table from dense POVM elements.  The tests check it against the dense
arithmetic kept here: the ``3^n`` cube POVMs with their ``2^n`` elements
each, Born probabilities ``Tr(P_i rho)``, pure probe states from unit rows,
and the counts of an arbitrary sequence of POVMs drawn with one multinomial.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

from aqtomo.linalg import DimensionError
from aqtomo.measurement import SIGMA_X, SIGMA_Y, SIGMA_Z, draw_counts, outcome_table
from aqtomo.quantum_objects import TRACE_ATOL, DensityMatrix, Povm


@lru_cache(maxsize=None)
def cube_povm(n_qubits: int):
    """All 3^n Pauli-eigenbasis POVMs on n qubits, each with 2^n dense elements.

    Settings are lexicographic over axis strings (x, y, z)^n and elements
    lexicographic over outcome signs, the order of ``PauliCube``.
    """
    if n_qubits < 1:
        raise ValueError("need at least one qubit")
    singles = [
        Povm(
            tuple((np.eye(2) + sign * sigma) / 2.0 for sign in (1, -1)),
            name=f"cube-{axis}",
        )
        for axis, sigma in zip("xyz", (SIGMA_X, SIGMA_Y, SIGMA_Z))
    ]
    povms = []
    for combo in itertools.product(singles, repeat=n_qubits):
        elements = []
        for parts in itertools.product(*(p.elements for p in combo)):
            acc = parts[0]
            for factor in parts[1:]:
                acc = np.kron(acc, factor)
            elements.append(acc)
        name = "".join(p.name[-1] for p in combo)
        povms.append(Povm(tuple(elements), name=f"cube-{name}"))
    return tuple(povms)


def born_probabilities(rho, povm) -> np.ndarray:
    """Outcome probabilities p_i = Tr(P_i rho), clamped into [0, 1].

    They sum to the trace of ``rho`` (below 1 for pseudo-states).  ``rho``
    may also be a state matrix, or a stack of ``S`` states ``(S, d, d)``
    giving an ``(S, K)`` table whose rows equal the one-state results bit for
    bit; ``povm`` may also be a stack of elements ``(K, d, d)``.
    """
    states = rho.mat if isinstance(rho, DensityMatrix) else np.asarray(rho)
    elems = np.stack(povm.elements) if isinstance(povm, Povm) else np.asarray(povm)
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
