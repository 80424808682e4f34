"""Finite-shot measurement simulation: Born-rule sampling and POVM families.

Randomness is driven by :class:`SeededRng`, a (seed, stream_id) pair mapped
onto ``numpy``'s PCG64 through ``SeedSequence(seed, spawn_key=(stream_id,))``.
Identical pairs reproduce identical count sequences across runs; concurrent
trials get disjoint stream ids and never share randomness.

Sampling is batched.  A measurement oracle (:func:`state_sampler`,
:func:`detector_sampler`) turns a stack of ``S`` settings into an
``(S, K+1)`` outcome table (Born probabilities plus a null column holding the
mass a sub-unit pseudo-state lacks) and draws every setting with one
``Generator.multinomial(shots, table)`` call.  numpy draws the rows in order
and draws nothing for a zero-shot row, so the counts, and the generator state
after them, equal those of one draw per setting.  A fixed battery's table is
computed once, when the oracle is built.  :func:`sample_counts` is the
one-setting case of the same routine.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .linalg import as_generator
from .quantum_objects import (
    COMPLETENESS_ATOL,
    TRACE_ATOL,
    DensityMatrix,
    Povm,
    born_probabilities,
)

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)


@dataclass(frozen=True)
class SeededRng:
    """Reproducible randomness source keyed by (seed, stream_id)."""

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id,))
        return np.random.Generator(np.random.PCG64(seq))


class Frequencies(NamedTuple):
    """Outcome frequencies of ``S`` settings, the form estimators solve from.

    ``values[s]`` holds the frequencies of setting ``s`` (null outcome
    dropped); ``mask[s]`` is false for a setting that received no shots,
    whose row is all zeros and carries no information.
    """

    values: np.ndarray
    mask: np.ndarray


def frequencies(counts) -> Frequencies:
    """Frequencies of an oracle's ``(S, K+1)`` counts (null column last).

    Each row is divided by its total, which is the setting's shot count.
    """
    counts = np.asarray(counts)
    shots = counts.sum(axis=1, keepdims=True)
    values = np.zeros((counts.shape[0], counts.shape[1] - 1))
    np.divide(counts[:, :-1], shots, out=values, where=shots > 0)
    return Frequencies(values, shots[:, 0] > 0)


def outcome_table(probs) -> np.ndarray:
    """Multinomial table ``(..., K+1)`` of outcome probabilities ``(..., K)``.

    Each row may sum to less than 1; the residual mass goes to an appended
    null outcome.  Rows overshooting 1 by float noise (up to 1e-9) are
    renormalized; larger violations are rejected.
    """
    p = np.asarray(probs, dtype=float)
    if np.any(p < -1e-9):
        raise ValueError(f"negative probability {p.min()}")
    p = np.clip(p, 0.0, None)
    total = p.sum(axis=-1, keepdims=True)
    if np.any(total > 1.0 + 1e-9):
        raise ValueError(f"probabilities sum to {total.max()} > 1")
    over = total > 1.0  # 1e-9-level float overshoot only
    if np.any(over):
        p = np.where(over, p / total, p)
        total = np.where(over, 1.0, total)
    return np.concatenate((p, np.maximum(1.0 - total, 0.0)), axis=-1)


def draw_counts(table, shots, rng) -> np.ndarray:
    """Multinomial counts for every row of an outcome table in one draw.

    ``shots`` gives one count per row.  Rows are drawn in order and a
    zero-shot row consumes no randomness, so the result and the generator
    state afterwards equal those of one draw per row.
    """
    return as_generator(rng).multinomial(np.asarray(shots, dtype=np.int64), table)


def sample_counts(probs, shots: int, rng) -> np.ndarray:
    """Multinomial counts over the declared outcomes of a probability vector.

    Probabilities may sum to less than 1; the residual mass goes to an
    implicit null outcome whose count is ``shots - counts.sum()``.
    """
    return draw_counts(outcome_table(probs), shots, rng)[:-1].astype(np.int64)


def _single_qubit_cube():
    povms = []
    for label, sigma in (("x", SIGMA_X), ("y", SIGMA_Y), ("z", SIGMA_Z)):
        plus = (np.eye(2) + sigma) / 2.0
        minus = (np.eye(2) - sigma) / 2.0
        povms.append(Povm((plus, minus), name=f"cube-{label}"))
    return povms


@lru_cache(maxsize=None)
def cube_povm(n_qubits: int):
    """All 3^n Pauli-eigenbasis POVMs on n qubits, each with 2^n elements.

    Settings are lexicographic over axis strings (x, y, z)^n and elements
    lexicographic over outcome signs, so ordering is stable across runs.
    """
    if n_qubits < 1:
        raise ValueError("need at least one qubit")
    singles = _single_qubit_cube()
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


def unit_rows(vectors) -> np.ndarray:
    """Rows of ``vectors`` divided by their norms (the arithmetic of ``pure_state``)."""
    v = np.asarray(vectors, dtype=complex)
    # per-row dot products of the real and imaginary parts, summed in the
    # order np.linalg.norm uses for one vector
    re, im = v.real[:, None, :], v.imag[:, None, :]
    sq = re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2)
    return v / np.sqrt(sq[:, 0])


def rank1_projectors(vectors) -> np.ndarray:
    """Stacked ``|v><v|`` of the rows of ``vectors``, shape ``(m, d, d)``.

    Equal bit for bit to the matrices of ``DensityMatrix(np.outer(v, v.conj()))``.
    """
    v = np.asarray(vectors, dtype=complex)
    outer = v[:, :, None] * v.conj()[:, None, :]
    return (outer + outer.conj().swapaxes(-1, -2)) / 2.0


def pure_probe_states(unit_vectors) -> np.ndarray:
    """Probe density matrices ``(m, d, d)`` of pure states given as unit rows.

    A rank-1 projector is PSD by construction, so its one physical condition
    left to check is unit trace, i.e. a unit-norm row.
    """
    states = rank1_projectors(unit_vectors)
    traces = np.einsum("sii->s", states).real
    if np.any(np.abs(traces - 1.0) > TRACE_ATOL):
        raise ValueError("probe vectors must have unit norm")
    return states


def eigenbasis_projectors(u: np.ndarray) -> np.ndarray:
    """Projective measurement ``(d, d, d)`` onto the columns of a unitary.

    The projectors are PSD by construction; completeness, which holds when
    ``u`` is unitary, is checked once for the whole stack.
    """
    elements = rank1_projectors(np.asarray(u).T)
    d = elements.shape[-1]
    if np.max(np.abs(elements.sum(axis=0) - np.eye(d))) > COMPLETENESS_ATOL:
        raise ValueError("eigenbasis projectors do not sum to the identity")
    return elements


def random_unit_vectors(count: int, d: int, rng) -> np.ndarray:
    """``(count, d)`` Haar-random unit vectors (rows).

    Normalized complex Gaussian vectors are Haar-uniform on the sphere, which
    is all a rank-1 probe needs.  Each row draws its d real parts, then its d
    imaginary parts.
    """
    z = as_generator(rng).standard_normal((count, 2, d))
    return unit_rows(z[:, 0] + 1j * z[:, 1])


class StateOracle:
    """Measurement oracle hiding a (pseudo-)state ``rho``.

    :meth:`counts` measures ``S`` settings at once, each a POVM or a stack of
    its ``K`` elements (all settings with one outcome count).  When the oracle
    is built with a fixed ``battery`` (a sequence of settings), that battery's
    outcome table is computed here, once, and reused whenever :meth:`counts`
    is given the same object.
    """

    def __init__(self, rho: DensityMatrix, battery=None):
        self.rho = rho
        self.battery = battery
        self._battery_table = None if battery is None else self.table(battery)

    def table(self, settings) -> np.ndarray:
        """``(S, K+1)`` outcome table of ``S`` settings."""
        probs = [born_probabilities(self.rho, setting) for setting in settings]
        return outcome_table(np.stack(probs))

    def counts(self, settings, shots, rng) -> np.ndarray:
        """``(S, K+1)`` counts, null column last, from one multinomial draw."""
        if settings is self.battery:
            return draw_counts(self._battery_table, shots, rng)
        return draw_counts(self.table(settings), shots, rng)


class DetectorOracle:
    """Probe oracle hiding a detector ``povm``.

    :meth:`counts` measures ``S`` stacked probe density matrices ``(S, d, d)``
    at once.
    """

    def __init__(self, povm: Povm):
        self.povm = povm
        self._elements = np.stack(povm.elements)

    def table(self, probes) -> np.ndarray:
        """``(S, K+1)`` outcome table of stacked probe states ``(S, d, d)``."""
        return outcome_table(born_probabilities(probes, self._elements))

    def counts(self, probes, shots, rng) -> np.ndarray:
        """``(S, K+1)`` counts, null column last, from one multinomial draw."""
        return draw_counts(self.table(probes), shots, rng)


def state_sampler(rho: DensityMatrix, battery=None) -> StateOracle:
    """Measurement oracle hiding ``rho``; see :class:`StateOracle`."""
    return StateOracle(rho, battery)


def detector_sampler(povm: Povm) -> DetectorOracle:
    """Probe oracle hiding a detector; see :class:`DetectorOracle`."""
    return DetectorOracle(povm)


class ExactStateOracle(StateOracle):
    """Zero-noise state oracle: ignores the shot budget.

    Its "counts" are the outcome table itself, so every setting's
    frequencies are the Born probabilities, zero-shot settings included.
    """

    def counts(self, settings, shots=None, rng=None) -> np.ndarray:
        return self.table(settings)


class ExactDetectorOracle(DetectorOracle):
    """Zero-noise probe oracle for detector tomography."""

    def counts(self, probes, shots=None, rng=None) -> np.ndarray:
        return self.table(probes)


def exact_state_sampler(rho: DensityMatrix) -> ExactStateOracle:
    """Zero-noise oracle: its counts are the outcome table itself."""
    return ExactStateOracle(rho)


def exact_detector_sampler(povm: Povm) -> ExactDetectorOracle:
    """Zero-noise probe oracle for detector tomography."""
    return ExactDetectorOracle(povm)
