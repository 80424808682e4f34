"""Finite-shot measurement simulation: Born-rule sampling and POVM families.

Randomness is driven by :class:`SeededRng`, a (seed, stream_id) pair mapped
onto ``numpy``'s PCG64 through ``SeedSequence(seed, spawn_key=(stream_id,))``.
Identical pairs reproduce identical count sequences across runs; concurrent
trials get disjoint stream ids and never share randomness.

Sampling is batched.  A measurement oracle (:func:`state_sampler`,
:func:`detector_sampler`) turns a battery of ``S`` settings into an
``(S, K+1)`` outcome table (Born probabilities plus a null column holding the
mass a sub-unit pseudo-state lacks) and draws every setting with one
``Generator.multinomial(shots, table)`` call.  numpy draws the rows in order
and draws nothing for a zero-shot row, so the counts, and the generator state
after them, equal those of one draw per setting.  :func:`sample_counts` is
the one-setting case of the same routine.

The Pauli cube, the protocols' one static battery, is held in product form
(:class:`PauliCube`): its Born table and its linear inversion are computed
qubit by qubit and none of its ``6^n`` projectors is built.  A state is
measured in the cube's ``3^n`` settings; a detector is probed with its
``6^n`` product eigenstates, and element ``P_i``'s click table
``Tr(Pi_{s,b} P_i)`` is the cube's Born table of ``P_i``.  Either oracle
computes the cube's table on its first draw and keeps it, so repeated draws
only sample.  The adaptive step measures in estimated eigenbases, and both
oracles write its probabilities as one diagonal: ``diag(U^dag rho U)`` for a
state, ``diag(U_i^dag P_k U_i)`` for element ``P_k`` probed with the columns
of ``U_i``.  No dense cube POVM or probe state is built; the tests keep them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .linalg import DimensionError, as_generator
from .quantum_objects import COMPLETENESS_ATOL, DensityMatrix, Povm

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
    if (p < -1e-9).any():
        raise ValueError(f"negative probability {p.min()}")
    p = np.clip(p, 0.0, None)
    total = p.sum(axis=-1, keepdims=True)
    if (total > 1.0 + 1e-9).any():
        raise ValueError(f"probabilities sum to {total.max()} > 1")
    over = total > 1.0  # 1e-9-level float overshoot only
    if over.any():
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


def _single_qubit_projectors() -> np.ndarray:
    """``(6, 2, 2)`` eigenprojectors ``(I + sigma)/2``, ``(I - sigma)/2`` of x, y, z."""
    return np.stack(
        [
            (np.eye(2) + sign * sigma) / 2.0
            for sigma in (SIGMA_X, SIGMA_Y, SIGMA_Z)
            for sign in (1, -1)
        ]
    )


def _kron_power(single: np.ndarray, n: int) -> np.ndarray:
    out = np.ones((1, 1), dtype=complex)
    for _ in range(n):
        out = np.kron(out, single)
    return out


class PauliCube:
    """The Pauli-cube battery on ``n`` qubits in product form.

    Setting ``s = (s_1..s_n)``, lexicographic over axis strings
    ``(x, y, z)^n``, measures qubit ``k`` in the eigenbasis of
    ``sigma_{s_k}``, and outcome ``b = (b_1..b_n)``, lexicographic over the
    signs ``(+, -)^n``, has the projector ``Pi_{s,b} = (x)_k Pi_{s_k,b_k}``.
    No element is built.  Both linear
    maps between a ``d x d`` matrix and a ``(3^n, 2^n)`` table act qubit by
    qubit: the table's (setting, outcome) axes of each qubit are paired with
    the (row, column) axes of its 2 x 2 block, and the pairs are contracted
    with Kronecker powers of a single-qubit ``(6, 4)`` map, one power per half
    of the qubits, so each map is two matrix products.

    * :meth:`probabilities`, the Born table ``Tr(Pi_{s,b} rho)``, uses the
      map ``(s, b), (i, j) -> conj(Pi_{s,b})_{ij}``.
    * :meth:`invert`, the linear-inversion (classical-shadow) estimator
      ``3^-n sum_{s,b} f_s(b) (x)_k (3 Pi_{s_k,b_k} - I)``, uses the map
      ``(3 Pi_{s,b} - I) / 3``.  From a full frequency table it is the
      least-squares solution, since the cube's Gram matrix is diagonal in
      the Pauli basis.
    """

    def __init__(self, n_qubits: int):
        if n_qubits < 1:
            raise ValueError("need at least one qubit")
        n, half = n_qubits, n_qubits // 2
        self.n_qubits, self.dim = n, 2**n
        proj = _single_qubit_projectors()
        born = proj.conj().reshape(6, 4)
        inverse = ((3.0 * proj - np.eye(2)) / 3.0).reshape(6, 4)
        self._born = (_kron_power(born, half), _kron_power(born, n - half).T)
        self._inverse = (
            np.ascontiguousarray(_kron_power(inverse, half).T),  # (4^h, 6^h)
            _kron_power(inverse, n - half),  # (6^(n-h), 4^(n-h))
        )
        # axes (a_1..a_n, c_1..c_n) -> (a_1, c_1, ..., a_n, c_n) and back
        self._interleave = [a for k in range(n) for a in (k, n + k)]
        self._split = list(range(0, 2 * n, 2)) + list(range(1, 2 * n, 2))

    def __len__(self) -> int:
        """Number of settings, ``3^n``."""
        return 3**self.n_qubits

    def probabilities(self, rho) -> np.ndarray:
        """``(3^n, 2^n)`` Born table of a (pseudo-)state matrix, clamped into [0, 1]."""
        n, d = self.n_qubits, self.dim
        rho = np.asarray(rho)
        if rho.shape != (d, d):
            raise DimensionError(f"state is not {d} x {d}")
        left, right = self._born
        m = rho.reshape((2,) * (2 * n)).transpose(self._interleave)
        t = (left @ m.reshape(left.shape[1], -1) @ right).real
        p = t.reshape((3, 2) * n).transpose(self._split).reshape(len(self), d)
        return np.clip(p, 0.0, 1.0)

    def invert(self, values) -> np.ndarray:
        """Linear-inversion ``d x d`` Hermitian matrix of a ``(3^n, 2^n)`` table."""
        n, d = self.n_qubits, self.dim
        left, right = self._inverse
        f = np.asarray(values).reshape((3,) * n + (2,) * n).transpose(self._interleave)
        r = left @ f.reshape(left.shape[1], -1) @ right
        return r.reshape((2, 2) * n).transpose(self._split).reshape(d, d)


@lru_cache(maxsize=None)
def pauli_cube(n_qubits: int) -> PauliCube:
    """The n-qubit Pauli-cube battery in product form; see :class:`PauliCube`."""
    return PauliCube(n_qubits)


def _basis_probabilities(us, mats) -> np.ndarray:
    """Diagonals ``(U^dag M U)_jj``, clamped into [0, 1], of bases ``U`` against ``M``.

    ``us`` is a ``(..., d, d)`` stack that ``mats`` broadcasts against.  Each
    basis is checked unitary, so that its column projectors sum to the
    identity without being built.
    """
    us = np.asarray(us)
    d = mats.shape[-1]
    if us.ndim < 2 or us.shape[-2:] != (d, d):
        raise DimensionError("measurement bases must be d x d matrices")
    gram = us.conj().swapaxes(-1, -2) @ us
    if np.max(np.abs(gram - np.eye(d))) > COMPLETENESS_ATOL:
        raise ValueError("measurement basis is not unitary")
    p = np.einsum("...ij,...ij->...j", us.conj(), mats @ us).real
    return np.clip(p, 0.0, 1.0)


class _Oracle:
    """Batch draws of the Pauli cube, shared by the two oracles.

    The outcome table of the :class:`PauliCube` of the oracle's dimension is
    computed on first use and kept, read-only, so repeated draws only sample.
    """

    def __init__(self, dim: int):
        self.dim = dim
        self._cube_table = None

    def table(self, cube: PauliCube) -> np.ndarray:
        """``(S, K+1)`` outcome table of the cube's ``S`` settings or probes."""
        if not isinstance(cube, PauliCube):
            raise TypeError(f"oracles measure a PauliCube, not {type(cube).__name__}")
        if cube.dim != self.dim:
            raise DimensionError(f"oracle is {self.dim}-dimensional, cube is not")
        if self._cube_table is None:
            table = outcome_table(self._cube_probabilities(cube))
            table.flags.writeable = False
            self._cube_table = table
        return self._cube_table

    def counts(self, cube: PauliCube, shots, rng) -> np.ndarray:
        """``(S, K+1)`` counts, null column last, from one multinomial draw."""
        return draw_counts(self.table(cube), shots, rng)


class StateOracle(_Oracle):
    """Measurement oracle hiding a (pseudo-)state ``rho``.

    :meth:`counts` measures the ``3^n`` settings of the :class:`PauliCube`
    of ``rho``'s dimension at once (table cached); :meth:`basis_counts`
    measures in the orthonormal basis of a unitary's columns.
    """

    def __init__(self, rho: DensityMatrix):
        super().__init__(rho.dim)
        self.rho = rho

    def _cube_probabilities(self, cube: PauliCube) -> np.ndarray:
        return cube.probabilities(self.rho.mat)

    def basis_table(self, u) -> np.ndarray:
        """``(1, d+1)`` outcome table of a measurement in the columns of ``u``.

        Outcome ``j`` has probability ``(U^dag rho U)_jj``.
        """
        if np.ndim(u) != 2:
            raise DimensionError("measurement basis must be a d x d matrix")
        return outcome_table(_basis_probabilities(u, self.rho.mat)[None])

    def basis_counts(self, u, shots: int, rng) -> np.ndarray:
        """``(1, d+1)`` counts of ``shots`` measurements in the columns of ``u``."""
        return draw_counts(self.basis_table(u), [shots], rng)


class DetectorOracle(_Oracle):
    """Probe oracle hiding a detector ``povm``.

    :meth:`counts` probes the detector with the ``6^n`` product eigenstates
    ``Pi_{s,b}`` of the :class:`PauliCube` of its dimension, row
    ``s * 2^n + b`` in cube order (table cached).  Element ``i``'s click
    probabilities under the cube, ``Tr(Pi_{s,b} P_i)``, are its
    :meth:`PauliCube.probabilities` table.  :meth:`basis_counts` probes with
    the columns of a stack of unitaries.
    """

    def __init__(self, povm: Povm):
        super().__init__(povm.dim)
        self._elements = np.stack(povm.elements)

    def _cube_probabilities(self, cube: PauliCube) -> np.ndarray:
        tables = np.stack([cube.probabilities(e) for e in self._elements], axis=-1)
        return tables.reshape(-1, len(self._elements))

    def basis_table(self, us) -> np.ndarray:
        """``(n d, K+1)`` outcome table of probing with the columns of ``n`` bases.

        ``us`` is an ``(n, d, d)`` stack of unitaries; probe ``(i, j)``, the
        pure state of column ``j`` of ``U_i``, is row ``i * d + j``, and it
        clicks element ``k`` with probability ``(U_i^dag P_k U_i)_jj``, the
        diagonal a state oracle measures, with state and effect swapped.
        """
        us = np.asarray(us)
        if us.ndim != 3:
            raise DimensionError("probe bases must be an (n, d, d) stack")
        p = _basis_probabilities(us[:, None], self._elements)  # [i, k, j]
        return outcome_table(p.swapaxes(1, 2).reshape(-1, len(self._elements)))

    def basis_counts(self, us, shots: int, rng) -> np.ndarray:
        """``(n d, K+1)`` counts of ``shots`` probes with each column of ``us``."""
        table = self.basis_table(us)
        return draw_counts(table, np.full(len(table), shots), rng)


def state_sampler(rho: DensityMatrix) -> StateOracle:
    """Measurement oracle hiding ``rho``; see :class:`StateOracle`."""
    return StateOracle(rho)


def detector_sampler(povm: Povm) -> DetectorOracle:
    """Probe oracle hiding a detector; see :class:`DetectorOracle`."""
    return DetectorOracle(povm)


class _Exact:
    """Zero-noise counts: the outcome table itself, whatever the shot budget,
    so every setting's frequencies are its probabilities, zero-shot ones too."""

    def counts(self, settings, shots=None, rng=None) -> np.ndarray:
        return self.table(settings)

    def basis_counts(self, u, shots=None, rng=None) -> np.ndarray:
        return self.basis_table(u)


class ExactStateOracle(_Exact, StateOracle):
    """Zero-noise state oracle: ignores the shot budget."""


class ExactDetectorOracle(_Exact, DetectorOracle):
    """Zero-noise probe oracle for detector tomography."""


def exact_state_sampler(rho: DensityMatrix) -> ExactStateOracle:
    """Zero-noise oracle: its counts are the outcome table itself."""
    return ExactStateOracle(rho)


def exact_detector_sampler(povm: Povm) -> ExactDetectorOracle:
    """Zero-noise probe oracle for detector tomography."""
    return ExactDetectorOracle(povm)
