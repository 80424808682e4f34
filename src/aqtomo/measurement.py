"""Finite-shot measurement simulation: Born-rule sampling and POVM families.

Randomness is driven by :class:`SeededRng`, a (seed, stream_id) pair mapped
onto ``numpy``'s PCG64 through ``SeedSequence(seed, spawn_key=(stream_id,))``.
Identical pairs reproduce identical count sequences across runs; concurrent
trials get disjoint stream ids and never share randomness.
:func:`seeded_generators` builds the generators of many streams under one
seed in one array pass, each in the state ``SeededRng`` gives it.

Sampling is batched.  A measurement oracle (:class:`StateOracle`,
:class:`DetectorOracle`) turns a battery of ``S`` settings into an
``(S, K+1)`` outcome table (Born probabilities plus a null column holding the
mass a sub-unit pseudo-state lacks) and draws every setting with one
``Generator.multinomial(shots, table)`` call.  numpy draws the rows in order
and draws nothing for a zero-shot row, so the counts, and the generator state
after them, equal those of one draw per setting.

The Pauli cube, the protocols' one static battery, is held in product form
(:class:`PauliCube`): its Born table and its linear inversion are computed
qubit by qubit and none of its ``6^n`` projectors is built.  Each oracle owns
the cube of its dimension (``oracle.cube``), so no draw takes a battery.  A
state is measured in the cube's ``3^n`` settings; a detector is probed with
its ``6^n`` product eigenstates, and element ``P_i``'s click table
``Tr(Pi_{s,b} P_i)`` is the cube's Born table of ``P_i``.  Either oracle
computes the cube's table on its first draw and keeps it, so repeated draws
only sample.  The adaptive step measures in estimated eigenbases, and both
oracles write its probabilities as one diagonal: ``diag(U^dag rho U)`` for a
state, ``diag(U_i^dag P_k U_i)`` for element ``P_k`` probed with the columns
of ``U_i``.  No dense cube POVM or probe state is built; the tests keep them.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .linalg import DimensionError, as_generator, kron
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


# SeedSequence's hash: the i-th hashmix XORs a word with A_i, multiplies it by
# A_{i+1} and xorshifts it; word i of generate_state does the same to pool
# word i % 4 with B_i and B_{i+1}; mix(x, y) xorshifts L x - R y (all mod 2^32)
def _hash_constants(init: int, mult: int, count: int) -> list:
    out = [init]
    for _ in range(count - 1):
        out.append(out[-1] * mult & 0xFFFFFFFF)
    return out


_A = _hash_constants(0x43B0D7E5, 0x931E8875, 25)
_B = _hash_constants(0x8B51F9DD, 0x58F38DED, 9)
# hashmixes 0-15 build a seed's pool; 16 + 4k + j mixes stream word k into
# pool word j
_WORD_XOR = np.array([_A[16:20], _A[20:24]], dtype=np.uint32)
_WORD_MUL = np.array([_A[17:21], _A[21:25]], dtype=np.uint32)
_STATE_XOR = np.array(_B[:8], dtype=np.uint32)
_STATE_MUL = np.array(_B[1:9], dtype=np.uint32)
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


@lru_cache(maxsize=16)
def _seed_pool(seed: int) -> np.ndarray:
    """The seed's mixed pool, which a stream's words then enter.

    A seed below 2^64 is at most two words, so a spawn key pads it with zero
    words to the pool size, and those hash as the pool's own padding does.
    """
    pool = np.random.SeedSequence(seed).pool
    pool.flags.writeable = False
    return pool


def _mix_word(pool: np.ndarray, word: np.ndarray, k: int) -> np.ndarray:
    """Pools ``(T, 4)`` after stream word ``k`` (one per row of ``word``)."""
    h = (word[:, None] ^ _WORD_XOR[k]) * _WORD_MUL[k]
    h ^= h >> 16
    out = pool * _MIX_L - h * _MIX_R
    out ^= out >> 16
    return out


class _SeedWords(np.random.bit_generator.ISeedSequence):
    """The four words ``SeedSequence.generate_state(4, np.uint64)`` returns,
    handed to PCG64, which seeds itself from them."""

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def seeded_generators(seed: int, streams) -> list:
    """One generator per stream id, each in the state of
    ``SeededRng(seed, stream).generator()``.

    ``SeedSequence(seed, spawn_key=(stream,))`` hashes the seed into a pool,
    mixes in the stream's one or two uint32 words and hashes the pool into
    PCG64's seed words.  The seed's pool is numpy's (cached); the rest runs
    over all streams at once, and the second-word pass only when some stream
    id is 2^32 or more.  A non-integer stream id raises ``TypeError``,
    and a seed or stream id outside ``[0, 2**64)`` raises ``ValueError``.
    """
    if not 0 <= seed < 2**64:
        raise ValueError("seed must fit in 64 bits")
    ids = [operator.index(i) for i in streams]
    if not all(0 <= i < 2**64 for i in ids):
        raise ValueError("stream ids must lie in [0, 2**64)")
    s = np.array(ids, dtype=np.uint64)
    pool = _mix_word(_seed_pool(seed), s.astype(np.uint32), 0)
    high = s >> 32
    two = high != 0  # a stream id of 2^32 or more has a second word
    if two.any():
        pool[two] = _mix_word(pool[two], high[two].astype(np.uint32), 1)
    state = (np.concatenate((pool, pool), axis=1) ^ _STATE_XOR) * _STATE_MUL
    state ^= state >> 16
    # word pairs read little-endian, as generate_state reads them
    words = state.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)
    return [np.random.Generator(np.random.PCG64(_SeedWords(w))) for w in words]


class Frequencies(NamedTuple):
    """Outcome frequencies of ``S`` settings, the form estimators solve from.

    ``values[s]`` holds the frequencies of setting ``s`` (null outcome
    dropped); ``mask[s]`` is false for a setting that received no shots,
    whose row is all zeros and carries no information.
    """

    values: np.ndarray
    mask: np.ndarray


def frequencies(counts) -> Frequencies:
    """Frequencies of an oracle's ``(..., S, K+1)`` counts (null column last).

    Each row is divided by its total, the setting's shot count (inf if zero).
    """
    counts = np.asarray(counts)
    shots = np.add.reduce(counts, -1, keepdims=True)
    drawn = shots > 0
    values = counts[..., :-1] / np.where(drawn, shots, np.inf)
    return Frequencies(values, drawn[..., 0])


def outcome_table(probs) -> np.ndarray:
    """Multinomial table ``(..., K+1)`` of outcome probabilities ``(..., K)``.

    Each row may sum to less than 1; the residual mass goes to an appended
    null outcome.  Entries below 0 and rows above 1 by float noise (up to
    1e-9 each) are clamped and renormalized, larger violations rejected: one
    reduction each reads the smallest entry, the row sums and their largest.
    """
    p = np.asarray(probs, dtype=float)
    low = np.minimum.reduce(p, None, initial=0.0)
    if low < -1e-9:
        raise ValueError(f"negative probability {low}")
    if low < 0.0:
        p = np.maximum(p, 0.0)
    total = np.add.reduce(p, -1, keepdims=True)
    high = np.maximum.reduce(total, None, initial=1.0)
    if high > 1.0 + 1e-9:
        raise ValueError(f"probabilities sum to {high} > 1")
    if high > 1.0:  # 1e-9-level float overshoot only; the null mass is 0 there
        p = p / np.where(total > 1.0, total, 1.0)
    return np.concatenate((p, np.maximum(1.0 - total, 0.0)), axis=-1)


def draw_counts(table, shots, rng) -> np.ndarray:
    """Multinomial counts for every row of an outcome table in one draw.

    ``shots`` gives one count per row.  Rows are drawn in order and a
    zero-shot row consumes no randomness, so the result and the generator
    state afterwards equal those of one draw per row.  A single row takes
    numpy's one-vector path, which draws the same counts several times faster.
    With a list of T generators, trial ``t`` draws the table (or table ``t`` of
    a ``(T, ...)`` stack) from its own, into a leading trial axis.  The shot
    vector is checked against the rows once for all of them, and a stack
    without one table per generator, like a shot vector that does not match
    the rows, raises :class:`DimensionError`.
    """
    table, shots = np.asarray(table), np.asarray(shots, dtype=np.int64)
    gen = as_generator(rng)
    many, rows = isinstance(gen, list), table.shape[:-1]
    stack = many and len(rows) > shots.ndim  # trial t draws table t
    if stack and rows[0] != len(gen):
        raise DimensionError("a stack of outcome tables needs one per generator")
    if shots.shape != rows[stack:]:  # checked once for every generator
        raise DimensionError("one shot count per outcome-table row is required")
    shape = ((len(gen),) if many else ()) + table.shape[stack:]
    if shots.size == 1:  # numpy's one-vector path: multinomial(int, row)
        shots, table = shots.item(), table.reshape(table.shape[:stack] + (-1,))
    tables = table if stack else itertools.repeat(table)
    counts = [g.multinomial(shots, t) for t, g in zip(tables, gen if many else [gen])]
    return np.array(counts).reshape(shape)


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
        out = kron(out, single)
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
        # axes (a_1..a_n, c_1..c_n) -> (a_1, c_1, ..., a_n, c_n) and back, from the end
        self._interleave = [a - 2 * n for k in range(n) for a in (k, n + k)]
        self._split = list(range(-2 * n, 0, 2)) + list(range(1 - 2 * n, 0, 2))

    def __len__(self) -> int:
        """Number of settings, ``3^n``."""
        return 3**self.n_qubits

    def probabilities(self, rho) -> np.ndarray:
        """``(3^n, 2^n)`` Born table of a (pseudo-)state matrix, unclamped."""
        n, d = self.n_qubits, self.dim
        rho = np.asarray(rho)
        if rho.shape != (d, d):
            raise DimensionError(f"state is not {d} x {d}")
        left, right = self._born
        m = rho.reshape((2,) * (2 * n)).transpose(self._interleave)
        t = (left @ m.reshape(left.shape[1], -1) @ right).real
        return t.reshape((3, 2) * n).transpose(self._split).reshape(len(self), d)

    def invert(self, values) -> np.ndarray:
        """Linear-inversion ``d x d`` Hermitian matrix of a ``(3^n, 2^n)`` table.

        With leading axes ``(..., 3^n, 2^n)``, each table maps as alone, bit for bit.
        """
        n, d = self.n_qubits, self.dim
        left, right = self._inverse
        v = np.asarray(values)
        lead, front = v.shape[:-2], list(range(v.ndim - 2))
        f = v.reshape(lead + (3,) * n + (2,) * n).transpose(front + self._interleave)
        r = left @ f.reshape(lead + (left.shape[1], -1)) @ right
        r = r.reshape(lead + (2, 2) * n).transpose(front + self._split)
        return r.reshape(lead + (d, d))


@lru_cache(maxsize=None)
def pauli_cube(n_qubits: int) -> PauliCube:
    """The n-qubit Pauli-cube battery in product form; see :class:`PauliCube`."""
    return PauliCube(n_qubits)


def _basis_probabilities(us, mats) -> np.ndarray:
    """Diagonals ``(U^dag M U)_jj`` (unclamped) of bases ``U`` against ``M``.

    ``us`` is a ``(..., d, d)`` stack that ``mats`` broadcasts against.  Each
    basis is checked unitary, so that its column projectors sum to the
    identity without being built.
    """
    us = np.asarray(us)
    d = mats.shape[-1]
    if us.ndim < 2 or us.shape[-2:] != (d, d):
        raise DimensionError("measurement bases must be d x d matrices")
    conj = us.conj()
    gram = conj.swapaxes(-1, -2) @ us
    gram.reshape(gram.shape[:-2] + (d * d,))[..., :: d + 1] -= 1.0  # U^dag U - I
    if np.maximum.reduce(np.abs(gram), None) > COMPLETENESS_ATOL:
        raise ValueError("measurement basis is not unitary")
    return np.einsum("...ij,...ij->...j", conj, mats @ us).real


class _Oracle:
    """Draws of the Pauli cube and of eigenbases, shared by the two oracles.

    The outcome table of the oracle's own :attr:`cube` is computed on first
    use and kept, read-only, so repeated draws only sample.
    """

    def __init__(self, dim: int):
        self.dim = dim
        self._cube_table = None

    @property
    def cube(self) -> PauliCube:
        """The :class:`PauliCube` of the oracle's dimension, step 1's battery."""
        n_qubits = self.dim.bit_length() - 1
        if n_qubits < 1 or self.dim != 1 << n_qubits:
            raise DimensionError(f"no Pauli cube has dimension {self.dim}")
        return pauli_cube(n_qubits)

    def table(self) -> np.ndarray:
        """``(S, K+1)`` outcome table of the cube's ``S`` settings or probes."""
        if self._cube_table is None:
            table = outcome_table(self._cube_probabilities(self.cube))
            table.flags.writeable = False
            self._cube_table = table
        return self._cube_table

    def counts(self, shots, rng) -> np.ndarray:
        """``(S, K+1)`` counts of the cube, null column last, from one draw."""
        return draw_counts(self.table(), shots, rng)

    def basis_counts(self, us, shots: int, rng) -> np.ndarray:
        """Counts of ``shots`` draws of every row of ``basis_table(us)``."""
        table = self.basis_table(us)
        return draw_counts(table, [shots] * table.shape[-2], rng)


class StateOracle(_Oracle):
    """Measurement oracle hiding a (pseudo-)state ``rho``.

    :meth:`counts` measures the ``3^n`` settings of its :attr:`cube` at
    once (table cached); :meth:`basis_counts` measures in the orthonormal
    basis of a unitary's columns.
    """

    def __init__(self, rho: DensityMatrix):
        super().__init__(rho.dim)
        self.rho = rho

    def _cube_probabilities(self, cube: PauliCube) -> np.ndarray:
        return cube.probabilities(self.rho.mat)

    def basis_table(self, u) -> np.ndarray:
        """``(1, d+1)`` outcome table of a measurement in the columns of ``u``.

        Outcome ``j`` has probability ``(U^dag rho U)_jj``.  A stack of bases
        ``(..., d, d)`` gives one such table each.
        """
        return outcome_table(_basis_probabilities(u, self.rho.mat)[..., None, :])


class DetectorOracle(_Oracle):
    """Probe oracle hiding a detector ``povm``.

    :meth:`counts` probes the detector with the ``6^n`` product eigenstates
    ``Pi_{s,b}`` of its :attr:`cube`, row ``s * 2^n + b`` in cube order
    (table cached).  Element ``i``'s click probabilities under the cube,
    ``Tr(Pi_{s,b} P_i)``, are its :meth:`PauliCube.probabilities` table.
    :meth:`basis_counts` probes with the columns of a stack of unitaries.
    """

    def __init__(self, povm: Povm):
        super().__init__(povm.dim)
        self._elements = povm.elements

    def _cube_probabilities(self, cube: PauliCube) -> np.ndarray:
        tables = np.stack([cube.probabilities(e) for e in self._elements], axis=-1)
        return tables.reshape(-1, len(self._elements))

    def basis_table(self, us) -> np.ndarray:
        """``(n d, K+1)`` outcome table of probing with the columns of ``n`` bases.

        ``us`` is an ``(n, d, d)`` stack of unitaries; probe ``(i, j)``, the
        pure state of column ``j`` of ``U_i``, is row ``i * d + j``, and it
        clicks element ``k`` with probability ``(U_i^dag P_k U_i)_jj``, the
        diagonal a state oracle measures, with state and effect swapped.
        Leading axes ``(..., n, d, d)`` give one such table each.
        """
        us = np.asarray(us)
        if us.ndim < 3:
            raise DimensionError("probe bases must be an (n, d, d) stack")
        p = _basis_probabilities(us[..., None, :, :], self._elements)  # [..., i, k, j]
        rows = us.shape[:-3] + (-1, p.shape[-2])  # probe (i, j) is row i * d + j
        return outcome_table(p.swapaxes(-1, -2).reshape(rows))


class _Exact:
    """Zero-noise counts: the outcome table itself, whatever the shot budget,
    so every setting's frequencies are its probabilities, zero-shot ones too."""

    def counts(self, shots=None, rng=None) -> np.ndarray:
        return self.table()

    def basis_counts(self, u, shots=None, rng=None) -> np.ndarray:
        return self.basis_table(u)


class ExactStateOracle(_Exact, StateOracle):
    """Zero-noise state oracle: ignores the shot budget."""


class ExactDetectorOracle(_Exact, DetectorOracle):
    """Zero-noise probe oracle for detector tomography."""
