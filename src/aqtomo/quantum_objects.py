"""Quantum-domain value types and representation conversions.

Covers density matrices (including sub-unit-trace pseudo-states), POVMs,
channels as Kraus operators, the natural-basis process matrix, the Choi
state, and bipartite pure states with their Schmidt data.

Conventions fixed here and relied on everywhere else:

* natural operator basis ``E_i = |j><k|`` with ``i = j*d + k`` (0-based),
  so the coefficient row of a Kraus operator is just its row-major ravel;
* composite space ``A (x) B`` with flat index ``a * d_B + b``;
* a process matrix ``X`` lives on (output system) (x) (index system) and
  satisfies ``X >= 0`` and ``Tr_1(X) <= I``, with equality exactly for
  trace-preserving channels.

The value classes hold arrays, so they compare and hash by identity.  T
trials' value (``cls._of`` of arrays with a leading trial axis) keeps that
axis in every array and field, and runs every check on each trial's row.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from functools import cache, cached_property

import numpy as np

from . import linalg
from .linalg import (
    DimensionError,
    dagger,
    hermitian_part,
    kron,
    partial_trace_1,
    partial_trace_2,
)

TRACE_ATOL = 1e-9
PSD_ATOL = 1e-9
COMPLETENESS_ATOL = 1e-8
# a process matrix's PSD check, and how far Tr_1(X) may exceed the identity
# (or, for trace_preserving, differ from it entrywise)
PROCESS_PSD_ATOL = 1e-8
PARTIAL_TRACE_ATOL = 1e-8
RANK_TOL = 1e-10  # numerical zero of every eigenvalue and Schmidt rank count


class DegenerateInputError(ValueError):
    """A Schmidt coefficient is (numerically) zero where positivity is required."""


class _Value:
    """Base of the validated values: one trial's, or T trials' through :meth:`_of`."""

    _lead, _ndim = 0, 2  # leading trial axes (1 in _trials' subclass), one trial's

    @classmethod
    def _of(cls, arr, **kwargs):  # T trials' value for an array with a trial axis
        return (cls if np.ndim(arr) == cls._ndim else _trials(cls))(arr, **kwargs)


@cache
def _trials(cls):
    return type(cls.__name__, (cls,), {"_lead": 1})


@dataclass(frozen=True, eq=False)
class DensityMatrix(_Value):
    """A PSD operator with unit trace, or sub-unit trace for pseudo-states.

    ``eigenvalues`` is the ascending spectrum of ``mat`` and ``trace`` its
    real trace, both as validation computed them.  An estimate built from
    its eigenpairs (``v diag(lam) v^dag``) keeps that ``lam``, sorted
    ascending, as its spectrum; every other value solves for it once.
    """

    mat: np.ndarray
    sub_unit: bool = False
    eigenvalues: np.ndarray = field(init=False, repr=False)
    trace: float = field(init=False, repr=False)
    # the ascending spectrum the builder of mat already knows, if any
    _spectrum: InitVar[np.ndarray | None] = None

    def __post_init__(self, _spectrum):
        mat = hermitian_part(linalg._require_square(self.mat, stack=bool(self._lead)))
        w = np.linalg.eigvalsh(mat) if _spectrum is None else _spectrum
        if (low := w[..., 0].min()) < -PSD_ATOL:
            raise linalg.NotPSDError(f"density matrix eigenvalue {low:.3e} < 0")
        tr = mat.trace(0, -2, -1).real
        if self.sub_unit:
            if not ((0.0 < tr) & (tr <= 1.0 + TRACE_ATOL)).all():
                raise ValueError(f"pseudo-state trace {tr} outside (0, 1]")
        elif (np.abs(tr - 1.0) > TRACE_ATOL).any():
            raise ValueError(f"density matrix trace {tr} != 1")
        object.__setattr__(self, "mat", mat)
        object.__setattr__(self, "eigenvalues", w)
        object.__setattr__(self, "trace", tr if self._lead else float(tr))

    @property
    def dim(self) -> int:
        return self.mat.shape[-1]


def pure_state(psi: np.ndarray) -> DensityMatrix:
    """|psi><psi| for a (re)normalized state vector."""
    psi = np.asarray(psi, dtype=complex).ravel()
    psi = psi / np.linalg.norm(psi)
    return DensityMatrix(np.outer(psi, psi.conj()))


@dataclass(frozen=True, eq=False)
class Povm(_Value):
    """Ordered PSD elements summing to the identity.

    ``elements`` is one read-only ``(K, d, d)`` stack, element ``i`` at
    index ``i``; any sequence of equal-shape matrices is accepted.
    ``eigenvalues`` is the ``(K, d)`` stack of their ascending spectra and
    ``completeness_dev`` the ``max |sum_i P_i - I|`` that validation
    computed, the sum taken in element order.
    """

    elements: np.ndarray
    eigenvalues: np.ndarray = field(init=False, repr=False)
    completeness_dev: float = field(init=False, repr=False)
    _ndim = 3

    def __post_init__(self):
        try:
            stack = np.asarray(self.elements, dtype=complex)
        except ValueError:  # numpy refuses ragged elements
            raise DimensionError("POVM elements must be equal-shape matrices") from None
        if stack.size == 0:
            raise ValueError("a POVM needs at least one element")
        if stack.ndim != 3 + self._lead:
            raise DimensionError("POVM elements must be equal-shape matrices")
        # one stacked symmetrization and eigensolve, checked element by element
        stack = hermitian_part(stack)
        w = np.linalg.eigvalsh(stack)
        if w[..., 0].min() < -PSD_ATOL:
            raise linalg.NotPSDError("POVM element is not PSD")
        dev = np.abs(stack.sum(axis=-3) - np.eye(stack.shape[-1])).max(axis=(-2, -1))
        if dev.max() > COMPLETENESS_ATOL:
            raise ValueError("POVM elements do not sum to the identity")
        stack.flags.writeable = False
        object.__setattr__(self, "elements", stack)
        object.__setattr__(self, "eigenvalues", w)
        object.__setattr__(self, "completeness_dev", dev if self._lead else float(dev))

    @property
    def dim(self) -> int:
        return self.elements.shape[-1]

    def __len__(self) -> int:
        return self.elements.shape[-3]


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """A completely positive map given by Kraus operators A_i.

    ``sum A_i^dag A_i <= I`` is enforced; ``tp_flag`` records whether the
    bound is saturated (trace-preserving channel).
    """

    operators: tuple
    tp_flag: bool = field(init=False, default=False)

    def __post_init__(self):
        ops = tuple(np.asarray(a, dtype=complex) for a in self.operators)
        if not ops:
            raise ValueError("a channel needs at least one Kraus operator")
        d = ops[0].shape[0]
        for a in ops:
            if a.shape != (d, d):
                raise DimensionError("Kraus operators must be square with equal size")
        total = sum(dagger(a) @ a for a in ops)
        w = np.linalg.eigvalsh(hermitian_part(total))
        if w[-1] > 1.0 + COMPLETENESS_ATOL:
            raise ValueError(f"sum A^dag A has eigenvalue {w[-1]} > 1")
        object.__setattr__(self, "operators", ops)
        object.__setattr__(self, "tp_flag", bool(w[0] > 1.0 - COMPLETENESS_ATOL))

    @property
    def dim(self) -> int:
        return self.operators[0].shape[0]


@dataclass(frozen=True, eq=False)
class ProcessMatrix(_Value):
    """d^2 x d^2 PSD process matrix X with Tr_1(X) <= I_d.

    ``dim`` is the system dimension d that validation read from the size of
    ``x`` (any other size raises ``DimensionError``).  ``partial_trace`` is
    the read-only ``Tr_1(X)`` that validation formed; ``eigenvalues`` and
    ``partial_trace_eigenvalues`` are the ascending spectra of ``x`` and of
    ``Tr_1(X)`` that validation computed.
    """

    x: np.ndarray
    dim: int = field(init=False)
    eigenvalues: np.ndarray = field(init=False, repr=False)
    partial_trace: np.ndarray = field(init=False, repr=False)
    partial_trace_eigenvalues: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        x = hermitian_part(linalg._require_square(self.x, stack=bool(self._lead)))
        d = linalg._system_dim(x.shape[-1])
        w = np.linalg.eigvalsh(x)
        if w[..., 0].min() < -PROCESS_PSD_ATOL:
            raise linalg.NotPSDError("process matrix is not PSD")
        # Tr_1 of the symmetrized x is Hermitian bit for bit; an overflowed
        # Tr_1 leaves NaN eigenvalues, which fail the bound
        q = partial_trace_1(x, d, d)
        wq = np.linalg.eigvalsh(q)
        if not wq[..., -1].max() <= 1.0 + PARTIAL_TRACE_ATOL:
            raise ValueError("Tr_1(X) exceeds the identity")
        q.flags.writeable = False
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "dim", d)
        object.__setattr__(self, "eigenvalues", w)
        object.__setattr__(self, "partial_trace", q)
        object.__setattr__(self, "partial_trace_eigenvalues", wq)

    @cached_property
    def partial_trace_dev(self) -> float:
        """``max |Tr_1(X) - I|``, formed once."""
        dev = np.abs(self.partial_trace - np.eye(self.dim)).max(axis=(-2, -1))
        return dev if self._lead else float(dev)

    @property
    def trace_preserving(self) -> bool:
        return self.partial_trace_dev <= PARTIAL_TRACE_ATOL


@dataclass(frozen=True, eq=False)
class BipartitePureState:
    """Unit vector on A (x) B together with its Schmidt decomposition.

    ``coefficients`` are non-increasing and >= 0; ``sum_i h_i U|i> (x) V|i>``
    reconstructs the amplitudes.
    """

    amplitudes: np.ndarray
    dim_a: int
    dim_b: int
    coefficients: np.ndarray = field(init=False)
    basis_a: np.ndarray = field(init=False)
    basis_b: np.ndarray = field(init=False)

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex).ravel()
        if amp.size != self.dim_a * self.dim_b:
            raise DimensionError("amplitude length must be dim_a * dim_b")
        if not abs(np.linalg.norm(amp) - 1.0) <= 1e-6:  # a NaN norm fails too
            raise ValueError("amplitudes must have unit norm")
        amp = amp / np.linalg.norm(amp)
        h, u, v = schmidt_decompose(amp, self.dim_a, self.dim_b)
        object.__setattr__(self, "amplitudes", amp)
        object.__setattr__(self, "coefficients", h)
        object.__setattr__(self, "basis_a", u)
        object.__setattr__(self, "basis_b", v)

    @property
    def schmidt_number(self) -> int:
        return int(np.sum(self.coefficients > RANK_TOL))

    @cached_property
    def probe_inverse(self) -> np.ndarray:
        """Read-only ``I (x) U* H^-1 V^dag``, which undoes this state as a probe."""
        if self.schmidt_number < max(self.dim_a, self.dim_b):
            raise DegenerateInputError(
                "input state is not full-Schmidt; the probe cannot be inverted"
            )
        k = self.basis_a.conj() @ np.diag(1.0 / self.coefficients) @ dagger(self.basis_b)
        inverse = kron(np.eye(self.dim_a), k)
        inverse.flags.writeable = False
        return inverse

    @cached_property
    def probe_inverse_adjoint(self) -> np.ndarray:
        """Read-only adjoint of :attr:`probe_inverse`, also formed once."""
        adjoint = dagger(self.probe_inverse)
        adjoint.flags.writeable = False
        return adjoint

    def density(self) -> DensityMatrix:
        return DensityMatrix(np.outer(self.amplitudes, self.amplitudes.conj()))


def schmidt_decompose(psi: np.ndarray, d_a: int, d_b: int):
    """Schmidt data (h, U, V) of a bipartite unit vector via SVD.

    ``h`` is non-increasing, and ``sum_i h_i U|i> (x) V|i>`` rebuilds ``psi``.
    """
    psi = np.asarray(psi, dtype=complex).ravel()
    if psi.size != d_a * d_b:
        raise DimensionError("state vector length must be d_a * d_b")
    if not abs(np.linalg.norm(psi) - 1.0) <= 1e-6:
        raise ValueError("state vector must have unit norm")
    amp = psi.reshape(d_a, d_b)  # amp[a, b] with flat index a * d_b + b
    u, h, vh = np.linalg.svd(amp)
    # amp = u diag(h) vh = sum_i h_i (u|i>)(vh^T|i>)^T, so V = vh.T
    return h, u, vh.T


def maximally_entangled_input(d: int) -> BipartitePureState:
    """|Psi> = sum_j |j>|j> / sqrt(d); the canonical full-Schmidt channel probe."""
    if d < 2:
        raise DimensionError("need d >= 2")
    amp = np.eye(d, dtype=complex).reshape(d * d) / np.sqrt(d)
    return BipartitePureState(amp, d, d)


def kraus_to_process(ch: KrausChannel) -> ProcessMatrix:
    """Natural-basis process matrix ``X = C^T C^*``.

    Row i of C holds the expansion coefficients of the i-th Kraus operator in
    the basis ``E_{j*d+k} = |j><k|``, i.e. its row-major ravel.
    """
    d = ch.dim
    c = np.array([a.reshape(d * d) for a in ch.operators])
    x = c.T @ c.conj()
    return ProcessMatrix(x)


def apply_channel(ch: KrausChannel, rho: DensityMatrix) -> DensityMatrix:
    """Kraus operator-sum action ``sum_i A_i rho A_i^dag``."""
    if ch.dim != rho.dim:
        raise DimensionError("channel and state dimensions differ")
    out = sum(a @ rho.mat @ dagger(a) for a in ch.operators)
    return DensityMatrix(out, sub_unit=not ch.tp_flag or rho.sub_unit)


def apply_extended_channel(ch: KrausChannel, sigma: DensityMatrix) -> DensityMatrix:
    """Action of (channel (x) identity) on a state of the composite space."""
    d = ch.dim
    total = sigma.dim
    if total % d != 0:
        raise DimensionError("composite dimension is not a multiple of the channel's")
    d_b = total // d
    eye_b = np.eye(d_b)
    out = np.zeros((total, total), dtype=complex)
    for a in ch.operators:
        ka = kron(a, eye_b)
        out += ka @ sigma.mat @ dagger(ka)
    return DensityMatrix(out, sub_unit=not ch.tp_flag or sigma.sub_unit)


def apply_process_matrix(pm: ProcessMatrix, rho: DensityMatrix) -> DensityMatrix:
    """Channel action through the process matrix: Tr_2[X (I (x) rho^T)].

    Cross-validates the Kraus path; both agree for matching representations.
    """
    d = pm.dim
    if rho.dim != d:
        raise DimensionError("state dimension does not match the process matrix")
    out = partial_trace_2(pm.x @ kron(np.eye(d), rho.mat.T), d, d)
    return DensityMatrix(hermitian_part(out), sub_unit=not pm.trace_preserving or rho.sub_unit)


def choi_state(ch: KrausChannel) -> DensityMatrix:
    """Channel applied to half of the maximally entangled state.

    Satisfies ``X = d * choi`` for the natural-basis process matrix; the
    trace is 1 exactly for trace-preserving channels and below 1 otherwise.
    """
    probe = maximally_entangled_input(ch.dim)
    return apply_extended_channel(ch, probe.density())
