"""Fidelity and infidelity measures for states, POVM elements and processes.

The classical Uhlmann fidelity reports 1 for certain unequal operators once
they are trace-normalized (e.g. I/3 against I/4).  The corrected family used
here removes that distortion by subtracting a squared trace-mismatch term and
renormalizing the range back to [0, 1]:

    F_dp(A, B) = [Tr sqrt(sqrt(A) B sqrt(A))]^2 / (Tr(A) Tr(B))
    F_1(A, B)  = F_dp(A, B) - [Tr(B - A)]^2 / d^2
    F(A, B)    = (F_1 - f) / (1 - f)

where ``f`` is the tight lower bound of F_1 for the scenario at hand: 0 for
unit-trace states and for pseudo-states, 1/d - 1 for POVM elements on a
d-dimensional space, and -1 for process matrices of a d-dimensional system.
F equals 1 exactly when the arguments are equal, and reduces to the Uhlmann
fidelity for states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import linalg
from .linalg import DimensionError, _any_true, _sq_norms, hermitian_part, matrix_sqrt

# eigenvalues of sqrt(B) A sqrt(B) may dip this far below zero from roundoff
_UHLMANN_EIG_SLOP = -1e-10
_EPS = np.finfo(float).eps
_FUCHS_SLACK = 1e-9  # fuchs_check's tolerance on each side of the sandwich


@dataclass(frozen=True)
class FidelityScenario:
    """Which tomography task a fidelity is evaluated for.

    The trace-mismatch term divides by ``d ** 2``, and ``f_lower(d)`` is
    tight for that ``d``, which the operands fix: the system dimension d of
    a d^2 x d^2 process matrix (:meth:`norm_dim` raises ``DimensionError``
    on any other size), and the operands' own dimension for a state, a
    pseudo-state or a POVM element.
    """

    kind: str  # "state" | "pseudo_state" | "detector_element" | "process"

    def __post_init__(self):
        if self.kind not in ("state", "pseudo_state", "detector_element", "process"):
            raise ValueError(f"unknown scenario kind {self.kind!r}")

    def norm_dim(self, size: int) -> int:
        """The normalization d of ``size x size`` operands."""
        return linalg._system_dim(size) if self.kind == "process" else size

    def f_lower(self, d: int) -> float:
        if self.kind == "detector_element":
            return 1.0 / d - 1.0
        return -1.0 if self.kind == "process" else 0.0

    @property
    def unit_trace(self) -> bool:
        return self.kind == "state"

    @property
    def floor(self) -> float:
        """Lower clamp of F: 0, but a pseudo-state keeps a negative F_1."""
        return -math.inf if self.kind == "pseudo_state" else 0.0


def state_scenario() -> FidelityScenario:
    return FidelityScenario("state")


def detector_scenario() -> FidelityScenario:
    return FidelityScenario("detector_element")


def process_scenario() -> FidelityScenario:
    return FidelityScenario("process")


_PSEUDO_STATE = FidelityScenario("pseudo_state")


def _check_pair(a: np.ndarray, b: np.ndarray, stack: bool = False):
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    square = a.ndim == 2 or (stack and a.ndim > 2)
    if a.shape != b.shape or not square or a.shape[-1] != a.shape[-2]:
        raise DimensionError("fidelity needs two square matrices of equal size")
    return a, b


class Truth(NamedTuple):
    """A truth operator, or ``(K, d, d)`` stack, with its principal square root.

    Uhlmann fidelity is symmetric, so every overlap here roots the truth;
    a caller that scores many estimates against one truth builds this once
    (``Truth.of``) and pays one small ``eigvalsh`` per scored estimate.
    ``traces`` lists the trace of each matrix, also formed once, and
    ``scenario`` is the :class:`FidelityScenario` every estimate is scored in.
    """

    mat: np.ndarray
    root: np.ndarray
    traces: list
    scenario: FidelityScenario

    @classmethod
    def of(cls, s: np.ndarray, scenario: FidelityScenario) -> "Truth":
        """Root ``s``; raises ``NotPSDError`` for a non-PSD truth."""
        s = np.asarray(s, dtype=complex)
        traces = s.trace(0, -2, -1).real.reshape(-1).tolist()
        return cls(s, matrix_sqrt(s), traces, scenario)


def _spectrum(a: np.ndarray):
    """The symmetrized estimate and its ascending spectrum (``eigvalsh``)."""
    a = hermitian_part(a)
    return a, np.linalg.eigvalsh(a)


def _overlap_root(a: np.ndarray, spectrum: np.ndarray, root_b: np.ndarray):
    """Tr sqrt(root_b a root_b) of a pair, or of each pair of two stacks.

    The one Uhlmann core: every fidelity below squares this value.  ``a``
    is the estimate with its ascending ``spectrum``, rejected when an
    eigenvalue lies below ``-1e-6 ||a||`` (the rule of ``matrix_sqrt``);
    ``root_b`` is the square root of the truth.  Inner eigenvalues below
    machine precision relative to the largest are exact zeros up to
    roundoff; taking their square roots would inject O(sqrt(eps)) bias, so
    they are dropped.  The checks of a single pair read Python floats.
    """
    if _any_true(spectrum[..., 0] < -linalg.PSD_FAIL_RTOL * _sq_norms(a) ** 0.5):
        raise linalg.NotPSDError("fidelity operand is not PSD")
    w = np.linalg.eigvalsh(root_b @ a @ root_b)
    if w.ndim == 1:  # one pair: its extremes as Python floats
        top = max(float(w[-1]), 0.0)
        bad = w[0] < _UHLMANN_EIG_SLOP * max(1.0, top)
    else:
        top = np.maximum(w[..., -1:], 0.0)
        bad = (w[..., :1] < _UHLMANN_EIG_SLOP * np.maximum(1.0, top)).any()
    if bad:
        raise linalg.NotPSDError("fidelity operand is not PSD")
    cutoff = w.shape[-1] * _EPS * top
    return np.add.reduce(np.sqrt(np.where(w > cutoff, w, 0.0)), -1)


def state_fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """Raw Uhlmann overlap [Tr sqrt(sqrt(b) a sqrt(b))]^2 for PSD a, b.

    Unit traces are not required; for density matrices this is the standard
    state fidelity, symmetric in its arguments.
    """
    a, b = _check_pair(a, b)
    return float(_overlap_root(*_spectrum(a), matrix_sqrt(b))) ** 2


def _dp_terms(hat_s, spectrum, truth: Truth, d: int) -> list:
    """``(F_dp, [Tr(s - hat_s)]^2 / d^2)`` of a pair, or of each pair of two stacks.

    One (stacked) Uhlmann overlap serves every pair; the scalar tail then
    runs pair by pair in Python floats, so a stack's entries equal the
    values of its pairs alone bit for bit.  The truth's scenario says
    whether both traces must be 1.
    """
    s = truth.mat
    if hat_s.shape != s.shape:
        raise DimensionError("estimate and truth shapes differ")
    tr_hat, tr_s = hat_s.trace(0, -2, -1).real.reshape(-1).tolist(), truth.traces
    # Tr(s - hat_s) sums the differences of the diagonals, as np.trace does
    diff = np.add.reduce(s.diagonal(0, -2, -1) - hat_s.diagonal(0, -2, -1), -1)
    tr_diff, traces = diff.real.reshape(-1).tolist(), tr_hat + tr_s
    off_unit = max(max(traces) - 1.0, 1.0 - min(traces))
    if truth.scenario.unit_trace and off_unit > 1e-6:
        raise ValueError("state-scenario fidelity needs unit traces")
    if min(traces) <= 0.0:
        raise ValueError("fidelity_dp needs positive traces")
    roots = _overlap_root(hat_s, spectrum, truth.root).reshape(-1).tolist()
    return [
        (float(min(root**2 / (t_hat * t_s), 1.0)), t_diff**2 / d**2)
        for root, t_hat, t_s, t_diff in zip(roots, tr_hat, tr_s, tr_diff)
    ]


def _rooted_pair(hat_s, s, scenario=_PSEUDO_STATE, stack: bool = False):
    """An estimate with its spectrum and a rooted truth, checked as a pair."""
    hat_s, s = _check_pair(hat_s, s, stack)
    return *_spectrum(hat_s), Truth.of(s, scenario)


def fidelity_dp(hat_s: np.ndarray, s: np.ndarray) -> float:
    """Trace-normalized Uhlmann fidelity (the distortion-prone classic form)."""
    return _dp_terms(*_rooted_pair(hat_s, s), 1)[0][0]


def fidelity_f1(hat_s: np.ndarray, s: np.ndarray, d: int) -> float:
    """Distortion-corrected fidelity F_dp - [Tr(s - hat_s)]^2 / d^2.

    Equals 1 iff the arguments are equal; ``d`` sets the normalization of
    the trace-mismatch penalty (see :class:`FidelityScenario`).
    """
    f_dp, mismatch = _dp_terms(*_rooted_pair(hat_s, s), d)[0]
    return f_dp - mismatch


def rooted_fidelity_and_dp(hat_s: np.ndarray, spectrum: np.ndarray, truth: Truth):
    """:func:`fidelity_and_dp` of an estimate against a truth rooted once,
    in the truth's scenario, normalized by the d that the estimate's size
    fixes (:meth:`FidelityScenario.norm_dim`).

    ``spectrum`` is the ascending ``eigvalsh`` of ``hat_s`` (one row per
    matrix of a stack), such as a validated value object keeps; it serves
    the PSD check, so a scored estimate costs one ``eigvalsh`` of
    ``sqrt(s) hat_s sqrt(s)``.
    """
    scenario = truth.scenario
    d = scenario.norm_dim(hat_s.shape[-1])
    f, floor = scenario.f_lower(d), scenario.floor
    pairs = []
    for f_dp, mismatch in _dp_terms(hat_s, spectrum, truth, d):
        raw = (f_dp - mismatch - f) / (1.0 - f)
        pairs.append((float(min(max(raw, floor), 1.0)), f_dp))
    if hat_s.ndim == 2:
        return pairs[0]
    return tuple(np.array(values) for values in zip(*pairs))


def fidelity_and_dp(hat_s: np.ndarray, s: np.ndarray, scenario: FidelityScenario):
    """``(F, F_dp)`` of one pair from a single Uhlmann overlap.

    The first value is :func:`fidelity`, the second :func:`fidelity_dp`, each
    computed with exactly the arithmetic of that function.  Two ``(K, d, d)``
    stacks give two length-``K`` arrays from one stacked overlap, each entry
    equal to the value of its pair alone.
    """
    return rooted_fidelity_and_dp(*_rooted_pair(hat_s, s, scenario, stack=True))


def fidelity(hat_s: np.ndarray, s: np.ndarray, scenario: FidelityScenario) -> float:
    """Scenario-normalized fidelity (F_1 - f) / (1 - f), clamped at 1 and at
    the scenario's floor (0, except that a pseudo-state keeps its sign).

    For the state scenario both arguments must have unit trace, and the value
    coincides with :func:`state_fidelity` exactly.  The clamp absorbs
    1e-10-level roundoff overshoot; :func:`fidelity_f1` gives the unclamped
    F_1.
    """
    return fidelity_and_dp(hat_s, s, scenario)[0]


def pseudo_state_fidelity(hat_s: np.ndarray, s: np.ndarray) -> float:
    """F_1 with f = 0 for (possibly sub-unit-trace) reconstructed states.

    Reduces to the Uhlmann fidelity when both traces are 1; used to score
    pseudo-state reconstructions where neither the detector nor the process
    lower bound applies.  Capped at 1 but not floored: a negative value is
    kept.
    """
    return rooted_fidelity_and_dp(*_rooted_pair(hat_s, s))[0]


def detector_fidelity_h(p, q) -> float:
    """Whole-detector fidelity via the block-embedding construction.

    Both detectors are embedded as block-diagonal states
    ``sigma = (1/d) diag(P_1, ..., P_n)`` and compared with the Uhlmann
    fidelity, which factorizes over blocks:
    ``F_H = [sum_j Tr sqrt(sqrt(Q_j) P_j sqrt(Q_j)) / d]^2``.
    """
    if len(p) != len(q):
        raise DimensionError("detectors must have equal element counts")
    if p.dim != q.dim:
        raise DimensionError("detectors must share one dimension")
    d = p.dim
    total = 0.0
    roots = _overlap_root(p.elements, p.eigenvalues, matrix_sqrt(q.elements))
    for root in roots.tolist():
        total += root
    return float(min((total / d) ** 2, 1.0))


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Trace norm ||a - b||_tr (sum of singular values of the difference)."""
    a, b = _check_pair(a, b)
    return float(np.sum(np.abs(np.linalg.svd(a - b, compute_uv=False))))


class FuchsCheck(NamedTuple):
    lower: float  # 1 - sqrt(F)
    half_trace_distance: float
    upper: float  # sqrt(1 - F)
    holds: bool


def fuchs_check(a: np.ndarray, b: np.ndarray) -> FuchsCheck:
    """Evaluate the Fuchs - van de Graaf sandwich for two density matrices.

    Returns the three chain values and whether
    ``1 - sqrt(F) <= ||a-b||_tr / 2 <= sqrt(1-F)`` holds within ``_FUCHS_SLACK``.
    """
    f = min(state_fidelity(a, b), 1.0)
    half_tr = trace_distance(a, b) / 2.0
    lower = 1.0 - np.sqrt(f)
    upper = float(np.sqrt(max(1.0 - f, 0.0)))
    holds = (lower <= half_tr + _FUCHS_SLACK) and (half_tr <= upper + _FUCHS_SLACK)
    return FuchsCheck(float(lower), half_tr, upper, bool(holds))
