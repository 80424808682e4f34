"""Fidelity and infidelity measures for states, POVM elements and processes.

The classical Uhlmann fidelity reports 1 for certain unequal operators once
they are trace-normalized (e.g. I/3 against I/4).  The corrected family used
here removes that distortion by subtracting a squared trace-mismatch term and
renormalizing the range back to [0, 1]:

    F_dp(A, B) = [Tr sqrt(sqrt(A) B sqrt(A))]^2 / (Tr(A) Tr(B))
    F_1(A, B)  = F_dp(A, B) - [Tr(B - A)]^2 / d^2
    F(A, B)    = (F_1 - f) / (1 - f)

where ``f`` is the tight lower bound of F_1 for the scenario at hand: 0 for
unit-trace states, 1/d - 1 for POVM elements on a d-dimensional space, and
-1 for process matrices of a d-dimensional system.  F equals 1 exactly when
the arguments are equal, and reduces to the Uhlmann fidelity for states.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import linalg
from .linalg import DimensionError, _any_true, _eig, hermitian_part, matrix_sqrt

# eigenvalues of sqrt(A) B sqrt(A) may dip this far below zero from roundoff
_UHLMANN_EIG_SLOP = -1e-10
_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class FidelityScenario:
    """Which tomography task a fidelity is evaluated for.

    ``dim`` is the POVM-element dimension for detectors and the system
    dimension d (not d^2) for processes; the trace-mismatch term divides by
    ``dim ** 2`` in both cases, which is what makes ``f_lower`` tight.
    """

    kind: str  # "state" | "detector_element" | "process"
    dim: int = 0

    def __post_init__(self):
        if self.kind not in ("state", "detector_element", "process"):
            raise ValueError(f"unknown scenario kind {self.kind!r}")
        if self.kind != "state" and self.dim < 2:
            raise ValueError("detector/process scenarios need dim >= 2")

    @property
    def f_lower(self) -> float:
        if self.kind == "state":
            return 0.0
        if self.kind == "detector_element":
            return 1.0 / self.dim - 1.0
        return -1.0


def state_scenario() -> FidelityScenario:
    return FidelityScenario("state")


def detector_scenario(d: int) -> FidelityScenario:
    return FidelityScenario("detector_element", d)


def process_scenario(d: int) -> FidelityScenario:
    return FidelityScenario("process", d)


def _check_pair(a: np.ndarray, b: np.ndarray, stack: bool = False):
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    square = a.ndim == 2 or (stack and a.ndim > 2)
    if a.shape != b.shape or not square or a.shape[-1] != a.shape[-2]:
        raise DimensionError("fidelity needs two square matrices of equal size")
    return a, b


def _overlap_root(a: np.ndarray, b: np.ndarray):
    """Tr sqrt(sqrt(a) b sqrt(a)) of a pair, or of each pair of two stacks.

    The one Uhlmann core: every fidelity below squares this value.  Inner
    eigenvalues below machine precision relative to the largest are exact
    zeros up to roundoff; taking their square roots would inject O(sqrt(eps))
    bias, so they are dropped.
    """
    ra = matrix_sqrt(a)
    w = _eig(hermitian_part(ra @ b @ ra, check=False)).eigenvalues
    top = np.maximum(w[..., :1], 0.0)
    if _any_true(w[..., -1:] < _UHLMANN_EIG_SLOP * np.maximum(1.0, top)):
        raise linalg.NotPSDError("fidelity operand is not PSD")
    cutoff = w.shape[-1] * _EPS * top
    return np.sqrt(np.where(w > cutoff, w, 0.0)).sum(axis=-1)


def state_fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """Raw Uhlmann overlap [Tr sqrt(sqrt(a) b sqrt(a))]^2 for PSD a, b.

    Unit traces are not required; for density matrices this is the standard
    state fidelity, symmetric in its arguments.
    """
    a, b = _check_pair(a, b)
    return float(_overlap_root(a, b)) ** 2


def _dp_terms(hat_s: np.ndarray, s: np.ndarray, d: int, unit_trace=False) -> list:
    """``(F_dp, [Tr(s - hat_s)]^2 / d^2)`` of a pair, or of each pair of two stacks.

    One (stacked) Uhlmann overlap serves every pair; the scalar tail then
    runs pair by pair in Python floats, so a stack's entries equal the
    values of its pairs alone bit for bit.
    """
    tr_hat, tr_s, tr_diff = (
        np.trace(m, axis1=-2, axis2=-1).real.reshape(-1).tolist()
        for m in (hat_s, s, s - hat_s)
    )
    if unit_trace and max(abs(t - 1.0) for t in tr_hat + tr_s) > 1e-6:
        raise ValueError("state-scenario fidelity needs unit traces")
    if min(tr_hat + tr_s) <= 0.0:
        raise ValueError("fidelity_dp needs positive traces")
    roots = _overlap_root(hat_s, s).reshape(-1).tolist()
    return [
        (float(min(root**2 / (t_hat * t_s), 1.0)), t_diff**2 / d**2)
        for root, t_hat, t_s, t_diff in zip(roots, tr_hat, tr_s, tr_diff)
    ]


def fidelity_dp(hat_s: np.ndarray, s: np.ndarray) -> float:
    """Trace-normalized Uhlmann fidelity (the distortion-prone classic form)."""
    return _dp_terms(*_check_pair(hat_s, s), 1)[0][0]


def fidelity_f1(hat_s: np.ndarray, s: np.ndarray, d: int) -> float:
    """Distortion-corrected fidelity F_dp - [Tr(s - hat_s)]^2 / d^2.

    Equals 1 iff the arguments are equal; ``d`` sets the normalization of
    the trace-mismatch penalty (see :class:`FidelityScenario`).
    """
    f_dp, mismatch = _dp_terms(*_check_pair(hat_s, s), d)[0]
    return f_dp - mismatch


def fidelity_and_dp(
    hat_s: np.ndarray, s: np.ndarray, scenario: FidelityScenario, clamp: bool = True
):
    """``(F, F_dp)`` of one pair from a single Uhlmann overlap.

    The first value is :func:`fidelity`, the second :func:`fidelity_dp`, each
    computed with exactly the arithmetic of that function.  Two ``(K, d, d)``
    stacks give two length-``K`` arrays from one stacked overlap, each entry
    equal to the value of its pair alone.
    """
    hat_s, s = _check_pair(hat_s, s, stack=True)
    state = scenario.kind == "state"
    f = scenario.f_lower
    pairs = []
    for f_dp, mismatch in _dp_terms(
        hat_s, s, hat_s.shape[-1] if state else scenario.dim, unit_trace=state
    ):
        raw = (f_dp - mismatch - f) / (1.0 - f)
        if clamp:
            raw = min(max(raw, 0.0), 1.0)
        pairs.append((float(raw), f_dp))
    if hat_s.ndim == 2:
        return pairs[0]
    return tuple(np.array(values) for values in zip(*pairs))


def fidelity(
    hat_s: np.ndarray, s: np.ndarray, scenario: FidelityScenario, clamp: bool = True
) -> float:
    """Scenario-normalized fidelity (F_1 - f) / (1 - f), clamped into [0, 1].

    For the state scenario both arguments must have unit trace, and the value
    coincides with :func:`state_fidelity` exactly.  ``clamp=False`` skips the
    final clamp that absorbs 1e-10-level roundoff overshoot, which is useful
    when diagnosing near-boundary values.
    """
    return fidelity_and_dp(hat_s, s, scenario, clamp)[0]


def pseudo_state_fidelity(hat_s: np.ndarray, s: np.ndarray) -> float:
    """F_1 with f = 0 for (possibly sub-unit-trace) reconstructed states.

    Reduces to the Uhlmann fidelity when both traces are 1; used to score
    pseudo-state reconstructions where neither the detector nor the process
    lower bound applies.
    """
    hat_s, s = _check_pair(hat_s, s)
    return float(min(fidelity_f1(hat_s, s, hat_s.shape[0]), 1.0))


def detector_fidelity_h(p, q) -> float:
    """Whole-detector fidelity via the block-embedding construction.

    Both detectors are embedded as block-diagonal states
    ``sigma = (1/d) diag(P_1, ..., P_n)`` and compared with the Uhlmann
    fidelity, which factorizes over blocks:
    ``F_H = [sum_j Tr sqrt(sqrt(P_j) Q_j sqrt(P_j)) / d]^2``.
    """
    if len(p) != len(q):
        raise DimensionError("detectors must have equal element counts")
    if p.dim != q.dim:
        raise DimensionError("detectors must share one dimension")
    d = p.dim
    total = 0.0
    for root in _overlap_root(np.stack(p.elements), np.stack(q.elements)).tolist():
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


def fuchs_check(a: np.ndarray, b: np.ndarray, slack: float = 1e-9) -> FuchsCheck:
    """Evaluate the Fuchs - van de Graaf sandwich for two density matrices.

    Returns the three chain values and whether
    ``1 - sqrt(F) <= ||a-b||_tr / 2 <= sqrt(1-F)`` holds within ``slack``.
    """
    f = min(state_fidelity(a, b), 1.0)
    half_tr = trace_distance(a, b) / 2.0
    lower = 1.0 - np.sqrt(f)
    upper = float(np.sqrt(max(1.0 - f, 0.0)))
    holds = (lower <= half_tr + slack) and (half_tr <= upper + slack)
    return FuchsCheck(float(lower), half_tr, upper, bool(holds))
