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
from .linalg import DimensionError, _eigh, _sq_norms, dagger, hermitian_part

# eigenvalues of L^dag A L may dip this far below zero from roundoff
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


def _check_pair(a: np.ndarray, b: np.ndarray, stack: bool = False):
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    square = a.ndim == 2 or (stack and a.ndim > 2)
    if a.shape != b.shape or not square or a.shape[-1] != a.shape[-2]:
        raise DimensionError("fidelity needs two square matrices of equal size")
    return a, b


class Truth(NamedTuple):
    """A truth operator, or ``(K, d, d)`` stack, factored on its support.

    Uhlmann fidelity is symmetric, so every overlap here factors the truth:
    a rank-r matrix ``s = V_r diag(lam_r) V_r^dag`` is ``L L^dag`` with the
    d x r factor ``L = V_r diag(sqrt(lam_r))``, and then
    ``Tr sqrt(sqrt(s) a sqrt(s)) = Tr sqrt(L^dag a L)``, an r x r problem.
    ``support`` holds these factors (:func:`_support`).  A caller that scores
    many estimates against one truth builds this once (``Truth.of``) and pays
    one r x r ``eigvalsh`` per distinct rank of the truth per scoring call.
    ``scenario`` is the :class:`FidelityScenario` every estimate is scored in.
    ``trace`` holds the real trace of each matrix, and ``trace_dev`` and
    ``trace_min`` the largest ``|trace - 1|`` and the smallest trace, which
    every scoring call checks together with its estimate's.
    """

    mat: np.ndarray
    support: tuple
    scenario: FidelityScenario
    trace: np.ndarray
    trace_dev: float
    trace_min: float

    @classmethod
    def of(cls, s: np.ndarray, scenario: FidelityScenario) -> "Truth":
        """Factor ``s``; raises ``NotPSDError`` for a non-PSD truth."""
        s = np.asarray(s, dtype=complex)
        tr = s.trace(0, -2, -1).real
        return cls(s, _support(s), scenario, tr, np.abs(tr - 1.0).max(), tr.min())


def _above_roundoff(w: np.ndarray, top: np.ndarray, d: int) -> np.ndarray:
    """Which eigenvalues ``w`` of a d x d problem, whose largest is
    ``top >= 0``, exceed roundoff; the rest are zeros up to roundoff."""
    return w > d * _EPS * top


def _support(s: np.ndarray) -> tuple:
    """The support factors of a PSD matrix, or of each of a stack.

    One ``eigh`` of ``s`` keeps the eigenvalues that :func:`_above_roundoff`
    keeps of it, and raises ``NotPSDError`` when one lies below
    ``-1e-6 ||s||``.  Returns ``((rows, L), ...)``, one pair per distinct rank
    r in ascending order: for a single matrix ``((None, L),)`` with ``L`` of
    shape ``(d, r)``; for a stack the indices ``rows`` of its rank-r
    matrices and their factors ``L`` of shape ``(len(rows), d, r)``.  Each
    matrix of a stack thus gets the factor it gets alone, bit for bit.
    """
    w, v = _eigh(s)
    # ||s|| bounds every |eigenvalue|, so it is the scale of the matrix
    if np.any(w[..., -1] < -linalg.PSD_FAIL_RTOL * _sq_norms(s) ** 0.5):
        raise linalg.NotPSDError(
            f"truth eigenvalue {w.min():.3e} below -{linalg.PSD_FAIL_RTOL:.0e} * ||s||"
        )
    # w is non-increasing, so the kept eigenvalues lead each row
    keep = _above_roundoff(w, np.maximum(w[..., :1], 0.0), s.shape[-1])
    factors = v * np.sqrt(np.where(keep, w, 0.0))[..., None, :]
    ranks = keep.sum(-1)
    if s.ndim == 2:
        return ((None, np.ascontiguousarray(factors[:, :ranks])),)
    groups = []
    # a set, not np.unique, which imports numpy.ma on first use
    for r in sorted(set(ranks.tolist())):
        rows = np.flatnonzero(ranks == r)
        groups.append((rows, np.ascontiguousarray(factors[rows, :, :r])))
    return tuple(groups)


def _spectrum(a: np.ndarray):
    """The symmetrized estimate and its ascending spectrum (``eigvalsh``)."""
    a = hermitian_part(a)
    return a, np.linalg.eigvalsh(a)


def _overlap_root(a: np.ndarray, spectrum: np.ndarray, support: tuple):
    """Tr sqrt(sqrt(s) a sqrt(s)) of a pair, or of each pair of two stacks.

    The one Uhlmann core: every fidelity below squares this value.  ``a``
    is the estimate with its ascending ``spectrum``, rejected when an
    eigenvalue lies below ``-1e-6 ||a||`` (the rule the truth is held to);
    ``support`` is the truth's :func:`_support`, and each rank group costs
    one ``eigvalsh`` of ``L^dag a L``.  Inner eigenvalues that
    :func:`_above_roundoff` drops are exact zeros up to roundoff; taking
    their square roots would inject O(sqrt(eps)) bias, so they count as 0.
    """
    if (spectrum[..., 0] < -linalg.PSD_FAIL_RTOL * np.sqrt(_sq_norms(a))).any():
        raise linalg.NotPSDError("fidelity operand is not PSD")
    roots = np.empty(a.shape[:-2])
    for rows, factor in support:
        part = a if rows is None else a[..., rows, :, :]
        w = np.linalg.eigvalsh(dagger(factor) @ part @ factor)
        top = np.maximum(w[..., -1:], 0.0)
        if (w[..., :1] < _UHLMANN_EIG_SLOP * np.maximum(1.0, top)).any():
            raise linalg.NotPSDError("fidelity operand is not PSD")
        kept = np.where(_above_roundoff(w, top, a.shape[-1]), w, 0.0)
        root = np.add.reduce(np.sqrt(kept), -1)
        if rows is None:
            return root
        roots[..., rows] = root
    return roots


def state_fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """Raw Uhlmann overlap [Tr sqrt(sqrt(b) a sqrt(b))]^2 for PSD a, b.

    Unit traces are not required; for density matrices this is the standard
    state fidelity, symmetric in its arguments.
    """
    a, b = _check_pair(a, b)
    return float(_overlap_root(*_spectrum(a), _support(b))) ** 2


def _dp_terms(hat_s, spectrum, truth: Truth, d: int):
    """``(F_dp, [Tr(s - hat_s)]^2 / d^2)`` of a pair, or arrays of them for
    each pair of two stacks, each entry equal to its pair's value bit for bit.

    Leading (trial) axes of ``hat_s`` beyond the truth's repeat the truth.
    The truth's scenario says whether both traces must be 1.  ``float_power``
    squares with the C ``pow`` of a Python float's ``**``; an array's ``** 2``
    multiplies, which rounds otherwise in ~0.1% of cases.
    """
    s = truth.mat
    if hat_s.shape[max(hat_s.ndim - s.ndim, 0) :] != s.shape:
        raise DimensionError("estimate and truth shapes differ")
    tr_hat = hat_s.trace(0, -2, -1).real
    # each check reads the estimate's extreme, then the one the truth keeps
    unit = truth.scenario.unit_trace
    if unit and max(np.abs(tr_hat - 1.0).max(), truth.trace_dev) > 1e-6:
        raise ValueError("state-scenario fidelity needs unit traces")
    if min(tr_hat.min(), truth.trace_min) <= 0.0:
        raise ValueError("fidelity_dp needs positive traces")
    # Tr(s - hat_s) sums the differences of the diagonals, as np.trace does
    diff = np.add.reduce(s.diagonal(0, -2, -1) - hat_s.diagonal(0, -2, -1), -1)
    root = _overlap_root(hat_s, spectrum, truth.support)
    f_dp = np.minimum(np.float_power(root, 2) / (tr_hat * truth.trace), 1.0)
    return f_dp, np.float_power(diff.real, 2) / d**2


def fidelity_dp(hat_s: np.ndarray, s: np.ndarray) -> float:
    """Trace-normalized Uhlmann fidelity (the distortion-prone classic form)."""
    hat_s, s = _check_pair(hat_s, s)  # one pair, not a stack
    return fidelity_and_dp(hat_s, s, FidelityScenario("pseudo_state"))[1]


def rooted_fidelity_and_dp(hat_s: np.ndarray, spectrum: np.ndarray, truth: Truth):
    """:func:`fidelity_and_dp` of an estimate against a truth factored once,
    in the truth's scenario, normalized by the d that the estimate's size
    fixes (:meth:`FidelityScenario.norm_dim`).

    ``spectrum`` is the ascending ``eigvalsh`` of ``hat_s`` (one row per
    matrix of a stack), such as a validated value object keeps; it serves
    the PSD check, so a scored estimate costs one r x r ``eigvalsh`` of
    ``L^dag hat_s L`` per distinct rank r of the truth (:class:`Truth`).
    ``hat_s`` may carry leading (trial) axes.
    """
    scenario = truth.scenario
    d = scenario.norm_dim(hat_s.shape[-1])
    f = scenario.f_lower(d)
    f_dp, mismatch = _dp_terms(hat_s, spectrum, truth, d)
    fid = np.minimum(np.maximum((f_dp - mismatch - f) / (1.0 - f), scenario.floor), 1.0)
    return (float(fid), float(f_dp)) if hat_s.ndim == 2 else (fid, f_dp)


def fidelity_and_dp(hat_s: np.ndarray, s: np.ndarray, scenario: FidelityScenario):
    """``(F, F_dp)`` of one pair from a single Uhlmann overlap.

    The first value is :func:`fidelity`, the second :func:`fidelity_dp`, each
    computed with exactly the arithmetic of that function.  Two ``(K, d, d)``
    stacks give two length-``K`` arrays from one stacked overlap, each entry
    equal to the value of its pair alone.
    """
    hat_s, s = _check_pair(hat_s, s, stack=True)
    return rooted_fidelity_and_dp(*_spectrum(hat_s), Truth.of(s, scenario))


def fidelity(hat_s: np.ndarray, s: np.ndarray, scenario: FidelityScenario) -> float:
    """Scenario-normalized fidelity (F_1 - f) / (1 - f), clamped at 1 and at
    the scenario's floor (0, except that a pseudo-state keeps its sign).

    For the state scenario both arguments must have unit trace, and the value
    coincides with :func:`state_fidelity` exactly.  The clamp absorbs
    1e-10-level roundoff overshoot.
    """
    return fidelity_and_dp(hat_s, s, scenario)[0]


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
