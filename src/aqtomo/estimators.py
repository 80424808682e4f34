"""Reconstruction algorithms: least-squares tomography, physical projection,
the two-step adaptive state/detector protocols, process-matrix corrections,
and the three-step adaptive ancilla-assisted process tomography pipeline.

The adaptive protocols share one idea: a first pass buys an accurate
eigenbasis, a second pass measures in (or probes with) that eigenbasis so the
estimated eigenvalues are plain outcome frequencies.  Frequencies of
near-zero-probability outcomes concentrate at O(1/N) instead of the O(1/sqrt N)
floor of generic estimators, which is what moves the infidelity from
O(1/sqrt N) to O(1/N) on rank-deficient targets.

Every first pass spends its copies on the Pauli cube and solves it by the
cube's closed-form linear inversion (:meth:`PauliCube.invert`): a state is
measured in the cube's ``3^n`` settings, and a detector is probed with its
``6^n`` product eigenstates, whose click table of element ``P_i`` is the
cube's Born table of ``P_i``.  No design matrix, rank check or
pseudo-inverse is built, and every dimension must be a power of two.  A
detector's elements travel as one ``(K, d, d)`` stack: one PSD projection,
one renormalization and one eigensolve per step, and the adaptive step
probes with the columns of the stacked eigenbases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import linalg
from .linalg import (
    DimensionError,
    _eigh,
    dagger,
    eig_reconstruct,
    hermitian_eig,
    hermitian_part,
    inv_sqrt,
    kron,
    partial_trace_1,
    project_psd,
)
from .measurement import Frequencies, PauliCube, frequencies, pauli_cube
from .quantum_objects import (
    BipartitePureState,
    DegenerateInputError,
    DensityMatrix,
    Povm,
    ProcessMatrix,
)


class EstimationError(RuntimeError):
    """A reconstruction could not be completed from the given data."""


class InformationIncompleteError(EstimationError):
    """A battery setting or probe that the inversion needs received no shots."""


@dataclass(frozen=True)
class TomographyEstimate:
    """A physical estimate, the shots spent on it, and protocol extras."""

    value: object  # DensityMatrix | Povm | ProcessMatrix
    shots_used: int
    method_tag: str
    extras: dict = field(default_factory=dict, repr=False)


# ---------------------------------------------------------------------------
# Linear regression estimation
# ---------------------------------------------------------------------------


class LrePlan:
    """Least-squares solver for the Pauli cube, built once per cube and flag.

    The cube (:class:`~aqtomo.measurement.PauliCube`) is the one static
    battery of the state, pseudo-state and process protocols (detectors are
    probed with its eigenstates, see :func:`qdt_stage1`); any other battery
    raises ``TypeError``.  ``solve`` takes the ``(3^n, 2^n)``
    frequency table of one draw of it.  The cube's ``X^T X`` is diagonal in
    the Pauli basis, so the least-squares solution is the cube's own linear
    inversion (:meth:`PauliCube.invert`, two matrix products): no design
    matrix, rank check or pseudo-inverse is built.  Its identity coefficient
    already is the unconstrained least-squares one; with ``constrain_trace``
    the trace is re-pinned to ``trace_value``.  Setting ``s`` is the only one
    that measures the weight-n Pauli ``sigma_s1 (x) ... (x) sigma_sn``, so a
    zero-shot setting always raises :class:`InformationIncompleteError`.
    """

    def __init__(self, cube: PauliCube, constrain_trace: bool):
        if not isinstance(cube, PauliCube):
            raise TypeError(f"LrePlan solves a PauliCube, not {type(cube).__name__}")
        self.cube, self.d = cube, cube.dim
        self.constrain_trace = constrain_trace

    def solve(self, freqs: Frequencies, trace_value: float = 1.0) -> np.ndarray:
        """Least-squares Hermitian reconstruction from one row per setting."""
        d = self.d
        if freqs.values.shape != (len(self.cube), d):
            raise DimensionError("frequencies do not match the cube's settings")
        if not freqs.mask.all():
            raise InformationIncompleteError(
                "a zero-shot Pauli-cube setting leaves its weight-n Pauli unmeasured"
            )
        rho = self.cube.invert(freqs.values)
        if self.constrain_trace:
            rho.flat[:: d + 1] += (trace_value - np.trace(rho).real) / d
        return rho


# ---------------------------------------------------------------------------
# Physical projection of a unit-trace Hermitian estimate
# ---------------------------------------------------------------------------


def physical_projection_fast(h: np.ndarray) -> DensityMatrix:
    """Eigenvalue simplex projection onto {PSD, same trace, same eigenbasis}.

    Keeps the largest k eigenvalues, shifted by the mean of the discarded
    tail, with k maximal such that the smallest kept value stays
    non-negative.  Equivalent to the Euclidean projection of the eigenvalue
    vector onto the probability simplex; the trace is preserved exactly.
    """
    tr = float(np.trace(np.asarray(h)).real)
    if abs(tr - 1.0) > 1e-8:
        raise ValueError(f"projection expects unit trace, got {tr}")
    w, v = hermitian_eig(h)
    lam = project_eigenvalues_simplex(w)
    return DensityMatrix(eig_reconstruct(lam, v))


def project_eigenvalues_simplex(w: np.ndarray) -> np.ndarray:
    """Project a non-increasing eigenvalue vector onto {x >= 0, sum fixed}."""
    d = w.shape[0]
    total = float(w.sum())
    cumulative = np.cumsum(w)
    lam = np.zeros(d)
    for k in range(d, 0, -1):
        shift = (total - cumulative[k - 1]) / k
        if w[k - 1] + shift >= 0.0:
            lam[:k] = w[:k] + shift
            break
    return lam


# ---------------------------------------------------------------------------
# Two-step adaptive quantum state tomography
# ---------------------------------------------------------------------------


def _split_shots(total: int, parts: int) -> list:
    base = total // parts
    out = [base] * parts
    out[-1] += total - base * parts
    return out


def _cube(dim: int) -> PauliCube:
    """The Pauli cube of ``dim``; a dimension that is no power of two has none."""
    n_qubits = int(round(math.log2(dim)))
    if 2**n_qubits != dim:
        raise DimensionError(f"no Pauli cube has dimension {dim}")
    return pauli_cube(n_qubits)


def _default_plan(dim: int, constrain_trace: bool) -> LrePlan:
    """The Pauli-cube plan of ``dim``, one object per ``(dim, constrain_trace)``.

    The flag is normalized before the cache, so passing it by position or by
    keyword returns the same plan.
    """
    return _cube_plan(dim, bool(constrain_trace))


@lru_cache(maxsize=None)
def _cube_plan(dim: int, constrain_trace: bool) -> LrePlan:
    return LrePlan(_cube(dim), constrain_trace)


def _cube_frequencies(sampler, plan: LrePlan, shots: int, gen) -> Frequencies:
    """Split ``shots`` over the cube's settings and draw them all at once."""
    split = _split_shots(shots, len(plan.cube))
    return frequencies(sampler.counts(plan.cube, split, gen))


def _eigenbasis_frequencies(sampler, u: np.ndarray, shots: int, gen) -> np.ndarray:
    """Outcome frequencies of ``shots`` measurements in the columns of ``u``."""
    return frequencies(sampler.basis_counts(u, shots, gen)).values[0]


def _check_alpha(n_total: int, alpha: float) -> int:
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly between 0 and 1")
    n0 = int(math.floor(alpha * n_total))
    if n0 < 1 or n0 >= n_total:
        raise ValueError(f"budget N={n_total} leaves an empty step at alpha={alpha}")
    return n0


def _two_step_state(sampler, dim, n_total, alpha, rng, sub_unit: bool):
    """The two-step state core: buy an eigenbasis, then count in it.

    Step 1 spends ``floor(alpha * N)`` copies on the Pauli cube and a
    least-squares fit (trace-constrained unless ``sub_unit``), used only for
    its eigenbasis.  Step 2 measures that eigenbasis with the remaining copies
    and adopts the outcome frequencies as eigenvalues; a pseudo-state's null
    outcome absorbs its missing mass.
    """
    n0 = _check_alpha(n_total, alpha)
    gen = linalg.as_generator(rng)
    plan = _default_plan(dim, constrain_trace=not sub_unit)
    rho_tilde = plan.solve(_cube_frequencies(sampler, plan, n0, gen))
    u = hermitian_eig(rho_tilde).eigenvectors
    lam = _eigenbasis_frequencies(sampler, u, n_total - n0, gen)
    if sub_unit and lam.sum() <= 0.0:
        raise EstimationError("every adaptive-step outcome fell in the null bin")
    return DensityMatrix(eig_reconstruct(lam, u), sub_unit=sub_unit)


def _static_solve(sampler, dim, n_total, rng, constrain_trace: bool):
    """Least-squares estimate from the whole budget spent on the Pauli cube."""
    gen = linalg.as_generator(rng)
    plan = _default_plan(dim, constrain_trace)
    return plan.solve(_cube_frequencies(sampler, plan, n_total, gen))


def adaptive_qst(
    sampler, d: int, n_total: int, alpha: float, rng
) -> TomographyEstimate:
    """Two-step adaptive state tomography achieving O(1/N) infidelity.

    Step 1 spends ``floor(alpha * N)`` copies on the Pauli cube and a
    trace-constrained least-squares fit, used only for its eigenbasis (no
    positivity correction is applied).
    Step 2 measures that eigenbasis with the remaining copies and adopts the
    outcome frequencies as eigenvalues, which makes the estimate PSD with
    unit trace by construction.
    """
    rho_hat = _two_step_state(sampler, d, n_total, alpha, rng, sub_unit=False)
    return TomographyEstimate(rho_hat, n_total, "adaptive_qst")


def adaptive_qpst(
    sampler, dim: int, n_total: int, alpha: float, rng
) -> TomographyEstimate:
    """Adaptive pseudo-state tomography for sub-unit-trace reconstructions.

    Same two steps as :func:`adaptive_qst` but with the trace constraint
    dropped in step 1 and a null outcome absorbing the missing mass in
    step 2, so the estimated eigenvalues sum below one.
    """
    sigma_hat = _two_step_state(sampler, dim, n_total, alpha, rng, sub_unit=True)
    return TomographyEstimate(sigma_hat, n_total, "adaptive_qpst")


def static_qst(sampler, d: int, n_total: int, rng) -> TomographyEstimate:
    """Static baseline: full-budget least squares plus physical projection."""
    rho_tilde = _static_solve(sampler, d, n_total, rng, constrain_trace=True)
    rho_hat = physical_projection_fast(rho_tilde)
    return TomographyEstimate(rho_hat, n_total, "static_qst")


# ---------------------------------------------------------------------------
# Two-step adaptive quantum detector tomography
# ---------------------------------------------------------------------------


def qdt_stage1(freqs: Frequencies, cube: PauliCube) -> np.ndarray:
    """Static detector estimate from the click frequencies of the cube's probes.

    ``freqs`` holds one row per probe state ``Pi_{s,b}`` of ``cube``, in cube
    order (row ``s * 2^n + b``), and one column per element.  Element ``i``'s
    column, read as a ``(3^n, 2^n)`` table, estimates ``Tr(Pi_{s,b} P_i)``,
    which :meth:`PauliCube.invert` maps back to ``P_i``.  The inverted
    elements are projected onto the PSD cone as one stack, then
    :func:`_renormalize` restores completeness exactly; the result is the
    ``(K, d, d)`` element stack.  Every probe must have shots: a zero-shot
    probe raises :class:`InformationIncompleteError`, as in :class:`LrePlan`.
    """
    d = cube.dim
    if len(freqs.mask) != len(cube) * d:
        raise DimensionError("one frequency row per cube probe state is required")
    if not freqs.mask.all():
        raise InformationIncompleteError(
            "a zero-shot probe state leaves the cube's inversion incomplete"
        )
    tables = freqs.values.reshape(len(cube), d, -1)
    inverted = np.stack([cube.invert(tables[..., i]) for i in range(tables.shape[2])])
    return _renormalize(project_psd(inverted))


def _renormalize(elements: np.ndarray) -> np.ndarray:
    """Symmetric joint correction ``P_i -> S^-1/2 P_i S^-1/2``, ``S = sum_i P_i``.

    Makes the ``(K, d, d)`` element stack sum to the identity; flooring the
    inverse square root (logged, never fatal) keeps it finite.  ``S`` is
    summed in element order, starting from the first.
    """
    corr = inv_sqrt(sum(elements))
    return hermitian_part(corr @ elements @ corr, check=False)


def adaptive_qdt(
    detector_sampler, n_elements: int, d: int, n_total: int, alpha: float, rng
) -> TomographyEstimate:
    """Two-step adaptive detector tomography with per-element O(1/N) infidelity.

    Step 1 runs :func:`qdt_stage1` on the Pauli cube's probe states; step 2
    takes every element's eigenbasis from one stacked eigensolve, probes
    with each basis column (n * d adaptive probe states, equal budgets,
    drawn at once by the oracle's ``basis_counts``) and adopts the observed
    click frequency of its own element as the eigenvalue estimate.  The
    final correction is :func:`_renormalize`'s.  The ``(N - n0) mod (n * d)``
    shots that do not divide evenly over the adaptive probes are left unused.
    """
    n0 = _check_alpha(n_total, alpha)
    gen = linalg.as_generator(rng)
    stage1 = _cube_stage1(detector_sampler, n_elements, d, n0, gen)

    per_probe = (n_total - n0) // (n_elements * d)
    if per_probe < 1:
        raise EstimationError("step-2 budget is below one shot per adaptive probe")
    bases = _eigh(stage1).eigenvectors
    # probe (i, j) is eigenvector j of element i, in row i * d + j
    counts = detector_sampler.basis_counts(bases, per_probe, gen)
    lam = frequencies(counts).values.reshape(n_elements, d, n_elements)
    own = np.arange(n_elements)
    corrected = eig_reconstruct(lam[own, :, own], bases)

    used = n0 + per_probe * n_elements * d
    return TomographyEstimate(
        value=Povm(tuple(_renormalize(corrected)), name="adaptive-qdt"),
        shots_used=used,
        method_tag="adaptive_qdt",
        extras={"step2_per_probe": per_probe, "unused_shots": n_total - used},
    )


def static_qdt(
    detector_sampler, n_elements: int, d: int, n_total: int, rng
) -> TomographyEstimate:
    """Static detector baseline: the whole budget goes into stage 1."""
    gen = linalg.as_generator(rng)
    elements = _cube_stage1(detector_sampler, n_elements, d, n_total, gen)
    return TomographyEstimate(
        Povm(tuple(elements), name="static-qdt"), n_total, "static_qdt"
    )


def _cube_stage1(detector_sampler, n_elements: int, d: int, shots: int, gen):
    """:func:`qdt_stage1` on the cube's ``6^n`` probes, ``shots`` split in one draw."""
    cube = _cube(d)
    counts = detector_sampler.counts(cube, _split_shots(shots, len(cube) * d), gen)
    if counts.shape[1] - 1 != n_elements:
        raise DimensionError("detector counts have the wrong outcome count")
    return qdt_stage1(frequencies(counts), cube)


# ---------------------------------------------------------------------------
# Process-matrix partial-trace corrections (stage 2)
# ---------------------------------------------------------------------------


def qpt_stage2_tp(g: np.ndarray, dim: int) -> ProcessMatrix:
    """Rescale a PSD matrix so its partial trace equals the identity.

    ``X = (I (x) Q^-1/2) G (I (x) Q^-1/2)`` with ``Q = Tr_1(G)``; invariant
    under positive rescaling of ``G``.  The inverse square root is clamped,
    so a (rare, logged) nearly singular ``Q`` degrades gracefully instead of
    failing.
    """
    g = hermitian_part(np.asarray(g, complex), check=False)
    if g.shape[0] != dim * dim:
        raise DimensionError("stage-2 input must be d^2 x d^2")
    q = partial_trace_1(g, dim, dim)
    corr = kron(np.eye(dim), inv_sqrt(q))
    return ProcessMatrix(corr @ g @ dagger(corr), dim)


def qpt_stage2_ntp(g: np.ndarray, dim: int, n_shots: int) -> ProcessMatrix:
    """Partial-trace correction for non-trace-preserving processes.

    Spectral directions of ``Q = Tr_1(G)`` with zero eigenvalue get the
    floor ``f_c / N`` (smallest positive eigenvalue over the copy budget);
    eigenvalues are then capped at one, and ``G`` is rescaled direction by
    direction so the result satisfies ``X >= 0`` and ``Tr_1(X) <= I``.
    """
    if n_shots < 1:
        raise ValueError("n_shots must be at least 1")
    g = hermitian_part(np.asarray(g, complex), check=False)
    if g.shape[0] != dim * dim:
        raise DimensionError("stage-2 input must be d^2 x d^2")
    q = partial_trace_1(g, dim, dim)
    w, vecs = hermitian_eig(q)
    tol = 1e-12 * dim  # inv_sqrt's default floor
    positive = int(np.sum(w > tol))
    f_bar = w.copy()
    if positive == 0:
        f_bar[:] = 1.0 / n_shots
    else:
        f_bar[positive:] = w[positive - 1] / n_shots
    f_tilde = np.minimum(f_bar, 1.0)
    scale = np.sqrt(f_tilde) / np.sqrt(f_bar)
    corr = kron(np.eye(dim), eig_reconstruct(scale, vecs))
    return ProcessMatrix(corr @ g @ dagger(corr), dim)


# ---------------------------------------------------------------------------
# Ancilla-assisted process tomography
# ---------------------------------------------------------------------------


def aapt_reconstruct(
    sigma_out_hat: DensityMatrix, input_state: BipartitePureState
) -> np.ndarray:
    """Invert the fixed entangled input to get a raw process matrix.

    For input Schmidt data (h, U, V), conjugating the reconstructed output
    state by ``I (x) U* H^-1 V^dag`` undoes the probe exactly, so feeding the
    true output state returns the true process matrix.  Requires every
    Schmidt coefficient to be strictly positive (a full-Schmidt input).
    """
    d = input_state.dim_a
    if input_state.dim_b != d:
        raise DimensionError("ancilla and principal dimensions must match")
    if sigma_out_hat.dim != d * d:
        raise DimensionError("output-state dimension must be d^2")
    h = input_state.coefficients
    if np.min(h) <= 1e-10:
        raise DegenerateInputError(
            "input state is not full-Schmidt; the probe cannot be inverted"
        )
    k = input_state.basis_a.conj() @ np.diag(1.0 / h) @ dagger(input_state.basis_b)
    corr = kron(np.eye(d), k)
    return hermitian_part(corr @ sigma_out_hat.mat @ dagger(corr), check=False)


def adaptive_aapt(
    channel_sampler,
    d: int,
    n_total: int,
    alpha: float,
    tp_flag: bool,
    input_state: BipartitePureState,
    rng,
) -> TomographyEstimate:
    """Three-step adaptive ancilla-assisted process tomography.

    Steps 1-2 run the two-step adaptive state protocol on the joint output
    (its pseudo-state variant when the process is not trace-preserving);
    the result is pulled back through the known entangled input and the
    partial trace is corrected, preserving both the O(1/N) entirety error and
    the O(1/N) decay of the estimated zero eigenvalues.
    """
    state_protocol = adaptive_qst if tp_flag else adaptive_qpst
    state_est = state_protocol(channel_sampler, d * d, n_total, alpha, rng)
    sigma_hat = state_est.value
    return _process_estimate(sigma_hat, input_state, tp_flag, n_total, "adaptive_aapt")


def nonadaptive_aapt(
    channel_sampler,
    d: int,
    n_total: int,
    tp_flag: bool,
    input_state: BipartitePureState,
    rng,
    known_trace: float | None = None,
) -> TomographyEstimate:
    """Static ancilla-assisted baseline (O(1/sqrt N) on rank-deficient targets).

    Spends the whole budget on the Pauli cube.  Trace-preserving
    processes go through the physical projection; otherwise the negative
    eigenvalues are truncated and the remainder rescaled to the a-priori
    known output trace.
    """
    if not tp_flag and known_trace is None:
        raise ValueError("non-trace-preserving baseline needs known_trace")
    sigma_tilde = _static_solve(channel_sampler, d * d, n_total, rng, tp_flag)
    if tp_flag:
        sigma_hat = physical_projection_fast(sigma_tilde)
    else:
        w, v = hermitian_eig(sigma_tilde)
        keep = w >= 0.0
        kept_sum = float(w[keep].sum())
        if kept_sum <= 0.0:
            raise EstimationError("no positive eigenvalue mass to rescale")
        lam = np.where(keep, w, 0.0) * (known_trace / kept_sum)
        sigma_hat = DensityMatrix(eig_reconstruct(lam, v), sub_unit=True)
    return _process_estimate(
        sigma_hat, input_state, tp_flag, n_total, "nonadaptive_aapt"
    )


def _process_estimate(sigma_hat, input_state, tp_flag, n_total, method_tag):
    """Last AAPT step: invert the input probe, then correct the partial trace."""
    d = input_state.dim_a
    x0 = aapt_reconstruct(sigma_hat, input_state)
    x_hat = qpt_stage2_tp(x0, d) if tp_flag else qpt_stage2_ntp(x0, d, n_total)
    return TomographyEstimate(x_hat, n_total, method_tag, {"sigma_out": sigma_hat})
