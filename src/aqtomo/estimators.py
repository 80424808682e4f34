"""Reconstruction algorithms: least-squares tomography, physical projection,
the two-step adaptive state/detector protocols, process-matrix corrections,
and the three-step adaptive ancilla-assisted process tomography pipeline.

Every protocol's first step is one function, :func:`_stage1`: it spends its
copies on the oracle's Pauli cube (``oracle.cube``) in one draw and solves
it with :meth:`LrePlan.solve`, the cube's closed-form linear inversion.  A
state or pseudo-state is measured in the cube's ``3^n`` settings; a detector
is probed with its ``6^n`` product eigenstates, whose click table of element
``P_i`` is the cube's Born table of ``P_i``.  Either way the estimate is one
``(K, d, d)`` stack (``K = 1`` for a state); a static protocol keeps it.

Given a list of T generators instead of one, a protocol runs T trials at
once: each draws from its own generator, every array gains a leading trial
axis, and each step is one stacked call, bit for bit the T calls alone.

The adaptive protocols share one core, :func:`_two_step`: step 1 buys an
accurate eigenbasis (one stacked eigensolve of the stage-1 stack), step 2
measures in (or probes with) those eigenbases so the estimated eigenvalues
are plain outcome frequencies.  Frequencies of near-zero-probability
outcomes concentrate at O(1/N) instead of the O(1/sqrt N) floor of generic
estimators, which is what moves the infidelity from O(1/sqrt N) to O(1/N)
on rank-deficient targets.  Each protocol then applies only its own last
step: a state, a pseudo-state or a renormalized POVM from the eigenvalues,
and for AAPT the pull-back through the entangled input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .linalg import (
    DimensionError,
    _eig_product,
    _eigh,
    _kron,
    dagger,
    eig_reconstruct,
    hermitian_part,
    inv_sqrt,
    partial_trace_1,
    project_psd,
)
from .measurement import DetectorOracle, Frequencies, PauliCube, frequencies
from .quantum_objects import (
    BipartitePureState,
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
    """A physical estimate and protocol extras."""

    value: object  # DensityMatrix | Povm | ProcessMatrix
    extras: dict = field(default_factory=dict, repr=False)


# ---------------------------------------------------------------------------
# Linear regression estimation
# ---------------------------------------------------------------------------


class LrePlan:
    """Least-squares solver for the Pauli cube, built once per cube and flag.

    The cube (:class:`~aqtomo.measurement.PauliCube`) is the one static
    battery of the state, pseudo-state and process protocols (detectors are
    probed with its eigenstates, see :func:`qdt_stage1`); any other battery
    raises ``TypeError``.  ``solve`` takes the ``(..., 3^n, 2^n)`` frequency
    table of one draw of it, or of each trial's.  The cube's ``X^T X`` is
    diagonal in the Pauli basis, so the least-squares solution is the cube's
    own linear inversion (:meth:`PauliCube.invert`, two matrix products): no
    design matrix, rank check or pseudo-inverse is built.  Its identity coefficient
    already is the unconstrained least-squares one; with ``constrain_trace``
    the trace is re-pinned to 1.  Setting ``s`` is the only one that measures
    the weight-n Pauli ``sigma_s1 (x) ... (x) sigma_sn``, so a zero-shot
    setting or probe always raises :class:`InformationIncompleteError`.
    Building a plan only stores the cube and the flag, so each protocol
    solve builds its own from its oracle's cube.
    """

    def __init__(self, cube: PauliCube, constrain_trace: bool):
        if not isinstance(cube, PauliCube):
            raise TypeError(f"LrePlan solves a PauliCube, not {type(cube).__name__}")
        self.cube, self.d = cube, cube.dim
        self.constrain_trace = constrain_trace

    def solve(self, freqs: Frequencies) -> np.ndarray:
        """Least-squares Hermitian reconstruction from one row per setting."""
        d = self.d
        if freqs.values.shape[-2:] != (len(self.cube), d):
            raise DimensionError("frequencies do not match the cube's settings")
        if not freqs.mask.all():
            raise InformationIncompleteError(
                "a zero-shot setting or probe leaves a weight-n Pauli unmeasured"
            )
        rho = self.cube.invert(freqs.values)
        if self.constrain_trace:
            shift = (1.0 - rho.trace(0, -2, -1).real) / d
            diag = np.arange(d)
            rho[..., diag, diag] += shift[..., None]
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
    A ``(T, d, d)`` stack gives the value of T trials.
    """
    tr = np.asarray(h).trace(0, -2, -1).real
    if (np.abs(tr - 1.0) > 1e-8).any():
        raise ValueError(f"projection expects unit trace, got {tr}")
    w, v = _eigh(h)
    lam = project_eigenvalues_simplex(w)
    return DensityMatrix._of(_eig_product(lam, v))  # validation symmetrizes it


def project_eigenvalues_simplex(w: np.ndarray) -> np.ndarray:
    """Project each non-increasing eigenvalue vector onto {x >= 0, sum fixed}."""
    size = np.arange(1, w.shape[-1] + 1)
    shift = (np.add.reduce(w, -1, keepdims=True) - w.cumsum(-1)) / size
    # the largest k whose k-th value stays non-negative after the k-th shift
    k = ((w + shift >= 0.0) * size).max(-1, keepdims=True)
    kept = np.take_along_axis(shift, np.maximum(k - 1, 0), -1)
    return np.where(size <= k, w + kept, 0.0)


# ---------------------------------------------------------------------------
# The shared core (static step 1, the adaptive two steps) and state tomography
# ---------------------------------------------------------------------------


def _split_shots(total: int, parts: int) -> np.ndarray:
    out = np.full(parts, total // parts, dtype=np.int64)
    out[-1] += total % parts
    return out


def _stage1(oracle, shots: int, gen, constrain_trace: bool = True) -> np.ndarray:
    """Step 1: ``shots`` copies split over the oracle's cube, drawn at once.

    Returns the ``(K, d, d)`` static estimate: a state's least-squares fit
    (``K = 1``, trace pinned to one if ``constrain_trace``) or a detector's
    :func:`qdt_stage1` element stack; ``(T, K, d, d)`` for T generators.
    """
    freqs = frequencies(oracle.counts(_split_shots(shots, len(oracle.table())), gen))
    if isinstance(oracle, DetectorOracle):
        return qdt_stage1(freqs, oracle.cube)
    return LrePlan(oracle.cube, constrain_trace).solve(freqs)[..., None, :, :]


def _check_alpha(n_total: int, alpha: float) -> int:
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly between 0 and 1")
    n0 = int(math.floor(alpha * n_total))
    if n0 < 1 or n0 >= n_total:
        raise ValueError(f"budget N={n_total} leaves an empty step at alpha={alpha}")
    return n0


def _two_step(oracle, n_total, alpha, rng, constrain_trace: bool = True):
    """The adaptive core: buy an eigenbasis, then count in it.

    Step 1 is :func:`_stage1` with ``floor(alpha * N)`` copies, used only for
    its eigenbases.  Step 2 measures a state's one basis with every remaining
    copy, or probes every column of a detector's ``K`` bases with equal
    shares (``extras``: ``step2_per_probe``, ``unused_shots``).  Returns
    ``(lam, bases, extras)``; ``lam[i, j]`` is the step-2 frequency of
    outcome ``j`` of a state (``K = 1``), or of element ``i`` on probe ``(i, j)``.
    """
    n0 = _check_alpha(n_total, alpha)
    gen = linalg.as_generator(rng)
    stage1 = _stage1(oracle, n0, gen, constrain_trace)
    k, d = stage1.shape[-3:-1]
    detector = isinstance(oracle, DetectorOracle)
    shots, extras = n_total - n0, {}
    if detector:
        shots = extras["step2_per_probe"] = shots // (k * d)
        if shots < 1:
            raise EstimationError("step-2 budget is below one shot per adaptive probe")
        extras["unused_shots"] = n_total - n0 - shots * k * d
    _, bases = _eigh(stage1)
    counts = oracle.basis_counts(bases if detector else bases[..., 0, :, :], shots, gen)
    # probe (i, j) is eigenvector j of element i, in row i * d + j; a state has K = 1
    freqs = frequencies(counts).values.reshape(stage1.shape[:-3] + (k, d, k))
    return freqs.diagonal(0, -3, -1).swapaxes(-1, -2), bases, extras


def adaptive_qst(oracle, n_total: int, alpha: float, rng) -> TomographyEstimate:
    """Two-step adaptive state tomography achieving O(1/N) infidelity.

    Step 1 spends ``floor(alpha * N)`` copies on the Pauli cube and a
    trace-constrained least-squares fit, used only for its eigenbasis (no
    positivity correction is applied).
    Step 2 measures that eigenbasis with the remaining copies and adopts the
    outcome frequencies as eigenvalues, which makes the estimate PSD with
    unit trace by construction.
    """
    lam, u, _ = _two_step(oracle, n_total, alpha, rng)
    return TomographyEstimate(DensityMatrix._of(_eig_product(lam, u)[..., 0, :, :]))


def adaptive_qpst(oracle, n_total: int, alpha: float, rng) -> TomographyEstimate:
    """Adaptive pseudo-state tomography for sub-unit-trace reconstructions.

    Same two steps as :func:`adaptive_qst` but with the trace constraint
    dropped in step 1 and a null outcome absorbing the missing mass in
    step 2, so the estimated eigenvalues sum below one.
    """
    lam, u, _ = _two_step(oracle, n_total, alpha, rng, constrain_trace=False)
    if (lam.sum(axis=-1) <= 0.0).any():
        raise EstimationError("every adaptive-step outcome fell in the null bin")
    sigma_hat = DensityMatrix._of(_eig_product(lam, u)[..., 0, :, :], sub_unit=True)
    return TomographyEstimate(sigma_hat)


def static_qst(oracle, n_total: int, rng) -> TomographyEstimate:
    """Static baseline: full-budget least squares plus physical projection."""
    rho_tilde = _stage1(oracle, n_total, linalg.as_generator(rng))[..., 0, :, :]
    return TomographyEstimate(physical_projection_fast(rho_tilde))


# ---------------------------------------------------------------------------
# Two-step adaptive quantum detector tomography
# ---------------------------------------------------------------------------


def qdt_stage1(freqs: Frequencies, cube: PauliCube) -> np.ndarray:
    """Static detector estimate from the click frequencies of the cube's probes.

    ``freqs`` holds one row per probe state ``Pi_{s,b}`` of ``cube``, in cube
    order (row ``s * 2^n + b``), and one column per element.  Element ``i``'s
    column, read as a ``(3^n, 2^n)`` table, estimates ``Tr(Pi_{s,b} P_i)``,
    which one stacked free-trace :meth:`LrePlan.solve` maps back to each ``P_i``.
    The inverted elements are projected onto the PSD cone as one stack, then
    :func:`_renormalize` restores completeness; the result is the
    ``(K, d, d)`` element stack, Hermitian up to roundoff.  Every probe must
    have shots: a zero-shot probe raises :class:`InformationIncompleteError`.
    Leading axes of ``freqs`` (one per trial) lead the result too.
    """
    d = cube.dim
    if freqs.mask.shape[-1] != len(cube) * d:
        raise DimensionError("one frequency row per cube probe state is required")
    tables = freqs.values.reshape(freqs.mask.shape[:-1] + (len(cube), d, -1))
    stack = Frequencies(np.moveaxis(tables, -1, -3), freqs.mask)
    return _renormalize(project_psd(LrePlan(cube, False).solve(stack)))


def _renormalize(elements: np.ndarray) -> np.ndarray:
    """Symmetric joint correction ``P_i -> S^-1/2 P_i S^-1/2``, ``S = sum_i P_i``.

    Makes the ``(..., K, d, d)`` element stack sum to the identity; a singular
    ``S`` raises ``LinAlgError`` (:func:`inv_sqrt`), which excludes the trial.
    ``S`` is summed in element order, starting from the first.  The result is
    left unsymmetrized for the caller's checked :func:`hermitian_part`.
    """
    corr = inv_sqrt(sum(np.moveaxis(elements, -3, 0)))[..., None, :, :]
    return corr @ elements @ corr


def adaptive_qdt(oracle, n_total: int, alpha: float, rng) -> TomographyEstimate:
    """Two-step adaptive detector tomography with per-element O(1/N) infidelity.

    Step 1 runs :func:`qdt_stage1` on the Pauli cube's probe states; step 2
    takes every element's eigenbasis from one stacked eigensolve, probes
    with each basis column (K * d adaptive probe states for K elements,
    equal budgets, drawn at once) and adopts the observed click frequency of
    its own element as the eigenvalue estimate.  The final correction is
    :func:`_renormalize`'s.  The ``(N - n0) mod (K * d)`` shots that do not
    divide evenly over the probes are left unused (``extras``:
    ``step2_per_probe``, ``unused_shots``).  K and d come from the oracle.
    An element that never clicks on its own probes would be estimated as
    zero, which cannot be scored, so it raises :class:`EstimationError`.
    """
    lam, bases, extras = _two_step(oracle, n_total, alpha, rng)
    if (lam.sum(axis=-1) <= 0.0).any():
        raise EstimationError("an element never clicked on its own adaptive probes")
    elements = _renormalize(eig_reconstruct(lam, bases))
    return TomographyEstimate(Povm._of(elements), extras)


def static_qdt(oracle, n_total: int, rng) -> TomographyEstimate:
    """Static detector baseline: the whole budget goes into stage 1.

    An element whose PSD projection is zero cannot be scored, so, as in
    :func:`adaptive_qdt`, it raises :class:`EstimationError`.
    """
    elements = _stage1(oracle, n_total, linalg.as_generator(rng))
    if (elements.trace(0, -2, -1).real <= 0.0).any():
        raise EstimationError("an element's static estimate is zero")
    return TomographyEstimate(Povm._of(elements))


# ---------------------------------------------------------------------------
# Process-matrix partial-trace corrections (stage 2)
# ---------------------------------------------------------------------------


def qpt_stage2_tp(g: np.ndarray) -> ProcessMatrix:
    """Rescale a d^2 x d^2 PSD matrix so its partial trace equals the identity.

    ``X = (I (x) Q^-1/2) G (I (x) Q^-1/2)`` with ``Q = Tr_1(G)``; invariant
    under positive rescaling of ``G``.  A singular ``Q`` raises ``LinAlgError``
    (:func:`inv_sqrt`), which excludes the trial.  ``G`` must be Hermitian;
    the result's validation checks it.  ``G`` may also be a ``(T, d^2, d^2)`` stack.
    """
    g = np.asarray(g, complex)
    d = linalg._system_dim(g.shape[-1])
    corr = _kron(np.eye(d), inv_sqrt(partial_trace_1(g, d, d)))
    return ProcessMatrix._of(corr @ g @ dagger(corr))


def qpt_stage2_ntp(g: np.ndarray) -> ProcessMatrix:
    """Partial-trace correction of a d^2 x d^2 PSD matrix for non-TP processes.

    A direction of ``Q = Tr_1(G)`` with eigenvalue ``w > 1`` is scaled by
    ``1 / sqrt(w)`` and every other one is kept, so ``X >= 0`` and
    ``Tr_1(X) <= I``.  That is the paper's ``sqrt(min(f, 1)) / sqrt(f)`` bit
    for bit; its floor ``f = f_c / N`` on the zero eigenvalues of ``Q`` is
    left out, since it also scales by exactly 1 unless ``f_c > N``.  A
    built-in target's probe (smallest Schmidt coefficient ``h``) gives
    ``f_c <= Tr G <= 1 / h^2 <= 8.2``, and its step 1 needs ``N >= 9``.
    ``G`` may also be a ``(T, d^2, d^2)`` stack.
    """
    g = np.asarray(g, complex)
    d = linalg._system_dim(g.shape[-1])
    w, vecs = _eigh(partial_trace_1(g, d, d))
    corr = _kron(np.eye(d), eig_reconstruct(1.0 / np.sqrt(np.maximum(w, 1.0)), vecs))
    return ProcessMatrix._of(corr @ g @ dagger(corr))


# ---------------------------------------------------------------------------
# Ancilla-assisted process tomography
# ---------------------------------------------------------------------------


def aapt_reconstruct(
    sigma_out_hat: DensityMatrix, input_state: BipartitePureState
) -> np.ndarray:
    """Invert the fixed entangled input to get a raw process matrix.

    For input Schmidt data (h, U, V), conjugating the reconstructed output
    state by ``I (x) U* H^-1 V^dag`` undoes the probe exactly, so feeding the
    true output state returns the true process matrix.  That operator is the
    input's cached ``probe_inverse`` (adjoint cached too), which requires
    every Schmidt coefficient to be strictly positive (a full-Schmidt input).
    """
    d = input_state.dim_a
    if input_state.dim_b != d:
        raise DimensionError("ancilla and principal dimensions must match")
    if sigma_out_hat.dim != d * d:
        raise DimensionError("output-state dimension must be d^2")
    corr, adjoint = input_state.probe_inverse, input_state.probe_inverse_adjoint
    return hermitian_part(corr @ sigma_out_hat.mat @ adjoint, check=False)


def adaptive_aapt(
    oracle,
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
    sigma_hat = state_protocol(oracle, n_total, alpha, rng).value
    return _process_estimate(sigma_hat, input_state, tp_flag)


def nonadaptive_aapt(
    oracle,
    n_total: int,
    tp_flag: bool,
    input_state: BipartitePureState,
    rng,
    known_trace: float | None = None,
) -> TomographyEstimate:
    """Static ancilla-assisted baseline (O(1/sqrt N) on rank-deficient targets).

    Spends the whole budget on the Pauli cube.  A trace-preserving process's
    output is :func:`static_qst`'s estimate (``known_trace`` unread); otherwise
    the negative eigenvalues of a free-trace fit are truncated and the
    remainder rescaled to the a-priori known output trace.
    """
    gen = linalg.as_generator(rng)
    if tp_flag:
        sigma_hat = static_qst(oracle, n_total, gen).value
    else:
        if known_trace is None:
            raise ValueError("non-trace-preserving baseline needs known_trace")
        sigma_tilde = _stage1(oracle, n_total, gen, constrain_trace=False)
        w, v = _eigh(sigma_tilde[..., 0, :, :])
        keep = w >= 0.0
        rows = w.reshape(-1, w.shape[-1])  # each trial's own kept sum, as alone
        kept_sum = np.reshape([r[r >= 0.0].sum() for r in rows], w.shape[:-1] + (1,))
        if (kept_sum <= 0.0).any():
            raise EstimationError("no positive eigenvalue mass to rescale")
        lam = np.where(keep, w, 0.0) * (known_trace / kept_sum)
        sigma_hat = DensityMatrix._of(_eig_product(lam, v), sub_unit=True)
    return _process_estimate(sigma_hat, input_state, tp_flag)


def _process_estimate(sigma_hat, input_state, tp_flag):
    """Last AAPT step: invert the input probe, then correct the partial trace."""
    x0 = aapt_reconstruct(sigma_hat, input_state)
    x_hat = qpt_stage2_tp(x0) if tp_flag else qpt_stage2_ntp(x0)
    return TomographyEstimate(x_hat, {"sigma_out": sigma_hat})
