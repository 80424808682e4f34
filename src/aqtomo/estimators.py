"""Reconstruction algorithms: least-squares tomography, physical projection,
the two-step adaptive state/detector protocols, process-matrix corrections,
and the three-step adaptive ancilla-assisted process tomography pipeline.

The adaptive protocols share one idea: a first pass buys an accurate
eigenbasis, a second pass measures in (or probes with) that eigenbasis so the
estimated eigenvalues are plain outcome frequencies.  Frequencies of
near-zero-probability outcomes concentrate at O(1/N) instead of the O(1/sqrt N)
floor of generic estimators, which is what moves the infidelity from
O(1/sqrt N) to O(1/N) on rank-deficient targets.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import linalg
from .linalg import (
    DimensionError,
    dagger,
    eig_reconstruct,
    hermitian_eig,
    hermitian_part,
    inv_sqrt,
    kron,
    partial_trace_1,
    project_psd,
)
from .measurement import (
    Frequencies,
    cube_povm,
    eigenbasis_projectors,
    frequencies,
    pure_probe_states,
    random_unit_vectors,
    unit_rows,
)
from .quantum_objects import (
    BipartitePureState,
    DegenerateInputError,
    DensityMatrix,
    Povm,
    ProcessMatrix,
)

log = logging.getLogger(__name__)

INV_SQRT_CLAMP_PER_DIM = 1e-12


class EstimationError(RuntimeError):
    """A reconstruction could not be completed from the given data."""


class InformationIncompleteError(EstimationError):
    """The measurement design does not have full column rank."""


@dataclass(frozen=True)
class TomographyEstimate:
    """A physical estimate plus the raw pre-correction data behind it."""

    value: object  # DensityMatrix | Povm | ProcessMatrix
    raw: object
    shots_used: int
    method_tag: str
    extras: dict = field(default_factory=dict, repr=False)


# ---------------------------------------------------------------------------
# Hermitian operator basis and measurement design matrices
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _gell_mann_stack(d: int) -> np.ndarray:
    """I/sqrt(d) followed by the d^2 - 1 generalized Gell-Mann matrices.

    Orthonormal under the Hilbert-Schmidt inner product, all Hermitian, with
    the identity direction isolated in slot 0 so a trace constraint pins a
    single coefficient.
    """
    ops = [np.eye(d, dtype=complex) / np.sqrt(d)]
    for l in range(1, d):
        diag = np.zeros(d)
        diag[:l] = 1.0
        diag[l] = -l
        ops.append(np.diag(diag).astype(complex) / np.sqrt(l * (l + 1)))
    for j in range(d):
        for k in range(j + 1, d):
            sym = np.zeros((d, d), dtype=complex)
            sym[j, k] = sym[k, j] = 1.0 / np.sqrt(2.0)
            ops.append(sym)
            asym = np.zeros((d, d), dtype=complex)
            asym[j, k] = -1j / np.sqrt(2.0)
            asym[k, j] = 1j / np.sqrt(2.0)
            ops.append(asym)
    return np.stack(ops)


@dataclass(frozen=True)
class HermitianBasis:
    """Orthonormal Hermitian basis with operators[0] = I/sqrt(d)."""

    d: int
    operators: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "operators", _gell_mann_stack(self.d))

    @property
    def size(self) -> int:
        return self.d * self.d

    def expand(self, m: np.ndarray) -> np.ndarray:
        """Real coefficient vector of a Hermitian matrix in this basis."""
        return np.einsum("kij,ji->k", self.operators, np.asarray(m, complex)).real

    def assemble(self, coeffs: np.ndarray) -> np.ndarray:
        """Hermitian matrix from a real coefficient vector."""
        return hermitian_part(
            np.einsum("k,kij->ij", np.asarray(coeffs, float), self.operators),
            check=False,
        )


@dataclass(frozen=True)
class DesignMatrix:
    """Real parameterization matrix with one row per measured operator."""

    matrix: np.ndarray

    @property
    def rank(self) -> int:
        return int(np.linalg.matrix_rank(self.matrix))

    def require_rank(self, needed: int):
        if self.rank < needed:
            raise InformationIncompleteError(
                f"design matrix rank {self.rank} < {needed}; "
                "measurements are not informationally complete"
            )


def operator_design(operators, basis: HermitianBasis) -> DesignMatrix:
    """Rows Tr(O_r B_k) for measurement operators or probe states O_r."""
    ops = np.asarray(operators, dtype=complex)
    mat = np.einsum("aij,bji->ab", ops, basis.operators).real
    return DesignMatrix(mat)


def povm_design(povms, basis: HermitianBasis) -> DesignMatrix:
    """Design matrix of a battery of POVMs, rows ordered setting-major."""
    elems = [e for p in povms for e in p.elements]
    return operator_design(elems, basis)


# ---------------------------------------------------------------------------
# Linear regression estimation
# ---------------------------------------------------------------------------


class LrePlan:
    """Factorized least-squares solver for a fixed POVM battery.

    Building the pseudo-inverse once and reusing it across repeated trials is
    what keeps the Monte-Carlo harness cheap; ``solve`` is then a matvec.
    Its input is one ``(S, K)`` frequency table per battery draw, so every
    setting must have the same number of outcomes.
    """

    def __init__(self, povms, basis: HermitianBasis, constrain_trace: bool):
        self.povms = tuple(povms)
        self.basis = basis
        self.constrain_trace = constrain_trace
        if len({len(p) for p in self.povms}) != 1:
            raise DimensionError("battery settings must share one outcome count")
        design = povm_design(self.povms, basis)
        needed = basis.size - 1 if constrain_trace else basis.size
        design.require_rank(needed)
        self.design = design.matrix
        if constrain_trace:
            self._pinv = np.linalg.pinv(self.design[:, 1:])
            self._col0 = self.design[:, 0]
        else:
            self._pinv = np.linalg.pinv(self.design)

    def solve(self, freqs, trace_value: float = 1.0) -> np.ndarray:
        """Least-squares Hermitian reconstruction from one row per setting.

        ``freqs`` is the :class:`Frequencies` of one battery draw, or one
        record per setting.  Settings with zero shots contribute no rows; if
        dropping them breaks informational completeness an error is raised
        rather than regularizing.
        """
        if not isinstance(freqs, Frequencies):
            if len(freqs) != len(self.povms):
                raise DimensionError("one record per POVM setting is required")
            freqs = Frequencies.from_records(freqs)
        if freqs.values.shape != (len(self.povms), len(self.povms[0])):
            raise DimensionError("frequencies do not match the battery's settings")
        y = freqs.values.ravel()
        mask = np.repeat(freqs.mask, freqs.values.shape[1])
        full = bool(mask.all())
        if self.constrain_trace:
            phi0 = trace_value / np.sqrt(self.basis.d)
            resid = y - self._col0 * phi0
            if full:
                coeffs = self._pinv @ resid
            else:
                coeffs = _masked_lstsq(self.design[:, 1:], resid, mask)
            phi = np.concatenate(([phi0], coeffs))
        else:
            if full:
                phi = self._pinv @ y
            else:
                phi = _masked_lstsq(self.design, y, mask)
        return self.basis.assemble(phi)


def _masked_lstsq(design: np.ndarray, y: np.ndarray, mask: np.ndarray) -> np.ndarray:
    sub = design[mask]
    if np.linalg.matrix_rank(sub) < design.shape[1]:
        raise InformationIncompleteError(
            "zero-shot settings left the design matrix rank deficient"
        )
    return np.linalg.lstsq(sub, y[mask], rcond=None)[0]


def lre_estimate(
    records,
    povms,
    basis: HermitianBasis | None = None,
    constrain_trace: bool = True,
    trace_value: float = 1.0,
    plan: LrePlan | None = None,
) -> np.ndarray:
    """Least-squares tomographic inversion of Born-rule frequencies.

    Returns the Hermitian (not necessarily PSD) matrix whose basis
    coefficients solve ``min ||Y - X phi||``; with ``constrain_trace`` the
    identity coefficient is pinned so the trace equals ``trace_value``
    exactly.
    """
    if plan is None:
        d = povms[0].dim
        plan = LrePlan(povms, basis or HermitianBasis(d), constrain_trace)
    return plan.solve(records, trace_value)


def lre_mse_bound(povms, basis: HermitianBasis, n_total: int) -> float:
    """Conservative mean-squared-error bound (J / 4N) Tr[(X^T X)^-1].

    J is the number of POVM settings; uses the trace-constrained design since
    the identity coefficient carries no statistical error.
    """
    design = povm_design(povms, basis).matrix[:, 1:]
    gram_inv = np.linalg.inv(design.T @ design)
    return len(povms) / (4.0 * n_total) * float(np.trace(gram_inv))


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


def eigenbasis_povm(u: np.ndarray, name: str = "eigenbasis") -> Povm:
    """Rank-1 projective POVM onto the columns of a unitary."""
    return Povm(tuple(eigenbasis_projectors(u)), name=name)


def _split_shots(total: int, parts: int) -> list:
    base = total // parts
    out = [base] * parts
    out[-1] += total - base * parts
    return out


def _default_battery(dim: int):
    n_qubits = int(round(math.log2(dim)))
    if 2**n_qubits != dim:
        raise DimensionError(
            f"no built-in measurement battery for dimension {dim}; pass povms="
        )
    return cube_povm(n_qubits)


def _battery_frequencies(sampler, plan: LrePlan, shots: int, gen) -> Frequencies:
    """Split ``shots`` over the plan's settings and draw them all at once."""
    split = _split_shots(shots, len(plan.povms))
    return frequencies(sampler.counts(plan.povms, split, gen))


def _eigenbasis_frequencies(sampler, u: np.ndarray, shots: int, gen) -> np.ndarray:
    """Outcome frequencies of ``shots`` measurements in the columns of ``u``."""
    counts = sampler.counts([eigenbasis_projectors(u)], [shots], gen)
    return frequencies(counts).values[0]


def _check_alpha(n_total: int, alpha: float) -> int:
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly between 0 and 1")
    n0 = int(math.floor(alpha * n_total))
    if n0 < 1 or n0 >= n_total:
        raise ValueError(f"budget N={n_total} leaves an empty step at alpha={alpha}")
    return n0


def adaptive_qst(
    sampler,
    d: int,
    n_total: int,
    alpha: float,
    rng,
    povms=None,
    basis: HermitianBasis | None = None,
    plan: LrePlan | None = None,
) -> TomographyEstimate:
    """Two-step adaptive state tomography achieving O(1/N) infidelity.

    Step 1 spends ``floor(alpha * N)`` copies on a static battery and a
    trace-constrained least-squares fit, used only for its eigenbasis (no
    positivity correction is applied).  Step 2 measures that eigenbasis with
    the remaining copies and adopts the outcome frequencies as eigenvalues,
    which makes the estimate PSD with unit trace by construction.
    """
    n0 = _check_alpha(n_total, alpha)
    gen = linalg.as_generator(rng)
    if povms is None:
        povms = _default_battery(d)
    if plan is None:
        plan = LrePlan(povms, basis or HermitianBasis(d), constrain_trace=True)
    rho_tilde = plan.solve(_battery_frequencies(sampler, plan, n0, gen))
    u = hermitian_eig(rho_tilde).eigenvectors
    lam = _eigenbasis_frequencies(sampler, u, n_total - n0, gen)
    rho_hat = DensityMatrix(eig_reconstruct(lam, u))
    return TomographyEstimate(
        value=rho_hat,
        raw=rho_tilde,
        shots_used=n_total,
        method_tag="adaptive_qst",
        extras={"step1_shots": n0},
    )


def adaptive_qpst(
    sampler,
    dim: int,
    n_total: int,
    alpha: float,
    rng,
    povms=None,
    basis: HermitianBasis | None = None,
    plan: LrePlan | None = None,
) -> TomographyEstimate:
    """Adaptive pseudo-state tomography for sub-unit-trace reconstructions.

    Same two steps as :func:`adaptive_qst` but with the trace constraint
    dropped in step 1 and a null outcome absorbing the missing mass in
    step 2, so the estimated eigenvalues sum below one.
    """
    n0 = _check_alpha(n_total, alpha)
    gen = linalg.as_generator(rng)
    if povms is None:
        povms = _default_battery(dim)
    if plan is None:
        plan = LrePlan(povms, basis or HermitianBasis(dim), constrain_trace=False)
    sigma_tilde = plan.solve(_battery_frequencies(sampler, plan, n0, gen))
    u = hermitian_eig(sigma_tilde).eigenvectors
    lam = _eigenbasis_frequencies(sampler, u, n_total - n0, gen)
    if lam.sum() <= 0.0:
        raise EstimationError("every adaptive-step outcome fell in the null bin")
    sigma_hat = DensityMatrix(eig_reconstruct(lam, u), sub_unit=True)
    return TomographyEstimate(
        value=sigma_hat,
        raw=sigma_tilde,
        shots_used=n_total,
        method_tag="adaptive_qpst",
        extras={"step1_shots": n0},
    )


def static_qst(
    sampler,
    d: int,
    n_total: int,
    rng,
    povms=None,
    basis: HermitianBasis | None = None,
    plan: LrePlan | None = None,
) -> TomographyEstimate:
    """Static baseline: full-budget least squares plus physical projection."""
    gen = linalg.as_generator(rng)
    if povms is None:
        povms = _default_battery(d)
    if plan is None:
        plan = LrePlan(povms, basis or HermitianBasis(d), constrain_trace=True)
    rho_tilde = plan.solve(_battery_frequencies(sampler, plan, n_total, gen))
    rho_hat = physical_projection_fast(rho_tilde)
    return TomographyEstimate(
        value=rho_hat, raw=rho_tilde, shots_used=n_total, method_tag="static_qst"
    )


# ---------------------------------------------------------------------------
# Two-step adaptive quantum detector tomography
# ---------------------------------------------------------------------------


def qdt_stage1(freqs, probes, basis: HermitianBasis | None = None) -> list:
    """Static detector estimate from probe-state frequencies.

    ``freqs`` is the :class:`Frequencies` of one draw per probe (or one
    record per probe); ``probes`` the probe density matrices as an
    ``(m, d, d)`` stack (or DensityMatrix objects).  Per-element least
    squares, per-element PSD projection, then a symmetric joint
    renormalization ``P_i -> S^-1/2 P_i S^-1/2`` with ``S`` the sum of the
    projected elements, restoring completeness exactly.
    """
    if not isinstance(freqs, Frequencies):
        freqs = Frequencies.from_records(freqs)
    if not isinstance(probes, np.ndarray):
        probes = np.stack([p.mat for p in probes])
    if len(freqs.mask) != len(probes):
        raise DimensionError("one record per probe state is required")
    d = probes.shape[-1]
    basis = basis or HermitianBasis(d)
    design = operator_design(probes, basis).matrix[freqs.mask]
    if np.linalg.matrix_rank(design) < basis.size:
        raise InformationIncompleteError(
            "probe battery is not informationally complete"
        )
    values = freqs.values[freqs.mask]
    thetas = np.linalg.pinv(design) @ values  # (d^2, n_elements)
    projected = [
        project_psd(basis.assemble(thetas[:, i])) for i in range(values.shape[1])
    ]
    total = sum(projected)
    corr = inv_sqrt(total, clamp=INV_SQRT_CLAMP_PER_DIM * d)
    return [hermitian_part(corr @ p @ corr, check=False) for p in projected]


def adaptive_qdt(
    detector_sampler,
    n_elements: int,
    d: int,
    n_total: int,
    alpha: float,
    rng,
    probes=None,
    n_probes: int | None = None,
    basis: HermitianBasis | None = None,
) -> TomographyEstimate:
    """Two-step adaptive detector tomography with per-element O(1/N) infidelity.

    Step 1 runs :func:`qdt_stage1` on random pure probes (``probes``, if
    given, holds their state vectors as ``(m, d)`` unit rows); step 2 probes
    each estimated eigenvector (n * d adaptive probe states, equal budgets,
    drawn at once) and adopts the observed click frequency of its own element
    as the eigenvalue estimate.  A final symmetric correction by the inverse
    square root of the element sum restores completeness; clamping of that
    inverse is logged, never fatal.  The ``(N - n0) mod (n * d)`` shots that
    do not divide evenly over the adaptive probes are left unused.
    """
    n0 = _check_alpha(n_total, alpha)
    basis = basis or HermitianBasis(d)
    gen = linalg.as_generator(rng)
    states = _probe_states(probes, n_probes, d, basis, gen)
    freqs = _probe_frequencies(detector_sampler, states, n0, n_elements, gen)
    stage1 = qdt_stage1(freqs, states, basis)

    per_probe = (n_total - n0) // (n_elements * d)
    if per_probe < 1:
        raise EstimationError("step-2 budget is below one shot per adaptive probe")
    bases = [hermitian_eig(p_bar).eigenvectors for p_bar in stage1]
    # probe (i, j) is eigenvector j of element i, in row i * d + j
    adaptive = pure_probe_states(unit_rows(np.concatenate([u.T for u in bases])))
    counts = detector_sampler.counts(adaptive, np.full(len(adaptive), per_probe), gen)
    lam = frequencies(counts).values
    corrected = [
        eig_reconstruct(lam[i * d : (i + 1) * d, i], u) for i, u in enumerate(bases)
    ]

    total = sum(corrected)
    clamp = INV_SQRT_CLAMP_PER_DIM * d
    if np.linalg.eigvalsh(total)[0] < clamp:
        log.warning("adaptive QDT element sum nearly singular; clamped inverse used")
    corr = inv_sqrt(total, clamp=clamp)
    elements = tuple(hermitian_part(corr @ p @ corr, check=False) for p in corrected)
    used = n0 + per_probe * len(adaptive)
    return TomographyEstimate(
        value=Povm(elements, name="adaptive-qdt"),
        raw=stage1,
        shots_used=used,
        method_tag="adaptive_qdt",
        extras={
            "probes": len(states),
            "step2_per_probe": per_probe,
            "unused_shots": n_total - used,
        },
    )


def static_qdt(
    detector_sampler,
    n_elements: int,
    d: int,
    n_total: int,
    rng,
    probes=None,
    n_probes: int | None = None,
    basis: HermitianBasis | None = None,
) -> TomographyEstimate:
    """Static detector baseline: the whole budget goes into stage 1.

    ``probes``, if given, holds the pure probes' state vectors as ``(m, d)``
    unit rows.
    """
    basis = basis or HermitianBasis(d)
    gen = linalg.as_generator(rng)
    states = _probe_states(probes, n_probes, d, basis, gen)
    freqs = _probe_frequencies(detector_sampler, states, n_total, n_elements, gen)
    elements = qdt_stage1(freqs, states, basis)
    return TomographyEstimate(
        value=Povm(tuple(elements), name="static-qdt"),
        raw=list(elements),
        shots_used=n_total,
        method_tag="static_qdt",
        extras={"probes": len(states)},
    )


def _probe_states(probes, n_probes, d, basis, gen, max_tries: int = 20) -> np.ndarray:
    """Stage-1 probe density matrices ``(m, d, d)``.

    Given unit vectors are used as they are; otherwise random pure probes are
    drawn until the battery is informationally complete.
    """
    if probes is not None:
        return pure_probe_states(probes)
    count = n_probes or max(24, d * d)
    for _ in range(max_tries):
        states = pure_probe_states(random_unit_vectors(count, d, gen))
        if operator_design(states, basis).rank == basis.size:
            return states
    raise InformationIncompleteError(
        f"could not draw {count} informationally complete probes in {max_tries} tries"
    )


def _probe_frequencies(detector_sampler, states, shots: int, n_elements: int, gen):
    """Split ``shots`` over the probe states and draw them all at once."""
    counts = detector_sampler.counts(states, _split_shots(shots, len(states)), gen)
    if counts.shape[1] - 1 != n_elements:
        raise DimensionError("detector record has the wrong outcome count")
    return frequencies(counts)


# ---------------------------------------------------------------------------
# Process-matrix partial-trace corrections (stage 2)
# ---------------------------------------------------------------------------


def qpt_stage2_tp(g: np.ndarray, dim: int, clamp: float | None = None) -> ProcessMatrix:
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
    clamp = INV_SQRT_CLAMP_PER_DIM * dim if clamp is None else clamp
    if np.linalg.eigvalsh(hermitian_part(q, check=False))[0] < clamp:
        log.warning("stage-2 partial trace nearly singular; clamped inverse used")
    corr = kron(np.eye(dim), inv_sqrt(q, clamp=clamp))
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
    tol = INV_SQRT_CLAMP_PER_DIM * dim
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
    povms=None,
    basis: HermitianBasis | None = None,
    plan: LrePlan | None = None,
) -> TomographyEstimate:
    """Three-step adaptive ancilla-assisted process tomography.

    Steps 1-2 run the two-step adaptive state protocol on the joint output
    (its pseudo-state variant when the process is not trace-preserving);
    the result is pulled back through the known entangled input and the
    partial trace is corrected, preserving both the O(1/N) entirety error and
    the O(1/N) decay of the estimated zero eigenvalues.
    """
    dim = d * d
    if tp_flag:
        state_est = adaptive_qst(
            channel_sampler, dim, n_total, alpha, rng, povms=povms, basis=basis, plan=plan
        )
    else:
        state_est = adaptive_qpst(
            channel_sampler, dim, n_total, alpha, rng, povms=povms, basis=basis, plan=plan
        )
    sigma_hat = state_est.value
    x0 = aapt_reconstruct(sigma_hat, input_state)
    x_hat = qpt_stage2_tp(x0, d) if tp_flag else qpt_stage2_ntp(x0, d, n_total)
    return TomographyEstimate(
        value=x_hat,
        raw=x0,
        shots_used=n_total,
        method_tag="adaptive_aapt",
        extras={"sigma_out": sigma_hat, "state_estimate": state_est},
    )


def nonadaptive_aapt(
    channel_sampler,
    d: int,
    n_total: int,
    tp_flag: bool,
    input_state: BipartitePureState,
    rng,
    known_trace: float | None = None,
    povms=None,
    basis: HermitianBasis | None = None,
    plan: LrePlan | None = None,
) -> TomographyEstimate:
    """Static ancilla-assisted baseline (O(1/sqrt N) on rank-deficient targets).

    Spends the whole budget on the static battery.  Trace-preserving
    processes go through the physical projection; otherwise the negative
    eigenvalues are truncated and the remainder rescaled to the a-priori
    known output trace.
    """
    dim = d * d
    gen = linalg.as_generator(rng)
    if povms is None:
        povms = _default_battery(dim)
    if plan is None:
        plan = LrePlan(povms, basis or HermitianBasis(dim), constrain_trace=tp_flag)
    freqs = _battery_frequencies(channel_sampler, plan, n_total, gen)
    if tp_flag:
        sigma_tilde = plan.solve(freqs)
        sigma_hat = physical_projection_fast(sigma_tilde)
    else:
        if known_trace is None:
            raise ValueError("non-trace-preserving baseline needs known_trace")
        sigma_tilde = plan.solve(freqs)
        w, v = hermitian_eig(sigma_tilde)
        keep = w >= 0.0
        kept_sum = float(w[keep].sum())
        if kept_sum <= 0.0:
            raise EstimationError("no positive eigenvalue mass to rescale")
        lam = np.where(keep, w, 0.0) * (known_trace / kept_sum)
        sigma_hat = DensityMatrix(eig_reconstruct(lam, v), sub_unit=True)
    x0 = aapt_reconstruct(sigma_hat, input_state)
    x_hat = qpt_stage2_tp(x0, d) if tp_flag else qpt_stage2_ntp(x0, d, n_total)
    return TomographyEstimate(
        value=x_hat,
        raw=x0,
        shots_used=n_total,
        method_tag="nonadaptive_aapt",
        extras={"sigma_out": sigma_hat},
    )
