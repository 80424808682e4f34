"""Monte-Carlo scaling harness.

For each shot count in the grid the harness runs independent seeded trials,
scores each reconstruction (infidelity, classic trace-normalized infidelity,
mean squared error, and the eigenvalue mass beyond the true rank), and fits
a log-log slope through the per-N mean infidelities.  Trial randomness is
keyed by (seed, grid index, trial index), so results are identical for any
worker count and any execution order.
"""

from __future__ import annotations

import logging
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from ..linalg import partial_trace_1
from ..estimators import (
    EstimationError,
    HermitianBasis,
    LrePlan,
    adaptive_aapt,
    adaptive_qdt,
    adaptive_qst,
    nonadaptive_aapt,
    static_qdt,
    static_qst,
)
from ..fidelity import (
    detector_scenario,
    fidelity,
    fidelity_dp,
    process_scenario,
    pseudo_state_fidelity,
    state_scenario,
)
from ..measurement import SeededRng, cube_povm, detector_sampler, state_sampler
from .config import TRIAL_STREAM_BITS, ExperimentConfig
from .targets import AaptTarget, QdtTarget, QstTarget, expected_task, resolve_target

try:
    from importlib.metadata import version as _pkg_version

    VERSION = _pkg_version("aqtomo")
except Exception:  # pragma: no cover - not installed
    VERSION = "0.1.0"

log = logging.getLogger(__name__)

MAX_EXCLUDED_FRACTION = 0.10
SLOPE_FLOOR = 1e-12


def gm_bound(d: int, n: int) -> float:
    """Gill-Massar lower bound (d+1)^2 (d-1) / (4N) on mean state infidelity."""
    if d < 2 or n < 1:
        raise ValueError("gm_bound needs d >= 2 and N >= 1")
    return (d + 1) ** 2 * (d - 1) / (4.0 * n)


def fit_loglog_slope(rows) -> tuple[float, float, float]:
    """Least-squares slope of log10(mean infidelity) against log10(N).

    ``rows`` is an iterable of (N, mean_infidelity) pairs; entries at or
    below 1e-12 are dropped, and at least three usable points are required.
    Returns (slope, intercept, r_squared).
    """
    pts = [(n, y) for n, y in rows if y > SLOPE_FLOOR]
    if len(pts) < 3:
        raise ValueError("need at least 3 rows above 1e-12 to fit a slope")
    x = np.log10([n for n, _ in pts])
    y = np.log10([v for _, v in pts])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    total = y - y.mean()
    denom = float(total @ total)
    r2 = 1.0 if denom == 0.0 else 1.0 - float(resid @ resid) / denom
    return float(slope), float(intercept), float(r2)


@dataclass(frozen=True)
class ScalingRow:
    n: int
    mean_infidelity: float
    std_infidelity: float
    mean_infidelity_dp: float
    mean_mse: float
    mean_tail_eigensum: float
    gm_bound: float | None
    excluded_trials: int


@dataclass
class ScalingResult:
    """Aggregated scaling run: one row per grid point plus the fitted slope.

    ``sigma_out_*`` carry the joint-output-state infidelity series for aapt
    runs; ``element_infidelities`` carries the per-element means (rows by
    grid point, columns by POVM element) for qdt runs.
    """

    config: ExperimentConfig
    rows: list
    slope: float
    intercept: float
    r2: float
    version: str = VERSION
    sigma_out_mean: list | None = None
    sigma_out_std: list | None = None
    element_infidelities: list | None = None
    extras: dict = field(default_factory=dict)

    @property
    def seed(self) -> int:
        return self.config.seed

    def sigma_out_slope(self) -> float:
        if self.sigma_out_mean is None:
            raise ValueError("this run has no output-state series")
        return fit_loglog_slope(
            zip((r.n for r in self.rows), self.sigma_out_mean)
        )[0]

    def element_slopes(self) -> list:
        if self.element_infidelities is None:
            raise ValueError("this run has no per-element series")
        per_element = np.asarray(self.element_infidelities).T
        ns = [r.n for r in self.rows]
        return [fit_loglog_slope(zip(ns, col))[0] for col in per_element]


class TrialMetrics(NamedTuple):
    infidelity: float
    infidelity_dp: float
    mse: float
    tail_eigensum: float
    sigma_out_infidelity: float
    element_infidelities: tuple | None
    constraint_dev: float


def _trial_stream(n_index: int, trial: int) -> int:
    return ((n_index + 1) << TRIAL_STREAM_BITS) + trial


def _sorted_eigenvalues(mat: np.ndarray) -> np.ndarray:
    return np.linalg.eigvalsh(mat)[::-1]


@dataclass
class _TaskContext:
    """Per-config state built once and shared by every trial.

    ``oracle`` hides the target; for state and process targets it is built
    with the plan's battery, so the battery's Born table is computed here.
    """

    target: object
    oracle: object
    tp_flag: bool = True
    povms: tuple | None = None
    plan: LrePlan | None = None
    basis: HermitianBasis | None = None


@lru_cache(maxsize=16)
def _context(config: ExperimentConfig) -> _TaskContext:
    target = resolve_target(config.target, config.seed)
    task = expected_task(target)
    if task != config.task:
        raise ValueError(
            f"target {config.target!r} belongs to task {task}, not {config.task}"
        )
    if isinstance(target, QstTarget):
        d = target.dim
        povms = cube_povm(int(round(math.log2(d))))
        plan = LrePlan(povms, HermitianBasis(d), constrain_trace=True)
        oracle = state_sampler(target.rho, battery=plan.povms)
        return _TaskContext(
            target, oracle, povms=povms, plan=plan, basis=HermitianBasis(d)
        )
    if isinstance(target, QdtTarget):
        return _TaskContext(
            target, detector_sampler(target.povm), basis=HermitianBasis(target.dim)
        )
    assert isinstance(target, AaptTarget)
    tp = target.tp if config.tp_flag is None else config.tp_flag
    if config.tp_flag is not None and config.tp_flag != target.tp:
        raise ValueError(
            f"tp_flag={config.tp_flag} contradicts the channel of {config.target!r}"
        )
    dim = target.dim**2
    povms = cube_povm(int(round(math.log2(dim))))
    plan = LrePlan(povms, HermitianBasis(dim), constrain_trace=tp)
    oracle = state_sampler(target.sigma_out, battery=plan.povms)
    return _TaskContext(
        target, oracle, tp_flag=tp, povms=povms, plan=plan, basis=HermitianBasis(dim)
    )


def _qst_trial(ctx: _TaskContext, config, n, gen) -> TrialMetrics:
    target: QstTarget = ctx.target
    sampler = ctx.oracle
    if config.method == "adaptive":
        est = adaptive_qst(
            sampler, target.dim, n, config.alpha, gen, povms=ctx.povms, plan=ctx.plan
        )
    else:
        est = static_qst(sampler, target.dim, n, gen, povms=ctx.povms, plan=ctx.plan)
    rho_hat = est.value.mat
    rho = target.rho.mat
    infid = 1.0 - fidelity(rho_hat, rho, state_scenario())
    infid_dp = 1.0 - fidelity_dp(rho_hat, rho)
    mse = float(np.linalg.norm(rho_hat - rho) ** 2)
    eigs = _sorted_eigenvalues(rho_hat)
    tail = float(np.sum(eigs[target.rank :]))
    dev = max(abs(float(np.trace(rho_hat).real) - 1.0), max(0.0, -float(eigs[-1])))
    return TrialMetrics(infid, infid_dp, mse, tail, math.nan, None, dev)


def _qdt_trial(ctx: _TaskContext, config, n, gen) -> TrialMetrics:
    target: QdtTarget = ctx.target
    sampler = ctx.oracle
    n_el, d = len(target.povm), target.dim
    if config.method == "adaptive":
        est = adaptive_qdt(sampler, n_el, d, n, config.alpha, gen, basis=ctx.basis)
    else:
        est = static_qdt(sampler, n_el, d, n, gen, basis=ctx.basis)
    scen = detector_scenario(d)
    per_el, per_el_dp, mse, tail, dev = [], [], 0.0, 0.0, 0.0
    for p_hat, p_true, rank in zip(
        est.value.elements, target.povm.elements, target.element_ranks
    ):
        per_el.append(1.0 - fidelity(p_hat, p_true, scen))
        per_el_dp.append(1.0 - fidelity_dp(p_hat, p_true))
        mse += float(np.linalg.norm(p_hat - p_true) ** 2)
        eigs = _sorted_eigenvalues(p_hat)
        tail += float(np.sum(eigs[rank:]))
        dev = max(dev, max(0.0, -float(eigs[-1])))
    total = sum(est.value.elements)
    dev = max(dev, float(np.max(np.abs(total - np.eye(d)))))
    return TrialMetrics(
        float(np.mean(per_el)),
        float(np.mean(per_el_dp)),
        mse,
        tail,
        math.nan,
        tuple(per_el),
        dev,
    )


def _aapt_trial(ctx: _TaskContext, config, n, gen) -> TrialMetrics:
    target: AaptTarget = ctx.target
    sampler = ctx.oracle
    sigma_out = sampler.rho
    if config.method == "adaptive":
        est = adaptive_aapt(
            sampler,
            target.dim,
            n,
            config.alpha,
            ctx.tp_flag,
            target.input_state,
            gen,
            povms=ctx.povms,
            plan=ctx.plan,
        )
    else:
        est = nonadaptive_aapt(
            sampler,
            target.dim,
            n,
            ctx.tp_flag,
            target.input_state,
            gen,
            known_trace=None if ctx.tp_flag else target.known_trace,
            povms=ctx.povms,
            plan=ctx.plan,
        )
    x_hat = est.value.x
    x_true = target.process.x
    infid = 1.0 - fidelity(x_hat, x_true, process_scenario(target.dim))
    infid_dp = 1.0 - fidelity_dp(x_hat, x_true)
    mse = float(np.linalg.norm(x_hat - x_true) ** 2)
    tail = float(np.sum(_sorted_eigenvalues(x_hat)[target.rank :]))
    sigma_hat = est.extras["sigma_out"]
    sigma_infid = 1.0 - pseudo_state_fidelity(sigma_hat.mat, sigma_out.mat)
    q = partial_trace_1(x_hat, target.dim, target.dim)
    if ctx.tp_flag:
        dev = float(np.max(np.abs(q - np.eye(target.dim))))
    else:
        dev = max(0.0, float(np.linalg.eigvalsh(q)[-1]) - 1.0)
    dev = max(dev, max(0.0, -float(np.linalg.eigvalsh(x_hat)[0])))
    return TrialMetrics(infid, infid_dp, mse, tail, sigma_infid, None, dev)


_TRIALS = {"qst": _qst_trial, "qdt": _qdt_trial, "aapt": _aapt_trial}


def run_trial(config: ExperimentConfig, n: int, n_index: int, trial: int):
    """Run one seeded trial; returns TrialMetrics or None when excluded."""
    ctx = _context(config)
    gen = SeededRng(config.seed, stream_id=_trial_stream(n_index, trial)).generator()
    try:
        return _TRIALS[config.task](ctx, config, n, gen)
    except (EstimationError, np.linalg.LinAlgError) as exc:
        log.warning("excluding trial %d at N=%d: %s", trial, n, exc)
        return None


def _trial_entry(args):
    config, n, n_index, trial = args
    return n_index, trial, run_trial(config, n, n_index, trial)


def run_scaling(config: ExperimentConfig, workers: int = 1) -> ScalingResult:
    """Run the full grid of seeded trials and aggregate a ScalingResult.

    Trials failing with an estimation error are excluded and counted; more
    than 10% exclusions at any grid point aborts the run.  Output is
    byte-stable for a fixed config regardless of ``workers``.
    """
    ctx = _context(config)  # validate config/target pairing before spawning
    jobs = [
        (config, n, ni, t)
        for ni, n in enumerate(config.n_grid)
        for t in range(config.repetitions)
    ]
    if workers <= 1:
        outcomes = [_trial_entry(job) for job in jobs]
    else:
        chunk = max(1, len(jobs) // (workers * 8))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_trial_entry, jobs, chunksize=chunk))

    by_n: dict = {ni: {} for ni in range(len(config.n_grid))}
    for ni, trial, metrics in outcomes:
        by_n[ni][trial] = metrics

    is_qst = config.task == "qst"
    is_qdt = config.task == "qdt"
    is_aapt = config.task == "aapt"
    d = ctx.target.dim

    rows = []
    sigma_mean, sigma_std = [], []
    element_rows = []
    constraint_devs = []
    for ni, n in enumerate(config.n_grid):
        ordered = [by_n[ni][t] for t in sorted(by_n[ni])]
        kept = [m for m in ordered if m is not None]
        excluded = len(ordered) - len(kept)
        if excluded > MAX_EXCLUDED_FRACTION * config.repetitions:
            raise RuntimeError(
                f"{excluded}/{config.repetitions} trials failed at N={n}; "
                "the configuration is not informationally complete at this budget"
            )
        if not kept:
            raise RuntimeError(f"no usable trials at N={n}")
        inf = np.array([m.infidelity for m in kept])
        rows.append(
            ScalingRow(
                n=n,
                mean_infidelity=float(inf.mean()),
                std_infidelity=float(inf.std(ddof=1)) if len(kept) > 1 else 0.0,
                mean_infidelity_dp=float(np.mean([m.infidelity_dp for m in kept])),
                mean_mse=float(np.mean([m.mse for m in kept])),
                mean_tail_eigensum=float(np.mean([m.tail_eigensum for m in kept])),
                gm_bound=gm_bound(d, n) if is_qst else None,
                excluded_trials=excluded,
            )
        )
        if is_aapt:
            s = np.array([m.sigma_out_infidelity for m in kept])
            sigma_mean.append(float(s.mean()))
            sigma_std.append(float(s.std(ddof=1)) if len(kept) > 1 else 0.0)
        if is_qdt:
            mat = np.array([m.element_infidelities for m in kept])
            element_rows.append([float(v) for v in mat.mean(axis=0)])
        constraint_devs.append(float(max(m.constraint_dev for m in kept)))

    slope, intercept, r2 = fit_loglog_slope(
        (row.n, row.mean_infidelity) for row in rows
    )
    return ScalingResult(
        config=config,
        rows=rows,
        slope=slope,
        intercept=intercept,
        r2=r2,
        sigma_out_mean=sigma_mean if is_aapt else None,
        sigma_out_std=sigma_std if is_aapt else None,
        element_infidelities=element_rows if is_qdt else None,
        extras={"max_constraint_dev": constraint_devs},
    )
