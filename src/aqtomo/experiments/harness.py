"""Monte-Carlo scaling harness.

For each shot count in the grid the harness runs independent seeded trials.
Every task scores its reconstruction with one scorer (infidelity, classic
trace-normalized infidelity, mean squared error, the eigenvalue mass beyond
the true rank and the constraint deviation), and a trial returns its metrics
as a name -> value mapping.  ``run_scaling`` reduces each metric over the
kept trials of a grid point by one generic loop and fits a log-log slope
through the per-N mean infidelities.  Trial randomness is keyed by (seed,
grid index, trial index), so results are identical for any worker count and
any execution order.
"""

from __future__ import annotations

import logging
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from functools import lru_cache

import numpy as np

from ..linalg import partial_trace_1
from ..estimators import (
    EstimationError,
    adaptive_aapt,
    adaptive_qdt,
    adaptive_qst,
    nonadaptive_aapt,
    static_qdt,
    static_qst,
)
from ..fidelity import (
    detector_scenario,
    fidelity_and_dp,
    process_scenario,
    pseudo_state_fidelity,
    state_scenario,
)
from ..measurement import SeededRng, detector_sampler, state_sampler
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


_ROW_FIELDS = {f.name for f in fields(ScalingRow)}

# report keys of each per-trial metric: (key of its mean, key of its sample
# standard deviation or None); constraint_dev is reported by its maximum
_REPORT_KEYS = {
    "infidelity": ("mean_infidelity", "std_infidelity"),
    "infidelity_dp": ("mean_infidelity_dp", None),
    "mse": ("mean_mse", None),
    "tail_eigensum": ("mean_tail_eigensum", None),
    "sigma_out_infidelity": ("sigma_out_mean_infidelity", "sigma_out_std_infidelity"),
    "element_infidelities": ("element_mean_infidelity", None),
}


@dataclass
class ScalingResult:
    """Aggregated scaling run: one row per grid point plus the fitted slope.

    ``series`` carries the per-grid-point reductions that are not CSV
    columns, keyed by their JSON names: ``sigma_out_mean_infidelity`` and
    ``sigma_out_std_infidelity`` (joint-output-state infidelity) for aapt
    runs, ``element_mean_infidelity`` (rows by grid point, columns by POVM
    element) for qdt runs.
    """

    config: ExperimentConfig
    rows: list
    slope: float
    intercept: float
    r2: float
    version: str = VERSION
    series: dict = field(default_factory=dict)
    extras: dict = field(default_factory=dict)

    def _series(self, key: str) -> list:
        if key not in self.series:
            raise ValueError(f"this run has no {key} series")
        return self.series[key]

    def sigma_out_slope(self) -> float:
        means = self._series("sigma_out_mean_infidelity")
        return fit_loglog_slope(zip((r.n for r in self.rows), means))[0]

    def element_slopes(self) -> list:
        per_element = np.asarray(self._series("element_mean_infidelity")).T
        ns = [r.n for r in self.rows]
        return [fit_loglog_slope(zip(ns, col))[0] for col in per_element]


def _trial_stream(n_index: int, trial: int) -> int:
    return ((n_index + 1) << TRIAL_STREAM_BITS) + trial


@dataclass
class _TaskContext:
    """Per-config state built once and shared by every trial.

    ``oracle`` hides the target.  A state oracle computes its Pauli-cube
    Born table on the first trial and keeps it for the rest.  The target's
    fixed scoring constants (its rank, per-element ranks and stacked
    elements, true process matrix and known output trace) are computed here.
    """

    target: object
    oracle: object
    tp_flag: bool = True
    rank: int = 0
    element_ranks: tuple = ()
    elements: np.ndarray | None = None
    x_true: np.ndarray | None = None
    known_trace: float | None = None


@lru_cache(maxsize=16)
def _context(config: ExperimentConfig) -> _TaskContext:
    target = resolve_target(config.target, config.seed)
    task = expected_task(target)
    if task != config.task:
        raise ValueError(
            f"target {config.target!r} belongs to task {task}, not {config.task}"
        )
    if isinstance(target, QstTarget):
        return _TaskContext(target, state_sampler(target.rho), rank=target.rank)
    if isinstance(target, QdtTarget):
        return _TaskContext(
            target,
            detector_sampler(target.povm),
            element_ranks=target.element_ranks,
            elements=np.stack(target.povm.elements),
        )
    assert isinstance(target, AaptTarget)
    tp = target.tp if config.tp_flag is None else config.tp_flag
    if config.tp_flag is not None and config.tp_flag != target.tp:
        raise ValueError(
            f"tp_flag={config.tp_flag} contradicts the channel of {config.target!r}"
        )
    oracle = state_sampler(target.sigma_out)
    return _TaskContext(
        target,
        oracle,
        tp_flag=tp,
        rank=target.rank,
        x_true=target.process.x,
        known_trace=oracle.rho.trace,
    )


def _score(hat: np.ndarray, true: np.ndarray, scenario, rank):
    """Metrics of an estimate against the truth, shared by every task.

    One eigendecomposition gives both the eigenvalue mass beyond the true
    rank and the PSD deviation (the most negative eigenvalue, floored at 0),
    which starts the ``constraint_dev`` each task extends.  ``(K, d, d)``
    stacks with ``K`` ranks give ``K`` dicts, each equal to its pair's own.
    """
    f, f_dp = fidelity_and_dp(hat, true, scenario)
    eigs = np.linalg.eigvalsh(hat)
    if hat.ndim == 2:
        return _metrics(hat, true, f, f_dp, eigs, rank)
    return [
        _metrics(*a) for a in zip(hat, true, f.tolist(), f_dp.tolist(), eigs, rank)
    ]


def _metrics(hat, true, f, f_dp, eigs, rank) -> dict:
    return {
        "infidelity": 1.0 - f,
        "infidelity_dp": 1.0 - f_dp,
        "mse": float(np.linalg.norm(hat - true) ** 2),
        "tail_eigensum": float(np.sum(eigs[::-1][rank:])),
        "constraint_dev": max(0.0, -float(eigs[0])),
    }


def _qst_trial(ctx: _TaskContext, config, n, gen) -> dict:
    target: QstTarget = ctx.target
    sampler = ctx.oracle
    if config.method == "adaptive":
        est = adaptive_qst(sampler, target.dim, n, config.alpha, gen)
    else:
        est = static_qst(sampler, target.dim, n, gen)
    rho_hat = est.value.mat
    metrics = _score(rho_hat, target.rho.mat, state_scenario(), ctx.rank)
    trace_dev = abs(float(np.trace(rho_hat).real) - 1.0)
    metrics["constraint_dev"] = max(trace_dev, metrics["constraint_dev"])
    return metrics


def _qdt_trial(ctx: _TaskContext, config, n, gen) -> dict:
    target: QdtTarget = ctx.target
    sampler = ctx.oracle
    n_el, d = len(target.povm), target.dim
    if config.method == "adaptive":
        est = adaptive_qdt(sampler, n_el, d, n, config.alpha, gen)
    else:
        est = static_qdt(sampler, n_el, d, n, gen)
    hat = np.stack(est.value.elements)
    scores = _score(hat, ctx.elements, detector_scenario(d), ctx.element_ranks)
    # summed in element order from 0.0 (Python 3.12's sum() compensates)
    mse = tail = dev = 0.0
    for score in scores:
        mse += score["mse"]
        tail += score["tail_eigensum"]
        dev = max(dev, score["constraint_dev"])
    per_el = tuple(score["infidelity"] for score in scores)
    total = sum(est.value.elements)
    return {
        "infidelity": float(np.mean(per_el)),
        "infidelity_dp": float(np.mean([score["infidelity_dp"] for score in scores])),
        "mse": mse,
        "tail_eigensum": tail,
        "element_infidelities": per_el,
        "constraint_dev": max(dev, float(np.max(np.abs(total - np.eye(d))))),
    }


def _aapt_trial(ctx: _TaskContext, config, n, gen) -> dict:
    target: AaptTarget = ctx.target
    sampler = ctx.oracle
    if config.method == "adaptive":
        est = adaptive_aapt(
            sampler,
            target.dim,
            n,
            config.alpha,
            ctx.tp_flag,
            target.input_state,
            gen,
        )
    else:
        est = nonadaptive_aapt(
            sampler,
            target.dim,
            n,
            ctx.tp_flag,
            target.input_state,
            gen,
            known_trace=None if ctx.tp_flag else ctx.known_trace,
        )
    x_hat = est.value.x
    metrics = _score(x_hat, ctx.x_true, process_scenario(target.dim), ctx.rank)
    sigma_hat = est.extras["sigma_out"]
    metrics["sigma_out_infidelity"] = 1.0 - pseudo_state_fidelity(
        sigma_hat.mat, sampler.rho.mat
    )
    q = partial_trace_1(x_hat, target.dim, target.dim)
    if ctx.tp_flag:
        dev = float(np.max(np.abs(q - np.eye(target.dim))))
    else:
        dev = max(0.0, float(np.linalg.eigvalsh(q)[-1]) - 1.0)
    metrics["constraint_dev"] = max(dev, metrics["constraint_dev"])
    return metrics


_TRIALS = {"qst": _qst_trial, "qdt": _qdt_trial, "aapt": _aapt_trial}


def run_trial(config: ExperimentConfig, n: int, n_index: int, trial: int):
    """Run one seeded trial; returns its metrics by name, or None when excluded."""
    ctx = _context(config)
    gen = SeededRng(config.seed, stream_id=_trial_stream(n_index, trial)).generator()
    try:
        return _TRIALS[config.task](ctx, config, n, gen)
    except (EstimationError, np.linalg.LinAlgError) as exc:
        log.warning("excluding trial=%d N=%d reason=%s", trial, n, exc)
        return None


def run_scaling(config: ExperimentConfig, workers: int = 1) -> ScalingResult:
    """Run the full grid of seeded trials and aggregate a ScalingResult.

    Each metric a trial returns is stacked over the kept trials of a grid
    point and reduced by the rule of ``_REPORT_KEYS``.  Trials failing with
    an estimation error are excluded and counted; more than 10% exclusions
    at any grid point aborts the run.  Output is byte-stable for a fixed
    config regardless of ``workers``.
    """
    ctx = _context(config)  # validate config/target pairing before spawning
    reps = config.repetitions
    jobs = [
        (config, n, ni, t) for ni, n in enumerate(config.n_grid) for t in range(reps)
    ]
    if workers <= 1:
        outcomes = [run_trial(*job) for job in jobs]
    else:
        chunk = max(1, len(jobs) // (workers * 8))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            # map returns results in job order, so grid point ni owns one slice
            outcomes = list(pool.map(run_trial, *zip(*jobs), chunksize=chunk))

    rows, series, constraint_devs = [], {}, []
    for ni, n in enumerate(config.n_grid):
        kept = [m for m in outcomes[ni * reps : (ni + 1) * reps] if m is not None]
        excluded = reps - len(kept)
        if excluded > MAX_EXCLUDED_FRACTION * reps:
            raise RuntimeError(
                f"{excluded}/{reps} trials failed at N={n}; "
                "the configuration is not informationally complete at this budget"
            )
        if not kept:
            raise RuntimeError(f"no usable trials at N={n}")
        stats = {}
        for name in kept[0]:
            values = np.array([m[name] for m in kept])
            if name == "constraint_dev":
                constraint_devs.append(float(values.max()))
                continue
            mean_key, std_key = _REPORT_KEYS[name]
            stats[mean_key] = values.mean(axis=0).tolist()
            if std_key is not None:
                stats[std_key] = float(values.std(ddof=1)) if len(kept) > 1 else 0.0
        rows.append(
            ScalingRow(
                n=n,
                gm_bound=gm_bound(ctx.target.dim, n) if config.task == "qst" else None,
                excluded_trials=excluded,
                **{key: stats.pop(key) for key in _ROW_FIELDS & stats.keys()},
            )
        )
        for key, value in stats.items():
            series.setdefault(key, []).append(value)

    slope, intercept, r2 = fit_loglog_slope(
        (row.n, row.mean_infidelity) for row in rows
    )
    return ScalingResult(
        config=config,
        rows=rows,
        slope=slope,
        intercept=intercept,
        r2=r2,
        series=series,
        extras={"max_constraint_dev": constraint_devs},
    )
