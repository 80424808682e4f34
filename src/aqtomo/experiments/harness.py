"""Monte-Carlo scaling harness.

For each shot count in the grid the harness runs independent seeded trials.
Every task scores its reconstruction with one scorer (infidelity, classic
trace-normalized infidelity, mean squared error, the eigenvalue mass beyond
the true rank and the constraint deviation), and a trial returns its metrics
as a name -> value mapping.  ``run_scaling`` reduces each metric over the
kept trials of a grid point by one generic loop and fits a log-log slope
through the per-N mean infidelities.  Trial randomness is keyed by (seed,
grid index, trial index), so results are identical for any worker count and
any execution order.  A trial reads its oracle, the truth it is scored
against (rooted once, with its fidelity scenario) and, for AAPT, whether
the channel is trace-preserving from the config's target, resolved once per
process (``_context``); the estimate's spectra come from the validation of
its value object.  AAPT's output state is scored by the same
``rooted_fidelity_and_dp``, against a truth in the pseudo-state scenario.
"""

from __future__ import annotations

import concurrent.futures as futures
import logging
import math
import os
from dataclasses import dataclass, field, fields
from functools import lru_cache

import numpy as np

from .. import __version__ as VERSION
from ..estimators import (
    EstimationError,
    adaptive_aapt,
    adaptive_qdt,
    adaptive_qst,
    nonadaptive_aapt,
    static_qdt,
    static_qst,
)
from ..fidelity import rooted_fidelity_and_dp
from ..measurement import SeededRng
from .config import TRIAL_STREAM_BITS, ExperimentConfig
from .targets import AaptTarget, QdtTarget, QstTarget, resolve_target

log = logging.getLogger(__name__)

MAX_EXCLUDED_FRACTION = 0.10
SLOPE_FLOOR = 1e-12


def gm_bound(d: int, n: int) -> float:
    """Gill-Massar lower bound (d+1)^2 (d-1) / (4N) on mean state infidelity."""
    if d < 2 or n < 1:
        raise ValueError("gm_bound needs d >= 2 and N >= 1")
    return (d + 1) ** 2 * (d - 1) / (4.0 * n)


def _require_slope_points(count: int) -> None:
    if count < 3:
        raise ValueError("need at least 3 rows above 1e-12 to fit a slope")


def fit_loglog_slope(rows) -> tuple[float, float, float]:
    """Least-squares slope of log10(mean infidelity) against log10(N).

    ``rows`` is an iterable of (N, mean_infidelity) pairs; entries at or
    below 1e-12 are dropped, and at least three usable points are required.
    Returns (slope, intercept, r_squared).
    """
    pts = [(n, y) for n, y in rows if y > SLOPE_FLOOR]
    _require_slope_points(len(pts))
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


@lru_cache(maxsize=16)
def _context(config: ExperimentConfig):
    """The config's target, checked against the task and for a Pauli cube.

    Cached per config, so every trial in a process shares one target and,
    with it, the oracle and scoring constants the target computes once.
    """
    target = resolve_target(config.target, config.seed)
    if target.task != config.task:
        raise ValueError(
            f"target {config.target!r} belongs to task {target.task}, not {config.task}"
        )
    target.oracle.cube  # a target with no Pauli cube fails here, before any trial
    return target


def _score(hat: np.ndarray, eigs: np.ndarray, truth, rank):
    """Metrics of an estimate against the truth, shared by every task.

    ``eigs`` is the estimate's ascending spectrum, kept by its value object
    from validation; it gives both the eigenvalue mass beyond the true rank
    and the PSD deviation (the most negative eigenvalue, floored at 0),
    which starts the ``constraint_dev`` each task extends.  ``truth`` is
    the target's rooted truth, which carries its fidelity scenario.
    ``(K, d, d)`` stacks with ``K`` ranks give ``K`` dicts, each equal to
    its pair's own.
    """
    f, f_dp = rooted_fidelity_and_dp(hat, eigs, truth)
    true = truth.mat
    if hat.ndim == 2:
        return _metrics(hat, true, f, f_dp, eigs, rank)
    return [
        _metrics(*a) for a in zip(hat, true, f.tolist(), f_dp.tolist(), eigs, rank)
    ]


def _metrics(hat, true, f, f_dp, eigs, rank) -> dict:
    diff = (hat - true).ravel()  # np.linalg.norm's arithmetic: sqrt(re.re + im.im)
    return {
        "infidelity": 1.0 - f,
        "infidelity_dp": 1.0 - f_dp,
        "mse": math.sqrt(diff.real.dot(diff.real) + diff.imag.dot(diff.imag)) ** 2,
        "tail_eigensum": float(np.add.reduce(eigs[::-1][rank:])),
        "constraint_dev": max(0.0, -float(eigs[0])),
    }


def _qst_trial(target: QstTarget, config, n, gen) -> dict:
    if config.method == "adaptive":
        est = adaptive_qst(target.oracle, n, config.alpha, gen)
    else:
        est = static_qst(target.oracle, n, gen)
    rho_hat = est.value
    metrics = _score(rho_hat.mat, rho_hat.eigenvalues, target.truth, target.rank)
    trace_dev = abs(rho_hat.trace - 1.0)
    metrics["constraint_dev"] = max(trace_dev, metrics["constraint_dev"])
    return metrics


def _qdt_trial(target: QdtTarget, config, n, gen) -> dict:
    if config.method == "adaptive":
        est = adaptive_qdt(target.oracle, n, config.alpha, gen)
    else:
        est = static_qdt(target.oracle, n, gen)
    hat = est.value.elements
    scores = _score(hat, est.value.eigenvalues, target.truth, target.element_ranks)
    # summed in element order from 0.0 (Python 3.12's sum() compensates)
    infid = infid_dp = mse = tail = dev = 0.0
    for score in scores:
        infid += score["infidelity"]
        infid_dp += score["infidelity_dp"]
        mse += score["mse"]
        tail += score["tail_eigensum"]
        dev = max(dev, score["constraint_dev"])
    return {
        "infidelity": infid / len(scores),
        "infidelity_dp": infid_dp / len(scores),
        "mse": mse,
        "tail_eigensum": tail,
        "element_infidelities": tuple(score["infidelity"] for score in scores),
        "constraint_dev": max(dev, est.value.completeness_dev),
    }


def _aapt_trial(target: AaptTarget, config, n, gen) -> dict:
    d = target.dim
    if config.method == "adaptive":
        est = adaptive_aapt(
            target.oracle, n, config.alpha, target.tp, target.input_state, gen
        )
    else:
        est = nonadaptive_aapt(
            target.oracle,
            n,
            target.tp,
            target.input_state,
            gen,
            known_trace=None if target.tp else target.known_trace,
        )
    x_hat = est.value.x
    metrics = _score(x_hat, est.value.eigenvalues, target.truth, target.rank)
    sigma_hat = est.extras["sigma_out"]
    metrics["sigma_out_infidelity"] = 1.0 - rooted_fidelity_and_dp(
        sigma_hat.mat, sigma_hat.eigenvalues, target.sigma_out_truth
    )[0]
    if target.tp:
        dev = float(np.max(np.abs(est.value.partial_trace - np.eye(d))))
    else:
        dev = max(0.0, float(est.value.partial_trace_eigenvalues[-1]) - 1.0)
    metrics["constraint_dev"] = max(dev, metrics["constraint_dev"])
    return metrics


_TRIALS = {"qst": _qst_trial, "qdt": _qdt_trial, "aapt": _aapt_trial}


def run_trial(config: ExperimentConfig, n: int, n_index: int, trial: int):
    """Run one seeded trial; returns its metrics by name, or None when excluded."""
    target = _context(config)
    gen = SeededRng(config.seed, stream_id=_trial_stream(n_index, trial)).generator()
    try:
        return _TRIALS[config.task](target, config, n, gen)
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
    target = _context(config)  # validate config/target pairing before spawning
    _require_slope_points(len(config.n_grid))
    reps = config.repetitions
    jobs = [
        (config, n, ni, t) for ni, n in enumerate(config.n_grid) for t in range(reps)
    ]
    # a forked pool starts all its processes at the first submit
    workers = min(workers, os.cpu_count() or 1, len(jobs))
    if workers <= 1:
        outcomes = [run_trial(*job) for job in jobs]
    else:
        chunk = max(1, len(jobs) // (workers * 8))
        with futures.ProcessPoolExecutor(max_workers=workers) as pool:
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
                gm_bound=gm_bound(target.dim, n) if config.task == "qst" else None,
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
