"""Monte-Carlo scaling harness.

For each shot count in the grid the harness runs independent seeded trials.
One trial function runs the protocol that a ``(task, method)`` table names
and scores its estimate, one matrix or a detector's ``(K, d, d)`` element
stack, with one scorer (infidelity, classic trace-normalized infidelity,
mean squared error, the eigenvalue mass beyond the true ranks and the
constraint deviation); a trial returns its metrics as a name -> value
mapping.  ``run_scaling`` reduces each metric over the kept trials of a grid
point by one generic loop and fits a log-log slope through the per-N mean
infidelities.  Trial randomness is keyed by (seed, grid index, trial index),
so results are identical for any worker count and any execution order.  A
trial reads its oracle, the truth it is scored against (rooted once, with
its fidelity scenario), the true ranks and, for AAPT, whether the channel is
trace-preserving from the config's target, resolved once per process
(``_context``); the estimate's spectra come from the validation of its value
object.  AAPT's output state goes through the same scorer.
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
from .targets import resolve_target

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


def _score(hat: np.ndarray, eigs: np.ndarray, truth, ranks, dev: float) -> dict:
    """Metrics of an estimate against the truth, shared by every task.

    ``hat`` is one matrix or a ``(K, d, d)`` stack, ``eigs`` its ascending
    spectra kept from validation, ``truth`` the target's rooted truth with
    its fidelity scenario and ``ranks`` the true rank of each row.  The rows
    are reduced in order from 0.0 (Python 3.12's sum() compensates): mean
    infidelity and infidelity_dp, summed MSE and tail eigenvalue mass, and
    as ``constraint_dev`` the largest of the task's ``dev`` and each row's
    negated smallest eigenvalue.  A stack also keeps each row's infidelity.
    """
    f, f_dp = rooted_fidelity_and_dp(hat, eigs, truth)
    if hat.ndim == 2:  # one matrix: the one-pair overlap's Python floats
        rows = [(hat, truth.mat, eigs, f, f_dp, ranks[0])]
    else:
        rows = zip(hat, truth.mat, eigs, f.tolist(), f_dp.tolist(), ranks)
    infid = infid_dp = mse = tail = 0.0
    element_infid = []
    for h, t, w, f_j, f_dp_j, rank in rows:
        diff = (h - t).ravel()  # np.linalg.norm's arithmetic: sqrt(re.re + im.im)
        infid += 1.0 - f_j
        infid_dp += 1.0 - f_dp_j
        mse += math.sqrt(diff.real.dot(diff.real) + diff.imag.dot(diff.imag)) ** 2
        tail += float(np.add.reduce(w[::-1][rank:]))
        dev = max(dev, -float(w[0]))
        element_infid.append(1.0 - f_j)
    k = len(element_infid)
    metrics = {
        "infidelity": infid / k,
        "infidelity_dp": infid_dp / k,
        "mse": mse,
        "tail_eigensum": tail,
        "constraint_dev": dev,
    }
    if hat.ndim == 3:
        metrics["element_infidelities"] = tuple(element_infid)
    return metrics


# (task, method) -> protocol; each looks its protocol up by module-global name
# when called, so a rebound name (a tracer's wrapper) is the one that runs
_PROTOCOLS = {
    ("qst", "adaptive"): lambda t, c, n, g: adaptive_qst(t.oracle, n, c.alpha, g),
    ("qst", "static"): lambda t, c, n, g: static_qst(t.oracle, n, g),
    ("qdt", "adaptive"): lambda t, c, n, g: adaptive_qdt(t.oracle, n, c.alpha, g),
    ("qdt", "static"): lambda t, c, n, g: static_qdt(t.oracle, n, g),
    ("aapt", "adaptive"): lambda t, c, n, g: adaptive_aapt(
        t.oracle, n, c.alpha, t.tp, t.input_state, g
    ),
    ("aapt", "static"): lambda t, c, n, g: nonadaptive_aapt(
        t.oracle, n, t.tp, t.input_state, g, known_trace=t.known_trace
    ),
}


def _trial(target, config, n, gen) -> dict:
    est = _PROTOCOLS[config.task, config.method](target, config, n, gen)
    value = est.value
    # constraints: unit trace, completeness, Tr_1(X) = I (TP) or <= I (non-TP)
    if config.task == "qst":
        hat, dev = value.mat, abs(value.trace - 1.0)
    elif config.task == "qdt":
        hat, dev = value.elements, value.completeness_dev
    else:
        hat = value.x
        if target.tp:
            dev = value.partial_trace_dev
        else:
            dev = max(0.0, float(value.partial_trace_eigenvalues[-1]) - 1.0)
    metrics = _score(hat, value.eigenvalues, target.truth, target.ranks, dev)
    if config.task == "aapt":
        sigma = est.extras["sigma_out"]
        # a full-Schmidt probe maps X to sigma_out invertibly: equal ranks
        metrics["sigma_out_infidelity"] = _score(
            sigma.mat, sigma.eigenvalues, target.sigma_out_truth, target.ranks, 0.0
        )["infidelity"]
    return metrics


def run_trial(config: ExperimentConfig, n: int, n_index: int, trial: int):
    """Run one seeded trial; returns its metrics by name, or None when excluded."""
    target = _context(config)
    gen = SeededRng(config.seed, stream_id=_trial_stream(n_index, trial)).generator()
    try:
        return _trial(target, config, n, gen)
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
