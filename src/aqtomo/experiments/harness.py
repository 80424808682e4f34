"""Monte-Carlo scaling harness.

For each shot count in the grid the harness runs independent seeded trials,
a grid point's repetitions as one stack (rerun one by one if any is
excluded).  One trial function runs the protocol that a ``(task, method)``
table names and scores each estimate, one matrix or a detector's
``(K, d, d)`` element stack, with one scorer (infidelity, classic
trace-normalized infidelity, mean squared error, the eigenvalue mass beyond
the true ranks and the constraint deviation); a trial returns its metrics as
a name -> value mapping.  ``run_scaling`` reduces each metric over the kept
trials of a grid point by one generic loop and fits a log-log slope through
the per-N mean infidelities.  Trial randomness is keyed by (seed, grid
index, trial index), so results are identical for any worker count, order or
stacking; a grid point's generators are built in one pass
(``seeded_generators``), each equal to ``SeededRng``'s.  A trial reads its
oracle, the truth it is scored against (factored once, with its fidelity
scenario), the true ranks and, for AAPT, whether the channel is
trace-preserving from the config's target, resolved once per process
(``_context``); the estimate's spectra are the ones its value object keeps
from validation.  AAPT's output state is scored by its fidelity alone.
"""

from __future__ import annotations

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
from ..measurement import seeded_generators
from .config import ExperimentConfig, _trial_stream
from .targets import resolve_target

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


def _score(hat: np.ndarray, eigs: np.ndarray, truth, ranks, dev) -> list:
    """Metrics of estimates against the truth, one mapping per trial.

    ``hat`` is one trial's estimate (a matrix, or a ``(K, d, d)`` stack for a
    stacked truth) or T trials' with a leading axis, ``eigs`` their ascending
    spectra kept from validation, ``truth`` the target's factored truth with
    its fidelity scenario, ``ranks`` the true rank of each of its rows and
    ``dev`` the task's constraint deviation of each trial.  One array pass
    scores every row of every trial.  Each trial's rows are then reduced in
    element order from 0.0, since numpy's ``add.reduce`` sums pairwise from
    8 entries: mean infidelity and infidelity_dp, summed MSE and tail
    eigenvalue mass, and as ``constraint_dev`` the largest of ``dev`` and
    each row's negated smallest eigenvalue.  A stacked truth also keeps each
    row's infidelity.
    """
    k, d = len(ranks), hat.shape[-1]
    # np.linalg.norm's sqrt(re.re + im.im) of each (T, K, 1, d^2) row, K = 1 for
    # a matrix: (1, n) @ (n, 1) is ndarray.dot's ddot, float_power a float's **
    diff = hat.reshape(-1, k, 1, d * d) - truth.mat.reshape(k, 1, d * d)
    re, im = diff.real, diff.imag
    sq = (re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2))[..., 0, 0]
    mse = np.float_power(np.sqrt(sq), 2)
    scores = rooted_fidelity_and_dp(hat, eigs, truth)
    f, f_dp = (np.reshape(v, sq.shape) for v in scores)
    w = eigs.reshape(sq.shape + (d,))
    sums = np.zeros((4, len(sq)))
    for j, rank in enumerate(ranks):
        tail = np.add.reduce(w[:, j, ::-1][:, rank:], -1)
        sums += (1.0 - f[:, j], 1.0 - f_dp[:, j], mse[:, j], tail)
        dev = np.where(-w[:, j, 0] > dev, -w[:, j, 0], dev)  # max(dev, -w[0])
    sums[:2] /= k
    names = ["infidelity", "infidelity_dp", "mse", "tail_eigensum", "constraint_dev"]
    columns = [*sums.tolist(), dev.tolist()]
    if truth.mat.ndim == 3:
        names.append("element_infidelities")
        columns.append(list(map(tuple, (1.0 - f).tolist())))
    return [dict(zip(names, values)) for values in zip(*columns)]


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


def _trial(target, config, n, gen) -> list:
    est = _PROTOCOLS[config.task, config.method](target, config, n, gen)
    value = est.value
    # constraints: unit trace, completeness, Tr_1(X) = I (TP) or <= I (non-TP)
    if config.task == "qst":
        hat, dev = value.mat, np.abs(value.trace - 1.0)
    elif config.task == "qdt":
        hat, dev = value.elements, value.completeness_dev
    elif target.tp:
        hat, dev = value.x, value.partial_trace_dev
    else:
        excess = value.partial_trace_eigenvalues[..., -1] - 1.0
        hat, dev = value.x, np.maximum(0.0, excess)
    metrics = _score(hat, value.eigenvalues, target.truth, target.ranks, dev)
    if config.task == "aapt":
        sigma = est.extras["sigma_out"]
        f, _ = rooted_fidelity_and_dp(
            sigma.mat, sigma.eigenvalues, target.sigma_out_truth
        )
        for m, value in zip(metrics, (1.0 - f).tolist()):
            m["sigma_out_infidelity"] = value
    return metrics


def run_trial(config: ExperimentConfig, n: int, n_index: int, trial: int | range):
    """Run one seeded trial; returns its metrics by name, or None when excluded.

    A ``range`` of trials runs as one stack and returns one entry per trial
    (none for an empty range).  A trial or grid index without a stream of its
    own (``config._trial_stream``) raises ``ValueError``.
    """
    stack = isinstance(trial, range)
    trials = trial if stack else range(trial, trial + 1)
    if not trials:
        return []
    metrics = _run(_context(config), config, n, n_index, trials)
    return metrics if stack else metrics[0]


def _run(target, config, n, n_index, trials) -> list:
    """Metrics of each of ``trials``, run as one stack; None for an excluded one."""
    gens = seeded_generators(config.seed, [_trial_stream(n_index, t) for t in trials])
    try:
        return _trial(target, config, n, gens)
    except (EstimationError, np.linalg.LinAlgError) as exc:
        if len(trials) > 1:  # rerun each trial alone, so exclusions stay per trial
            return [m for t in trials for m in _run(target, config, n, n_index, [t])]
        import logging  # imported here: only an excluded trial logs

        logging.getLogger(__name__).warning(
            "excluding trial=%d N=%d reason=%s", trials[0], n, exc
        )
        return [None]


def run_scaling(config: ExperimentConfig, workers: int = 1) -> ScalingResult:
    """Run the full grid of seeded trials and aggregate a ScalingResult.

    Each metric a trial returns is stacked over the kept trials of a grid
    point and reduced by the rule of ``_REPORT_KEYS``.  Trials failing with
    an estimation error are excluded and counted; more than 10% exclusions
    at any grid point aborts the run.  Output is byte-stable for a fixed
    config regardless of ``workers``, which must be at least 1.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    target = _context(config)  # validate config/target pairing before spawning
    _require_slope_points(len(config.n_grid))
    reps = config.repetitions
    jobs = [(config, n, ni, range(reps)) for ni, n in enumerate(config.n_grid)]
    # a forked pool starts all its processes at the first submit
    workers = min(workers, os.cpu_count() or 1, len(jobs))
    if workers <= 1:
        outcomes = [run_trial(*job) for job in jobs]
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            # map returns results in job order, one list per grid point
            outcomes = list(pool.map(run_trial, *zip(*jobs)))

    rows, series, constraint_devs = [], {}, []
    for ni, n in enumerate(config.n_grid):
        kept = [m for m in outcomes[ni] if m is not None]
        excluded = reps - len(kept)
        if excluded > MAX_EXCLUDED_FRACTION * reps:
            raise RuntimeError(
                f"{excluded}/{reps} trials failed at N={n}; "
                "the configuration is not informationally complete at this budget"
            )
        stats, count = {}, len(kept)
        # the ufuncs under ndarray.max, mean(axis=0) and std(ddof=1), in their
        # order: the same bits without the wrappers
        for name in kept[0]:
            values = np.array([m[name] for m in kept])
            if name == "constraint_dev":
                constraint_devs.append(float(np.maximum.reduce(values, None)))
                continue
            mean_key, std_key = _REPORT_KEYS[name]
            mean = np.add.reduce(values, 0) / count
            stats[mean_key] = mean.tolist()
            if std_key is not None:  # a scalar metric: values is (count,)
                sq_dev = np.add.reduce(np.square(values - mean), 0)
                std = np.sqrt(sq_dev / (count - 1)) if count > 1 else 0.0
                stats[std_key] = float(std)
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
