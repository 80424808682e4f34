"""Output checks and the statistics rules the benchmark reports by."""

from __future__ import annotations

MAX_CONSTRAINT_DEV = 1e-8
PERCENTILES = (50, 90, 95, 99, 99.9)


def tail_percentile(n: int, beyond: int = 10):
    """Highest reported percentile with at least ``beyond`` of ``n`` samples above it."""
    ok = [p for p in PERCENTILES if n * (100 - p) / 100 >= beyond - 1e-9]  # 100 - 99.9 < 0.1
    return max(ok) if ok else None


def percentile(samples, p: float) -> float:
    """The ``p``-th percentile (linear interpolation), refused when too few
    samples lie beyond it."""
    top = tail_percentile(len(samples))
    if top is None or p > top:
        raise ValueError(f"p{p} needs more than {len(samples)} samples")
    xs = sorted(samples)
    pos = (len(xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def check_outputs(runs) -> list:
    """Problems found in the child summaries of one workload; empty means correct.

    Every config must finish without an abort, every trial must be physical
    (the harness's per-grid-point constraint deviation at most 1e-8), and all
    processes of one run must write byte-identical CSV files per config.
    """
    problems = []
    digests = {}
    for run in runs:
        for cfg in run["configs"]:
            name = cfg["name"]
            if cfg["aborted"] is not None:
                problems.append(f"{name}: run aborted: {cfg['aborted']}")
                continue
            if not cfg["max_constraint_dev"] <= MAX_CONSTRAINT_DEV:
                problems.append(
                    f"{name}: constraint deviation {cfg['max_constraint_dev']:.3e} "
                    f"> {MAX_CONSTRAINT_DEV:.0e}"
                )
            digests.setdefault(name, set()).add(cfg["csv_sha256"])
    for name, seen in digests.items():
        if len(seen) > 1:
            problems.append(f"{name}: {len(seen)} different CSV digests across processes")
    return problems
