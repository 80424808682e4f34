"""Experiment configuration and its plain-text key-value file format.

A config file is a flat list of ``key = value`` lines; ``#`` starts a
comment.  ``n_grid`` takes a comma-separated list (surrounding brackets are
tolerated).  Unknown keys are rejected rather than ignored.

Example::

    task = qst
    method = adaptive
    target = qst-rank1-8d
    n_grid = 1000, 10000, 100000, 1000000
    repetitions = 50
    alpha = 0.5
    seed = 7
"""

from __future__ import annotations

import operator
from dataclasses import asdict, dataclass

TASKS = ("qst", "qdt", "aapt")
METHODS = ("adaptive", "static")

_KEYS = ("task", "method", "target", "n_grid", "repetitions", "alpha", "seed", "tp_flag")

# Random-stream layout under one seed: trial ``t`` at grid index ``i`` draws
# from stream ``((i + 1) << TRIAL_STREAM_BITS) + t`` and built-in targets from
# streams ``TARGET_STREAM_BASE + k``.  Trial streams are distinct only while
# ``t < 2**TRIAL_STREAM_BITS`` and stay below the target streams only while
# the grid has fewer than ``TARGET_STREAM_BASE >> TRIAL_STREAM_BITS`` points.
TRIAL_STREAM_BITS = 20
TARGET_STREAM_BASE = 1 << 48


@dataclass(frozen=True)
class ExperimentConfig:
    task: str
    method: str
    target: str
    n_grid: tuple
    repetitions: int
    alpha: float = 0.5
    seed: int = 0
    tp_flag: bool | None = None  # aapt only; None means "infer from the target"

    def __post_init__(self):
        if self.task not in TASKS:
            raise ValueError(f"task must be one of {TASKS}, got {self.task!r}")
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        if len(self.n_grid) >= TARGET_STREAM_BASE >> TRIAL_STREAM_BITS:
            raise ValueError(
                "n_grid has too many points: its trial streams would reach the "
                "target streams"
            )
        try:  # numpy integers pass; floats and strings raise
            grid = tuple(map(operator.index, self.n_grid))
            reps, seed = operator.index(self.repetitions), operator.index(self.seed)
        except TypeError as exc:
            msg = "n_grid, repetitions and seed must be integers"
            raise ValueError(f"{msg}: {exc}") from None
        if not grid or any(n < 1 for n in grid):
            raise ValueError("n_grid must hold positive shot counts")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("n_grid must be strictly increasing")
        if reps < 1:
            raise ValueError("repetitions must be >= 1")
        if reps >= 1 << TRIAL_STREAM_BITS:
            raise ValueError(
                f"repetitions must be below 2**{TRIAL_STREAM_BITS}, or trial "
                "streams of neighbouring grid points would coincide"
            )
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie strictly between 0 and 1")
        if not 0 <= seed < 2**64:
            raise ValueError("seed must fit in 64 bits")
        object.__setattr__(self, "n_grid", grid)
        object.__setattr__(self, "repetitions", reps)
        object.__setattr__(self, "seed", seed)

    def to_dict(self) -> dict:
        d = asdict(self)
        d["n_grid"] = list(self.n_grid)
        return d


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


def parse_config(text: str) -> ExperimentConfig:
    """Parse the key-value config format into an :class:`ExperimentConfig`."""
    values: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ValueError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in _KEYS:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        values[key] = raw
    for required in ("task", "method", "target", "n_grid", "repetitions"):
        if required not in values:
            raise ValueError(f"config is missing required key {required!r}")

    grid_raw = values["n_grid"].strip().strip("[]")
    n_grid = tuple(int(tok) for tok in grid_raw.replace(",", " ").split())
    kwargs = dict(
        task=values["task"],
        method=values["method"],
        target=values["target"],
        n_grid=n_grid,
        repetitions=int(values["repetitions"]),
    )
    if "alpha" in values:
        kwargs["alpha"] = float(values["alpha"])
    if "seed" in values:
        kwargs["seed"] = int(values["seed"])
    if "tp_flag" in values:
        kwargs["tp_flag"] = _parse_bool(values["tp_flag"])
    return ExperimentConfig(**kwargs)


def load_config(path: str) -> ExperimentConfig:
    with open(path, encoding="utf-8") as fh:
        return parse_config(fh.read())
