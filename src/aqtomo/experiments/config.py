"""Experiment configuration and its plain-text key-value file format.

A config file is a flat list of ``key = value`` lines; a ``#`` that starts
a line or follows whitespace starts a comment.  The keys are
:class:`ExperimentConfig`'s field names, and each value is read by its
field's declared type.  ``n_grid`` takes a comma- or space-separated list
(surrounding brackets are tolerated).  Unknown keys are rejected.

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

import numbers
import operator
import re
from dataclasses import MISSING, asdict, dataclass, fields

TASKS = ("qst", "qdt", "aapt")
METHODS = ("adaptive", "static")

# under one seed, built-in targets draw from streams TARGET_STREAM_BASE + k
TRIAL_STREAM_BITS = 20
TARGET_STREAM_BASE = 1 << 48


def _trial_stream(n_index: int, trial: int) -> int:
    """Stream id of trial ``trial`` at grid index ``n_index``; ``ValueError``
    for a pair whose stream would be another trial's or a target's."""
    if not 0 <= n_index < (TARGET_STREAM_BASE >> TRIAL_STREAM_BITS) - 1:
        raise ValueError(f"grid index {n_index} has no trial streams")
    if not 0 <= trial < 1 << TRIAL_STREAM_BITS:
        raise ValueError(f"trial indices must lie in [0, 2**{TRIAL_STREAM_BITS})")
    return ((n_index + 1) << TRIAL_STREAM_BITS) + trial


@dataclass(frozen=True)
class ExperimentConfig:
    task: str
    method: str
    target: str
    n_grid: tuple
    repetitions: int
    alpha: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.task not in TASKS:
            raise ValueError(f"task must be one of {TASKS}, got {self.task!r}")
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        if not isinstance(self.target, str):
            raise ValueError(f"target must be a name or a path, got {self.target!r}")
        if not isinstance(self.alpha, numbers.Real) or not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must be a real number strictly between 0 and 1")
        try:  # numpy integers pass; floats and strings raise
            reps, seed = operator.index(self.repetitions), operator.index(self.seed)
            # every trial owns a stream; the grid's length is read before expansion
            if len(self.n_grid) and reps > 0:
                _trial_stream(len(self.n_grid) - 1, reps - 1)
            grid = tuple(map(operator.index, self.n_grid))
        except TypeError as exc:
            msg = "n_grid, repetitions and seed must be integers"
            raise ValueError(f"{msg}: {exc}") from None
        if not grid or any(n < 1 for n in grid):
            raise ValueError("n_grid must hold positive shot counts")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("n_grid must be strictly increasing")
        if reps < 1:
            raise ValueError("repetitions must be >= 1")
        if not 0 <= seed < 2**64:
            raise ValueError("seed must fit in 64 bits")
        object.__setattr__(self, "n_grid", grid)
        object.__setattr__(self, "repetitions", reps)
        object.__setattr__(self, "seed", seed)

    def to_dict(self) -> dict:
        d = asdict(self)
        d["n_grid"] = list(self.n_grid)
        return d


def _grid(raw: str) -> tuple:
    return tuple(map(int, raw.strip("[]").replace(",", " ").split()))


# a config-file value is read by its field's declared type
_READERS = {"str": str, "int": int, "float": float, "tuple": _grid}


def parse_config(text: str) -> ExperimentConfig:
    """Parse the key-value config format into an :class:`ExperimentConfig`."""
    config_fields = {f.name: f for f in fields(ExperimentConfig)}
    values: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = re.split(r"(?:^|\s)#", line, maxsplit=1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ValueError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in config_fields:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        try:
            values[key] = _READERS[config_fields[key].type](raw)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: bad value for {key!r}: {exc}") from None
    for name, f in config_fields.items():
        if f.default is MISSING and name not in values:
            raise ValueError(f"config is missing required key {name!r}")
    return ExperimentConfig(**values)


def load_config(path: str) -> ExperimentConfig:
    with open(path, encoding="utf-8") as fh:
        return parse_config(fh.read())
