"""Benchmark targets, scaling harness, result serialization and the CLI."""

from .config import ExperimentConfig, load_config, parse_config
from .harness import ScalingResult, ScalingRow, fit_loglog_slope, gm_bound, run_scaling
from .io import emit_results, read_result_csv
from .targets import BUILTIN_TARGET_NAMES, builtin_target, resolve_target

__all__ = [
    "BUILTIN_TARGET_NAMES",
    "ExperimentConfig",
    "ScalingResult",
    "ScalingRow",
    "builtin_target",
    "emit_results",
    "fit_loglog_slope",
    "gm_bound",
    "load_config",
    "parse_config",
    "read_result_csv",
    "resolve_target",
    "run_scaling",
]
