"""Command-line interface.

Subcommands:

* ``run``      execute a scaling experiment described by a config file
* ``targets``  list the built-in benchmark targets
* ``fit``      fit a log-log slope to an existing result CSV
* ``selftest`` run a quick invariant suite and report pass/fail
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .config import load_config
from .harness import VERSION, fit_loglog_slope, run_scaling
from .io import emit_results, read_result_csv, write_csv
from .selftest import run_selftest
from .targets import BUILTIN_TARGET_NAMES, builtin_target


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aqtomo",
        description="Adaptive quantum tomography simulations and scaling runs",
    )
    parser.add_argument("--version", action="version", version=f"aqtomo {VERSION}")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scaling experiment from a config file")
    run_p.add_argument("--config", required=True, help="path to a key-value config file")
    run_p.add_argument("--seed", type=int, default=None, help="override the config seed")
    run_p.add_argument("--workers", type=int, default=1, help="parallel grid-point workers")
    run_p.add_argument("--out", default=None, help="output path (default: stdout CSV)")
    run_p.add_argument("--format", choices=("csv", "json", "both"), default="csv")
    run_p.set_defaults(func=_cmd_run)

    targets_p = sub.add_parser("targets", help="list built-in target names")
    targets_p.set_defaults(func=_cmd_targets)

    fit_p = sub.add_parser("fit", help="fit a log-log slope to an existing CSV")
    fit_p.add_argument("csv", help="result CSV written by the run subcommand")
    fit_p.set_defaults(func=_cmd_fit)

    selftest_p = sub.add_parser("selftest", help="run the quick invariant suite")
    selftest_p.set_defaults(func=lambda args, parser: run_selftest())
    return parser


def _cmd_run(args, parser) -> int:
    if args.out is None and args.format != "csv":
        parser.error(f"--format {args.format} needs --out; stdout takes CSV only")
    if args.workers < 1:
        parser.error(f"--workers must be at least 1, got {args.workers}")
    try:  # input that cannot be read is a usage error; a failing run is not
        config = load_config(args.config)
        if args.seed is not None:
            config = dataclasses.replace(config, seed=args.seed)
    except (OSError, ValueError) as exc:
        parser.error(str(exc))
    result = run_scaling(config, workers=args.workers)
    print(
        f"# slope={result.slope:.4f} intercept={result.intercept:.4f} "
        f"r2={result.r2:.4f}",
        file=sys.stderr,
    )
    if args.out is None:
        write_csv(result, sys.stdout)
    else:
        for path in emit_results(result, args.out, args.format):
            print(f"wrote {path}", file=sys.stderr)
    return 0


def _cmd_targets(args, parser) -> int:
    for name in BUILTIN_TARGET_NAMES:
        target = builtin_target(name)
        print(f"{name}\t{target.task}\td={target.dim}")
    return 0


def _cmd_fit(args, parser) -> int:
    try:
        rows = read_result_csv(args.csv)
        slope, intercept, r2 = fit_loglog_slope(
            (row["N"], row["mean_infidelity"]) for row in rows
        )
    except (OSError, ValueError) as exc:
        parser.error(str(exc))
    print(f"slope={slope:.6f} intercept={intercept:.6f} r2={r2:.6f}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    return args.func(args, parser)


if __name__ == "__main__":
    sys.exit(main())
