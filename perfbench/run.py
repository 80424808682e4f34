"""aqtomo benchmark: time to an infidelity-versus-copies curve.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload qst-3q --seed 1 --seconds 30 --trace 0

The workload's configs (and, for ``qst-4q``, its target file) are generated
from ``--seed`` under ``perfbench/out/``, which keeps only the latest run.  For ``--seconds`` the benchmark
then starts fresh single processes one after the other (a closed loop, one
client, ``workers=1``), each running every config of the workload end to end
through the public API; see ``child.py``.  End-to-end metrics are medians
over those processes, of times taken at reference speed: each untraced
process interleaves a fixed reference kernel with the program
(``speedref.py``), whose slices are taken out of every time and whose speed
rescales the rest, so that the drifting speed of a shared host cancels.
The program's own seconds are printed beside them.  With ``--trace 1`` every second process is traced
(``tracing.py``) and the per-layer metrics come from the traced ones, while
the untraced ones give the baseline for the tracing overhead.

Every process's output is checked (no aborted run, every trial physical,
identical CSV bytes for each config across processes).  The last stdout
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  BLAS threading is left at its default on purpose: a stalled
first ``pinv`` shows in the per-process ``setup_s`` values printed above it.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import subprocess
import sys
from statistics import median
from time import monotonic

import numpy as np

from checks import check_outputs, percentile, tail_percentile
from speedref import NOMINAL_SLICE_S
from tracing import combine, layer_metrics
from workloads import WORKLOADS, slope_band, write_inputs

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_RUNS = 3  # untraced processes per run, and traced ones with --trace 1
CHILD_TIMEOUT_S = 120


def openblas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if not found."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line}
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                return int(getattr(handle, symbol)())
    return None


def git_commit(root: str) -> str:
    """The checkout's git commit, or ``unknown`` when there is none."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
            timeout=10,
        )
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(root: str) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas.get('version', '')}".strip(),
        "blas_threads": openblas_threads(),
        "commit": git_commit(root),
    }


def run_child(spec: dict, spec_path: str) -> dict:
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    t0 = monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"), spec_path, repr(t0)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"benchmark process failed with exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def program_tps(runs) -> float:
    """Median trials per second of the program's own time, reference slices
    taken out but not rescaled; the base of the tracing overhead."""
    return median(r["trials"] / r["raw"]["trial_s"] for r in runs)


def end_to_end(runs) -> dict:
    """Medians over processes of the metrics a user of ``aqtomo run`` sees."""
    return {
        "trials_per_s": median(r["trials"] / r["trial_s"] for r in runs),
        "time_to_result_s": median(r["time_to_result_s"] for r in runs),
        "setup_s": median(r["setup_s"] for r in runs),
        "peak_rss_mb": median(r["peak_rss_mb"] for r in runs),
    }


def declared_metrics(root: str, section: str) -> dict:
    """Metric name -> unit for one section of ``BENCHMARK.json``."""
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def report_trace(untraced, traced, e2e, path, header) -> dict:
    """Per-layer metrics of the traced processes; also prints the per-build and
    per-config timings and writes them with the metrics to ``path``."""
    total = combine(r["layers"] for r in traced)
    metrics = layer_metrics(
        total,
        traced,
        untraced_tps=program_tps(untraced),
        traced_tps=program_tps(traced),
    )
    per_config = {
        c["name"]: {
            "traced_trial_ms_p50": median(r["configs"][i]["trial_ms_p50"] for r in traced),
            "untraced_trial_ms_mean": median(
                1e3 * r["configs"][i]["seconds"] / c["attempted"] for r in untraced),
        }
        for i, c in enumerate(traced[0]["configs"])
    }
    tail_p = tail_percentile(total["trials"])
    print(f"trial ms over {total['trials']} traced trials: "
          f"p50 {percentile(total['trial_ms'], 50):.3f}, "
          f"p{tail_p:g} {percentile(total['trial_ms'], tail_p):.3f}")
    print("plan_build_s per build: " + " ".join(f"{s:.4f}" for s in total["plan_build_s"]))
    for name, ms in per_config.items():
        print(f"config {name}: trial ms p50 traced {ms['traced_trial_ms_p50']:.3f}, "
              f"mean untraced {ms['untraced_trial_ms_mean']:.3f}")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({**header, "setup_s": [r["setup_s"] for r in untraced],
                   "setup_program_s": [r["raw"]["setup_s"] for r in untraced],
                   "plan_build_s": total["plan_build_s"], "configs": per_config,
                   "end_to_end": e2e, "per_layer": metrics}, fh, indent=1)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "aqtomo", "__init__.py")):
        print("no src/aqtomo here: run from the root of an aqtomo checkout", file=sys.stderr)
        return 2
    out = os.path.join("perfbench", "out")  # holds the latest run only
    shutil.rmtree(out, ignore_errors=True)
    work = os.path.join(out, f"{args.workload}-s{args.seed}")
    configs = write_inputs(args.workload, args.seed, work)
    env = environment(root)
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))

    # start another process only while it is expected to end within --seconds
    untraced, traced, durations = [], [], []
    start = monotonic()
    while (
        len(untraced) < MIN_RUNS
        or (args.trace and len(traced) < MIN_RUNS)
        or monotonic() - start + median(durations) < args.seconds
    ):
        k = len(untraced) + len(traced)
        trace = bool(args.trace) and k % 2 == 1
        out_dir = os.path.join(work, f"run-{k}")
        os.makedirs(out_dir)
        spec = {
            "src": os.path.join(root, "src"),
            "configs": configs,
            "out_dir": out_dir,
            "trace": trace,
            "spans_path": os.path.join(out_dir, "spans.json"),
        }
        tick = monotonic()
        run = run_child(spec, os.path.join(out_dir, "spec.json"))
        durations.append(monotonic() - tick)
        (traced if trace else untraced).append(run)
    runs = untraced + traced

    print(f"workload {args.workload} seed {args.seed}: "
          f"{len(untraced)} untraced + {len(traced)} traced processes")
    print("per untraced process, at reference speed (program's own seconds):")
    print("  setup_s: " + " ".join(
        f"{r['setup_s']:.3f}({r['raw']['setup_s']:.3f})" for r in untraced))
    print("  time_to_result_s: " + " ".join(
        f"{r['time_to_result_s']:.3f}({r['raw']['time_to_result_s']:.3f})" for r in untraced))
    print("  trials_per_s: " + " ".join(
        f"{r['trials'] / r['trial_s']:.1f}({r['trials'] / r['raw']['trial_s']:.1f})"
        for r in untraced))
    print("  reference slice ms (nominal {:.3f}): ".format(1e3 * NOMINAL_SLICE_S) + " ".join(
        f"{r['ref_slice_ms']:.3f}" for r in untraced))
    for cfg in untraced[0]["configs"]:
        if cfg["aborted"] is not None:
            continue
        lo, hi = slope_band(cfg["method"])
        flag = "" if lo <= cfg["slope"] <= hi else f"  OUTSIDE [{lo}, {hi}]"
        print(f"config {cfg['name']}: slope {cfg['slope']:.4f}{flag}  "
              f"csv sha256 {cfg['csv_sha256']}  "
              f"max constraint dev {cfg['max_constraint_dev']:.2e}  "
              f"trials/s {cfg['attempted'] / cfg['seconds']:.1f}")
    problems = check_outputs(runs)
    for p in problems:
        print("check: " + p)
    print("output check: " + ("PASS" if not problems else "FAIL"))

    e2e = end_to_end(untraced)
    if args.trace:
        metrics = report_trace(untraced, traced, e2e, os.path.join(work, "trace.json"),
                               {"workload": args.workload, "seed": args.seed, "env": env})
    else:
        metrics = e2e
    units = declared_metrics(root, "per_layer" if args.trace else "end_to_end")
    if set(units) != set(metrics):
        raise SystemExit(f"metrics differ from BENCHMARK.json: {set(units) ^ set(metrics)}")
    units.update(declared_metrics(root, "end_to_end"))
    attempted = sum(c["attempted"] for r in runs for c in r["configs"])
    failed = sum(c["excluded"] for r in runs for c in r["configs"])
    for name, value in {**e2e, **metrics}.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(f"failed_trial_frac = {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} trials excluded or aborted)")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
