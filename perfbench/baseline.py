"""Re-measure the per-trial and plan-build baseline from traced runs.

Usage, from the root of a checkout::

    python3 perfbench/baseline.py

Runs ``run.py --trace 1 --seed 1`` on every workload for the ``run_seconds``
of ``BENCHMARK.json``, then writes
``perfbench/baseline.json``: per-config trial times (traced p50 and
untraced mean, in ms), plan build times per build for 3 and 4 qubits, the
per-process set-up times and the machine record of each run.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
SEED = 1


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]
    baseline = {"seed": SEED, "seconds": seconds, "workloads": {}}
    for workload in WORKLOADS:
        subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
             "--seed", str(SEED), "--seconds", str(seconds), "--trace", "1"],
            check=True, stdout=subprocess.DEVNULL, timeout=600,
        )
        path = os.path.join("perfbench", "out", f"{workload}-s{SEED}", "trace.json")
        with open(path, encoding="utf-8") as fh:
            trace = json.load(fh)
        baseline["workloads"][workload] = {
            "env": trace["env"],
            "trial_ms": trace["configs"],
            "plan_build_s": trace["plan_build_s"],
            "setup_s": trace["setup_s"],
            "trials_per_s": trace["end_to_end"]["trials_per_s"],
        }
    with open(os.path.join(HERE, "baseline.json"), "w", encoding="utf-8") as fh:
        json.dump(baseline, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
