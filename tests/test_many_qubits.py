"""Scaling on targets beyond two qubits: 6- and 8-qubit state tomography,
3- and 4-qubit detector tomography and 3-qubit ancilla-assisted process
tomography.

Every run goes through the harness, so the Pauli cube is measured and solved
in product form.  The bands are the acceptance suite's.
"""

import json
import os
import subprocess
import sys
import time

from aqtomo.experiments import ExperimentConfig, run_scaling

ADAPTIVE_BAND = (-1.2, -0.8)
STATIC_BAND = (-0.7, -0.35)


def in_band(slope, band):
    return band[0] <= slope <= band[1]


def slopes(task, target, grid, reps, seed):
    return {
        method: run_scaling(ExperimentConfig(task, method, target, grid, reps, seed=seed))
        for method in ("adaptive", "static")
    }


def test_six_qubit_rank1_qst():
    tick = time.perf_counter()
    runs = slopes("qst", "qst-rank1-64d", (10**5, 10**6, 10**7, 10**8), 10, seed=3)
    assert time.perf_counter() - tick < 60.0
    assert in_band(runs["adaptive"].slope, ADAPTIVE_BAND), runs["adaptive"].slope
    assert in_band(runs["static"].slope, STATIC_BAND), runs["static"].slope


_EIGHT_QUBITS = """
import json, resource
from aqtomo.experiments import ExperimentConfig, run_scaling
out = {}
for method in ("adaptive", "static"):
    cfg = ExperimentConfig(
        "qst", method, "qst-rank1-256d", (10**6, 10**7, 10**8, 10**9), 3, seed=3
    )
    out[method] = run_scaling(cfg).slope
out["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps(out))
"""


def test_eight_qubit_rank1_qst_in_its_own_process():
    # a fresh process, so that its peak resident set is this run's alone
    tick = time.perf_counter()
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", _EIGHT_QUBITS],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=os.path.join(root, "src")),
    )
    assert proc.returncode == 0, proc.stderr
    assert time.perf_counter() - tick < 60.0
    out = json.loads(proc.stdout.splitlines()[-1])
    assert in_band(out["adaptive"], ADAPTIVE_BAND), out
    assert in_band(out["static"], STATIC_BAND), out
    assert out["peak_rss_mib"] < 500.0, out


def test_three_qubit_detector():
    # rank-1 elements 0 and 1 scale as O(1/sqrt N) without adaptivity; the
    # full-rank element 2 scales as O(1/N) either way
    runs = slopes("qdt", "qdt-three-valued-8d", (10**4, 10**5, 10**6, 10**7, 10**8), 10, 3)
    adaptive = runs["adaptive"].element_slopes()
    static = runs["static"].element_slopes()
    assert all(in_band(s, ADAPTIVE_BAND) for s in adaptive), adaptive
    assert all(in_band(s, STATIC_BAND) for s in static[:2]), static
    assert max(runs["adaptive"].extras["max_constraint_dev"]) < 1e-8


def test_four_qubit_detector():
    # 1296 cube probes, so the grid starts where stage 1 gives each one shots
    # (n0 = 5000 at N = 1e4); same bands as the 3-qubit detector
    tick = time.perf_counter()
    runs = slopes("qdt", "qdt-three-valued-16d", (10**4, 10**5, 10**6, 10**7, 10**8), 10, 3)
    assert time.perf_counter() - tick < 60.0
    adaptive = runs["adaptive"].element_slopes()
    static = runs["static"].element_slopes()
    assert all(in_band(s, ADAPTIVE_BAND) for s in adaptive), adaptive
    assert all(in_band(s, STATIC_BAND) for s in static[:2]), static
    assert max(runs["adaptive"].extras["max_constraint_dev"]) < 1e-8
    assert max(runs["static"].extras["max_constraint_dev"]) < 1e-8


def test_three_qubit_aapt_toffoli():
    runs = slopes("aapt", "aapt-toffoli", (10**5, 10**6, 10**7, 10**8), 10, seed=3)
    adaptive = runs["adaptive"]
    assert in_band(adaptive.slope, ADAPTIVE_BAND), adaptive.slope
    assert in_band(adaptive.sigma_out_slope(), ADAPTIVE_BAND)
    assert in_band(runs["static"].slope, STATIC_BAND), runs["static"].slope
    assert max(adaptive.extras["max_constraint_dev"]) < 1e-8
