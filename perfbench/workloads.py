"""Benchmark workloads and the seeded inputs they generate.

A workload is a list of scaling configs, one adaptive and one static per
target.  ``write_inputs`` turns a workload
and a seed into files: one ``key = value`` config per entry and, for
``qst-4q``, a JSON target file holding a Haar-random rank-1 16-dimensional
state.  The program under test only ever sees these generated files.  The
seed is also the config seed, so it selects the built-in target instances
and the trial streams.
"""

from __future__ import annotations

import json
import os

import numpy as np

# the acceptance-suite grids, so that the benchmark runs the headline curves
QST_GRID = (1000, 3981, 15849, 63096, 251189, 1000000)
AAPT_GRID = (316, 1000, 3162, 10000, 31623, 100000, 316228)
ADAPTIVE_BAND = (-1.2, -0.8)
STATIC_BAND = (-0.7, -0.35)

QST4_TARGET = "qst-rank1-16d.json"

# name -> ((task, target, grid, repetitions), ...).  Repetitions are chosen so
# one process runs at least 200 trials, which lets p95 trial times qualify.
WORKLOADS = {
    "qst-3q": (("qst", "qst-rank1-8d", QST_GRID, 20),),
    "qst-4q": (("qst", QST4_TARGET, QST_GRID, 20),),
    "qdt-2q": (("qdt", "qdt-three-valued", QST_GRID, 20),),
    "aapt-2q": (
        ("aapt", "aapt-hadamard", AAPT_GRID, 8),
        ("aapt", "aapt-damping-third", AAPT_GRID, 8),
    ),
}
METHODS = ("adaptive", "static")


def haar_rank1_target(seed: int, d: int = 16) -> dict:
    """JSON target schema for a Haar-random pure state drawn from ``seed``."""
    gen = np.random.default_rng([seed, d])
    psi = gen.standard_normal(d) + 1j * gen.standard_normal(d)
    psi /= np.linalg.norm(psi)
    rho = np.outer(psi, psi.conj())
    return {
        "task": "qst",
        "name": f"qst-rank1-{d}d",
        "density": [[[z.real, z.imag] for z in row] for row in rho.tolist()],
    }


def write_inputs(workload: str, seed: int, work_dir: str) -> list:
    """Write the workload's configs (and target file) into ``work_dir``.

    Returns the config paths in run order.  Target paths inside configs are
    relative to the directory the benchmark runs from.
    """
    os.makedirs(work_dir, exist_ok=True)
    paths = []
    for task, target, grid, reps in WORKLOADS[workload]:
        spec = target
        if target == QST4_TARGET:
            spec = os.path.join(work_dir, target)
            with open(spec, "w", encoding="utf-8") as fh:
                json.dump(haar_rank1_target(seed), fh)
        for method in METHODS:
            stem = f"{target.removesuffix('.json')}-{method}"
            path = os.path.join(work_dir, stem + ".cfg")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(
                    f"task = {task}\nmethod = {method}\ntarget = {spec}\n"
                    f"n_grid = {', '.join(map(str, grid))}\n"
                    f"repetitions = {reps}\nalpha = 0.5\nseed = {seed}\n"
                )
            paths.append(path)
    return paths


def slope_band(method: str) -> tuple:
    return ADAPTIVE_BAND if method == "adaptive" else STATIC_BAND
