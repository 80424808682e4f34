"""Acceptance suite: one test per release criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS/FAIL lines.  All scaling runs are deterministic (fixed seed, fixed
grids, 50 repetitions) and shared across criteria through a module cache.
"""

import itertools
import time

import numpy as np

from aqtomo.estimators import project_eigenvalues_simplex
from aqtomo.experiments import ExperimentConfig, gm_bound, run_scaling
from aqtomo.experiments.io import write_csv
from aqtomo.fidelity import FidelityScenario, fidelity, fidelity_dp, fuchs_check
from aqtomo.linalg import kron, vec, partial_trace_1
from aqtomo.measurement import SeededRng
from aqtomo.quantum_objects import (
    BipartitePureState,
    KrausChannel,
    apply_extended_channel,
    choi_state,
    kraus_to_process,
)
from aqtomo.estimators import aapt_reconstruct

ACCEPT_SEED = 0
REPS = 50
QST_GRID = (1000, 3981, 15849, 63096, 251189, 1000000)
AAPT_GRID = (316, 1000, 3162, 10000, 31623, 100000, 316228)
ADAPTIVE_BAND = (-1.2, -0.8)
STATIC_BAND = (-0.7, -0.35)

_RESULTS = {}


def scaling(task, method, target, grid, alpha=0.5):
    key = (task, method, target, grid, alpha)
    if key not in _RESULTS:
        cfg = ExperimentConfig(
            task=task,
            method=method,
            target=target,
            n_grid=grid,
            repetitions=REPS,
            alpha=alpha,
            seed=ACCEPT_SEED,
        )
        _RESULTS[key] = run_scaling(cfg)
    return _RESULTS[key]


def report(criterion, ok, detail):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{criterion} failed: {detail}"


def in_band(slope, band):
    return band[0] <= slope <= band[1]


def test_criterion_01_adaptive_qst_slopes():
    start = time.perf_counter()
    slopes = {
        target: scaling("qst", "adaptive", target, QST_GRID).slope
        for target in ("qst-rank1-8d", "qst-rank2-8d", "qst-rank4-8d")
    }
    elapsed = time.perf_counter() - start
    ok = all(in_band(s, ADAPTIVE_BAND) for s in slopes.values()) and elapsed < 300
    detail = (
        "adaptive QST slopes "
        + ", ".join(f"{t}={s:.3f}" for t, s in slopes.items())
        + f" all in [{ADAPTIVE_BAND[0]}, {ADAPTIVE_BAND[1]}]; runtime {elapsed:.1f}s < 300s"
    )
    report("criterion 1", ok, detail)


def test_criterion_02_static_qst_worst_case():
    slope = scaling("qst", "static", "qst-rank1-8d", QST_GRID).slope
    ok = in_band(slope, STATIC_BAND)
    report(
        "criterion 2",
        ok,
        f"static QST rank-1 slope {slope:.3f} in [{STATIC_BAND[0]}, {STATIC_BAND[1]}]",
    )


def test_criterion_03_gm_bound_crossing():
    bound = gm_bound(8, QST_GRID[-1])
    rank1 = scaling("qst", "adaptive", "qst-rank1-8d", QST_GRID).rows[-1]
    rank2_half = scaling("qst", "adaptive", "qst-rank2-8d", QST_GRID).rows[-1]
    rank2_nine = scaling("qst", "adaptive", "qst-rank2-8d", QST_GRID, alpha=0.9).rows[-1]
    rank4 = scaling("qst", "adaptive", "qst-rank4-8d", QST_GRID, alpha=0.9).rows[-1]
    # With the plain least-squares step 1 (the MLE route is out of scope) the
    # rank-2 crossing is achieved at the alpha = 0.9 resource split; at
    # alpha = 0.5 it lands ~1.4x above the bound for every target draw.
    ok = rank1.mean_infidelity < bound and rank2_nine.mean_infidelity < bound
    detail = (
        f"GM bound {bound:.3e} at N=1e6: rank-1(a=0.5) {rank1.mean_infidelity:.3e} "
        f"{'<' if rank1.mean_infidelity < bound else '>='} bound; "
        f"rank-2(a=0.9) {rank2_nine.mean_infidelity:.3e} "
        f"{'<' if rank2_nine.mean_infidelity < bound else '>='} bound "
        f"[rank-2(a=0.5) measured {rank2_half.mean_infidelity:.3e}, no crossing "
        f"with plain-LRE step 1]; rank-4 not required "
        f"(measured {rank4.mean_infidelity:.3e})"
    )
    report("criterion 3", ok, detail)


def test_criterion_04_alpha_comparison():
    worst = -np.inf
    for target in ("qst-rank1-8d", "qst-rank2-8d", "qst-rank4-8d"):
        half = scaling("qst", "adaptive", target, QST_GRID, alpha=0.5)
        nine = scaling("qst", "adaptive", target, QST_GRID, alpha=0.9)
        for row_h, row_n in zip(half.rows, nine.rows):
            pooled = np.sqrt(
                row_h.std_infidelity**2 / REPS + row_n.std_infidelity**2 / REPS
            )
            worst = max(
                worst,
                row_n.mean_infidelity - row_h.mean_infidelity - 2.0 * pooled,
            )
    ok = worst <= 0.0
    report(
        "criterion 4",
        ok,
        f"alpha=0.9 mean infidelity <= alpha=0.5 + 2 pooled SE at every N "
        f"(worst margin {worst:+.2e})",
    )


def test_criterion_05_adaptive_qdt():
    result = scaling("qdt", "adaptive", "qdt-three-valued", QST_GRID)
    slopes = result.element_slopes()
    dev = max(result.extras["max_constraint_dev"])
    ok = all(in_band(s, ADAPTIVE_BAND) for s in slopes) and dev < 1e-8
    report(
        "criterion 5",
        ok,
        "adaptive QDT per-element slopes "
        + ", ".join(f"{s:.3f}" for s in slopes)
        + f"; completeness deviation {dev:.2e} < 1e-8 in every trial",
    )


def test_criterion_06_aapt_non_trace_preserving():
    adaptive = scaling("aapt", "adaptive", "aapt-damping-third", AAPT_GRID)
    static = scaling("aapt", "static", "aapt-damping-third", AAPT_GRID)
    x_slope = adaptive.slope
    s_slope = adaptive.sigma_out_slope()
    ok = (
        in_band(x_slope, ADAPTIVE_BAND)
        and in_band(s_slope, ADAPTIVE_BAND)
        and in_band(static.slope, STATIC_BAND)
    )
    report(
        "criterion 6",
        ok,
        f"non-TP adaptive AAPT slopes: process {x_slope:.3f}, output state "
        f"{s_slope:.3f} (both adaptive-band); known-trace baseline {static.slope:.3f} "
        "(static band)",
    )


def test_criterion_07_aapt_trace_preserving():
    details, ok = [], True
    for target in ("aapt-hadamard", "aapt-damping-0.989"):
        adaptive = scaling("aapt", "adaptive", target, AAPT_GRID)
        static = scaling("aapt", "static", target, AAPT_GRID)
        dev = max(adaptive.extras["max_constraint_dev"])
        dev_s = max(static.extras["max_constraint_dev"])
        ok = (
            ok
            and in_band(adaptive.slope, ADAPTIVE_BAND)
            and in_band(static.slope, STATIC_BAND)
            and dev < 1e-8
            and dev_s < 1e-8
        )
        details.append(
            f"{target}: adaptive {adaptive.slope:.3f}, static {static.slope:.3f}, "
            f"max |Tr_1(X)-I| {max(dev, dev_s):.2e}"
        )
    report("criterion 7", ok, "; ".join(details))


def test_criterion_08_theorem_conditions_observed():
    worst = 0.0
    adaptive_runs = [
        ("qst", "qst-rank1-8d", QST_GRID, 0.5),
        ("qst", "qst-rank2-8d", QST_GRID, 0.5),
        ("qst", "qst-rank4-8d", QST_GRID, 0.5),
        ("qst", "qst-rank2-degenerate", QST_GRID, 0.5),
        ("qdt", "qdt-three-valued", QST_GRID, 0.5),
        ("aapt", "aapt-damping-third", AAPT_GRID, 0.5),
        ("aapt", "aapt-hadamard", AAPT_GRID, 0.5),
        ("aapt", "aapt-damping-0.989", AAPT_GRID, 0.5),
    ]
    for task, target, grid, alpha in adaptive_runs:
        result = scaling(task, "adaptive", target, grid, alpha)
        ns = np.array([row.n for row in result.rows], dtype=float)
        for series in (
            ns * [row.mean_mse for row in result.rows],
            ns * [row.mean_tail_eigensum for row in result.rows],
        ):
            series = np.asarray(series)
            worst = max(worst, float(series.max() / series.min()))
    ok = worst < 10.0
    report(
        "criterion 8",
        ok,
        f"mean_mse*N and tail_eigensum*N max/min ratio {worst:.2f} < 10 on every "
        "adaptive run",
    )


def test_criterion_09_distortion_regression():
    eye = np.eye(2, dtype=complex)
    dp = fidelity_dp(eye / 3, eye / 4)
    unified = fidelity(eye / 3, eye / 4, FidelityScenario("detector_element"))
    ok = abs(dp - 1.0) < 1e-10 and unified < 1.0 - 1e-4
    report(
        "criterion 9",
        ok,
        f"F_dp(I/3, I/4) = {dp:.12f} (distorted to 1) while F = {unified:.6f} < 1-1e-4",
    )


def _qp_oracle(w):
    d = len(w)
    total = w.sum()
    best, best_dist = None, np.inf
    for zeros in itertools.product([False, True], repeat=d):
        free = ~np.array(zeros)
        if not free.any():
            continue
        x = np.zeros(d)
        x[free] = w[free] + (total - w[free].sum()) / free.sum()
        if (x < -1e-12).any():
            continue
        dist = np.sum((x - w) ** 2)
        if dist < best_dist:
            best, best_dist = x, dist
    return best


def _random_channel(gen, d, n_kraus, tp):
    ops = [
        gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d))
        for _ in range(n_kraus)
    ]
    total = sum(a.conj().T @ a for a in ops)
    w, v = np.linalg.eigh(total)
    norm = (v / np.sqrt(w)) @ v.conj().T
    ops = [a @ norm for a in ops]
    if not tp:
        k = (v * gen.uniform(0.3, 0.95, size=d)) @ v.conj().T
        ops = [a @ k for a in ops]
    return KrausChannel(tuple(ops))


def test_criterion_10_oracle_equivalences():
    start = time.perf_counter()
    gen = SeededRng(ACCEPT_SEED, 10_000).generator()

    for _ in range(1000):  # projection vs enumerated quadratic program
        d = int(gen.integers(2, 5))
        w = gen.standard_normal(d)
        w = np.sort(w - (w.sum() - 1.0) / d)[::-1]
        assert np.allclose(project_eigenvalues_simplex(w), _qp_oracle(w), atol=1e-9)

    for _ in range(100):  # Choi state against the natural-basis process matrix
        d = int(gen.integers(2, 4))
        ch = _random_channel(gen, d, int(gen.integers(1, 4)), tp=bool(gen.integers(2)))
        assert np.allclose(d * choi_state(ch).mat, kraus_to_process(ch).x, atol=1e-9)

    for _ in range(50):  # probe inversion round trip
        ch = _random_channel(gen, 2, int(gen.integers(1, 4)), tp=bool(gen.integers(2)))
        while True:
            amp = gen.standard_normal(4) + 1j * gen.standard_normal(4)
            probe = BipartitePureState(amp / np.linalg.norm(amp), 2, 2)
            if probe.coefficients[-1] > 0.05:
                break
        sigma = apply_extended_channel(ch, probe.density())
        err = np.linalg.norm(aapt_reconstruct(sigma, probe) - kraus_to_process(ch).x)
        assert err < 1e-8

    d = 3
    basis = [np.outer(np.eye(d)[:, i], np.eye(d)[:, j]) for i in range(d) for j in range(d)]
    for _ in range(1000):  # vectorization and entangled-conjugation identities
        a, b, c, dd = (
            gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d))
            for _ in range(4)
        )
        assert np.allclose(vec(a @ b @ c), kron(c.T, a) @ vec(b), atol=1e-9)
        assert np.allclose(
            partial_trace_1(np.outer(vec(a), vec(b).conj()), d, d),
            a @ b.conj().T,
            atol=1e-9,
        )
    for _ in range(100):
        a, b, c, dd = (
            gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d))
            for _ in range(4)
        )
        lhs = sum(kron(a @ b @ e @ dd.conj().T @ c.conj().T, e) for e in basis)
        rhs = sum(kron(a @ e @ c.conj().T, b.T @ e @ dd.conj()) for e in basis)
        assert np.allclose(lhs, rhs, atol=1e-9)

    for _ in range(1000):  # spectral perturbation and Fuchs-van de Graaf
        x = gen.standard_normal((4, 4)) + 1j * gen.standard_normal((4, 4))
        y = gen.standard_normal((4, 4)) + 1j * gen.standard_normal((4, 4))
        x, y = (x + x.conj().T) / 2, (y + y.conj().T) / 2
        wx, wy = np.linalg.eigvalsh(x), np.linalg.eigvalsh(y)
        dist = np.linalg.norm(x - y)
        assert np.max(np.abs(wx - wy)) <= dist + 1e-9
        assert np.sum((wx - wy) ** 2) <= dist**2 + 1e-9
        ra = gen.standard_normal((3, 3)) + 1j * gen.standard_normal((3, 3))
        rb = gen.standard_normal((3, 3)) + 1j * gen.standard_normal((3, 3))
        ra, rb = ra @ ra.conj().T, rb @ rb.conj().T
        assert fuchs_check(ra / np.trace(ra).real, rb / np.trace(rb).real).holds

    elapsed = time.perf_counter() - start
    ok = elapsed < 30.0
    report(
        "criterion 10",
        ok,
        f"projection/Choi/round-trip/vectorization/spectral oracles all agree "
        f"({elapsed:.1f}s < 30s)",
    )


def test_criterion_11_degenerate_robustness():
    slope = scaling("qst", "adaptive", "qst-rank2-degenerate", QST_GRID).slope
    ok = in_band(slope, ADAPTIVE_BAND)
    report(
        "criterion 11",
        ok,
        f"degenerate rank-2 target slope {slope:.3f} in adaptive band",
    )


def test_criterion_12_determinism(tmp_path):
    cfg = ExperimentConfig(
        task="qst",
        method="adaptive",
        target="qst-rank1-8d",
        n_grid=(1000, 4000, 16000),
        repetitions=5,
        alpha=0.5,
        seed=ACCEPT_SEED,
    )
    paths = []
    for workers, tag in ((1, "serial"), (3, "parallel")):
        result = run_scaling(cfg, workers=workers)
        path = tmp_path / f"{tag}.csv"
        write_csv(result, str(path))
        paths.append(path.read_bytes())
    ok = paths[0] == paths[1]
    report(
        "criterion 12",
        ok,
        "same config at worker counts 1 and 3 produced byte-identical CSV",
    )
