import hashlib
import inspect
import json
import logging
import subprocess
import sys

import numpy as np
import pytest

from aqtomo.estimators import EstimationError, InformationIncompleteError
from aqtomo.experiments import (
    BUILTIN_TARGET_NAMES,
    ExperimentConfig,
    builtin_target,
    emit_results,
    fit_loglog_slope,
    gm_bound,
    parse_config,
    read_result_csv,
    read_result_json,
    resolve_target,
    run_scaling,
)
from aqtomo.experiments import harness
from aqtomo.experiments.io import CSV_HEADER, result_to_dict, write_csv, write_json
from aqtomo.experiments.targets import AaptTarget, QstTarget, load_target
from aqtomo.linalg import NotPSDError

CONFIG_TEXT = """
# demo config
task = qst
method = adaptive
target = qst-rank1-8d
n_grid = 1000, 4000, 16000
repetitions = 4
alpha = 0.5
seed = 21
"""


class TestConfig:
    def test_parse(self):
        cfg = parse_config(CONFIG_TEXT)
        assert cfg.task == "qst" and cfg.method == "adaptive"
        assert cfg.n_grid == (1000, 4000, 16000)
        assert cfg.repetitions == 4 and cfg.seed == 21
        assert cfg.tp_flag is None

    def test_bracketed_grid_and_bool(self):
        cfg = parse_config(
            "task = aapt\nmethod = static\ntarget = aapt-damping-third\n"
            "n_grid = [100, 200]\nrepetitions = 2\ntp_flag = false\n"
        )
        assert cfg.n_grid == (100, 200) and cfg.tp_flag is False

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown key"):
            parse_config(CONFIG_TEXT + "\nworkers = 4\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            parse_config(CONFIG_TEXT + "\nseed = 3\n")

    def test_missing_key_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            parse_config("task = qst\nmethod = adaptive\n")

    def test_grid_must_increase(self):
        with pytest.raises(ValueError, match="increasing"):
            ExperimentConfig("qst", "adaptive", "qst-rank1-8d", (100, 100), 1)

    def test_grid_must_be_nonempty_and_positive(self):
        with pytest.raises(ValueError):
            ExperimentConfig("qst", "adaptive", "qst-rank1-8d", (), 1)
        with pytest.raises(ValueError):
            ExperimentConfig("qst", "adaptive", "qst-rank1-8d", (0, 10), 1)

    def test_alpha_bounds(self):
        with pytest.raises(ValueError, match="alpha"):
            ExperimentConfig("qst", "adaptive", "qst-rank1-8d", (100,), 1, alpha=1.0)

    def test_enum_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig("qpt", "adaptive", "x", (100,), 1)
        with pytest.raises(ValueError):
            ExperimentConfig("qst", "bayes", "x", (100,), 1)

    def test_repetitions_that_alias_trial_streams_rejected(self):
        # trial t of grid index i draws from stream ((i + 1) << 20) + t, so
        # trial 2**20 of index 0 would reuse trial 0 of index 1
        ExperimentConfig("qst", "adaptive", "qst-rank1-8d", (100,), 2**20 - 1)
        with pytest.raises(ValueError, match="repetitions"):
            ExperimentConfig("qst", "adaptive", "qst-rank1-8d", (100,), 2**20)

    def test_grid_reaching_target_streams_rejected(self):
        # 2**28 grid points would put the last trial streams at 2**48, where
        # the built-in targets draw; the length is checked before expansion
        class LongGrid:
            def __len__(self):
                return 2**28

            def __iter__(self):
                raise AssertionError("grid expanded before its length was checked")

        with pytest.raises(ValueError, match="too many points"):
            ExperimentConfig("qst", "adaptive", "qst-rank1-8d", LongGrid(), 1)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("repetitions", 2.5),
            ("repetitions", 2.0),
            ("seed", 3.5),
            ("seed", "3"),
            ("n_grid", (100, 200.5)),
            ("n_grid", (100.0, 200)),
        ],
    )
    def test_non_integral_values_rejected(self, field, value):
        kwargs = dict(n_grid=(100, 200), repetitions=2, seed=3)
        kwargs[field] = value
        with pytest.raises(ValueError, match="must be integers"):
            ExperimentConfig("qst", "adaptive", "qst-rank1-8d", **kwargs)

    def test_numpy_integers_accepted_as_python_ints(self):
        cfg = ExperimentConfig(
            "qst", "adaptive", "qst-rank1-8d",
            (np.int64(100), np.int32(200)), np.int64(2), seed=np.uint64(3),
        )
        assert cfg == ExperimentConfig(
            "qst", "adaptive", "qst-rank1-8d", (100, 200), 2, seed=3
        )
        assert all(type(v) is int for v in (*cfg.n_grid, cfg.repetitions, cfg.seed))
        json.dumps(cfg.to_dict())


class TestTargets:
    def test_builtin_names(self):
        assert set(BUILTIN_TARGET_NAMES) == {
            "qst-rank1-8d",
            "qst-rank1-64d",
            "qst-rank1-256d",
            "qst-rank2-8d",
            "qst-rank4-8d",
            "qst-rank2-degenerate",
            "qdt-three-valued",
            "qdt-three-valued-8d",
            "qdt-three-valued-16d",
            "aapt-hadamard",
            "aapt-damping-0.989",
            "aapt-damping-third",
            "aapt-toffoli",
        }

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown target"):
            builtin_target("qst-rank3-8d")

    def test_qst_profiles(self):
        for name, profile in [
            ("qst-rank1-8d", [1.0] + [0.0] * 7),
            ("qst-rank2-8d", [0.5, 0.5] + [0.0] * 6),
            ("qst-rank4-8d", [0.25] * 4 + [0.0] * 4),
            ("qst-rank2-degenerate", [0.5, 0.5] + [0.0] * 6),
        ]:
            target = builtin_target(name)
            w = np.linalg.eigvalsh(target.rho.mat)[::-1]
            assert np.allclose(w, profile, atol=1e-10)
        a = builtin_target("qst-rank2-8d").rho.mat
        b = builtin_target("qst-rank2-degenerate").rho.mat
        assert np.linalg.norm(a - b) > 0.1  # independent unitaries

    def test_targets_fixed_given_seed(self):
        a = builtin_target("qst-rank1-8d", seed=5).rho.mat
        b = builtin_target("qst-rank1-8d", seed=5).rho.mat
        c = builtin_target("qst-rank1-8d", seed=6).rho.mat
        assert np.array_equal(a, b) and not np.allclose(a, c)

    def test_qdt_profile(self):
        target = builtin_target("qdt-three-valued")
        w1 = np.linalg.eigvalsh(target.povm.elements[0])
        w2 = np.linalg.eigvalsh(target.povm.elements[1])
        assert abs(w1[-1] - 0.4) < 1e-10 and abs(w2[-1] - 0.5) < 1e-10
        assert target.element_ranks[:2] == (1, 1)

    def test_aapt_damping_kraus(self):
        target = builtin_target("aapt-damping-0.989")
        a1, a2 = target.channel.operators
        assert np.allclose(a1, np.diag([1.0, np.sqrt(0.011)]), atol=1e-12)
        assert np.allclose(a2, np.diag([0.0, np.sqrt(0.989)]), atol=1e-12)
        assert target.tp
        third = builtin_target("aapt-damping-third")
        assert not third.tp
        assert third.known_trace == pytest.approx(third.sigma_out.trace)
        assert third.known_trace < 1.0
        assert third.input_state.operator_schmidt_number() == 4

    def test_load_target_file(self, tmp_path):
        path = tmp_path / "custom.json"
        eye = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
        half = [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]
        path.write_text(json.dumps({"task": "qst", "density": half}))
        target = load_target(str(path))
        assert isinstance(target, QstTarget)
        assert np.allclose(target.rho.mat, np.eye(2) / 2)
        path2 = tmp_path / "chan.json"
        path2.write_text(json.dumps({"task": "aapt", "kraus": [eye]}))
        target2 = resolve_target(str(path2))
        assert isinstance(target2, AaptTarget) and target2.tp

    def test_resolve_rejects_missing_file(self):
        with pytest.raises(FileNotFoundError):
            resolve_target("nope/missing.json")


class TestGmBound:
    def test_values(self):
        assert gm_bound(2, 1) == pytest.approx(9 / 4)
        assert gm_bound(8, 10**6) == pytest.approx(81 * 7 / 4e6)

    def test_scaling(self):
        assert gm_bound(5, 2000) == pytest.approx(gm_bound(5, 1000) / 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            gm_bound(1, 10)


class TestSlopeFit:
    def test_exact_power_laws(self):
        ns = [10**k for k in range(2, 7)]
        slope, _, r2 = fit_loglog_slope((n, 3.0 / n) for n in ns)
        assert abs(slope + 1.0) < 1e-10 and r2 > 1 - 1e-12
        slope, _, _ = fit_loglog_slope((n, 0.2 / np.sqrt(n)) for n in ns)
        assert abs(slope + 0.5) < 1e-10

    def test_noisy_power_law(self):
        gen = np.random.default_rng(3)
        ns = np.logspace(2, 6, 12)
        rows = [(n, (5.0 / n) * float(gen.uniform(0.9, 1.1))) for n in ns]
        slope, _, _ = fit_loglog_slope(rows)
        assert abs(slope + 1.0) < 0.05

    def test_needs_three_rows(self):
        with pytest.raises(ValueError):
            fit_loglog_slope([(10, 1e-3), (100, 1e-4)])
        with pytest.raises(ValueError):
            fit_loglog_slope([(10, 0.0), (100, 0.0), (1000, 0.0)])


@pytest.fixture(scope="module")
def small_result():
    cfg = ExperimentConfig(
        task="qst",
        method="adaptive",
        target="qst-rank1-8d",
        n_grid=(1000, 4000, 16000),
        repetitions=4,
        alpha=0.5,
        seed=21,
    )
    return run_scaling(cfg)


class TestRunScaling(object):
    def test_row_shape(self, small_result):
        assert len(small_result.rows) == 3
        for row in small_result.rows:
            assert 0.0 <= row.mean_infidelity <= 1.0
            assert row.gm_bound == pytest.approx(gm_bound(8, row.n))
            assert row.excluded_trials == 0
        assert np.isfinite(small_result.slope)

    def test_deterministic_rerun(self, small_result):
        again = run_scaling(small_result.config)
        assert again.rows == small_result.rows
        assert again.slope == small_result.slope

    @pytest.mark.parametrize(
        "task,target",
        [
            ("qst", "qst-rank1-8d"),
            ("qdt", "qdt-three-valued"),
            ("aapt", "aapt-damping-third"),
        ],
        ids=["qst", "qdt", "aapt"],
    )
    def test_worker_count_invariance(self, task, target):
        # the per-element and output-state series cross the process pool too
        grid = (1000, 4000, 16000)
        cfg = ExperimentConfig(task, "adaptive", target, grid, 4, seed=21)
        serial = run_scaling(cfg, workers=1)
        parallel = run_scaling(cfg, workers=2)
        assert result_to_dict(parallel) == result_to_dict(serial)
        assert parallel.extras == serial.extras

    def test_missing_series_raise(self, small_result):
        with pytest.raises(ValueError):
            small_result.element_slopes()
        with pytest.raises(ValueError):
            small_result.sigma_out_slope()
        cfg = ExperimentConfig(
            "qdt", "adaptive", "qdt-three-valued", (1000, 4000, 16000), 2
        )
        qdt = run_scaling(cfg)
        assert len(qdt.element_slopes()) == 3
        with pytest.raises(ValueError):
            qdt.sigma_out_slope()

    def test_constraint_devs_tracked(self, small_result):
        devs = small_result.extras["max_constraint_dev"]
        assert len(devs) == 3 and max(devs) < 1e-8

    def test_task_target_mismatch(self):
        cfg = ExperimentConfig("qdt", "adaptive", "qst-rank1-8d", (1000,), 1)
        with pytest.raises(ValueError, match="belongs to task"):
            run_scaling(cfg)

    def test_tp_flag_contradiction(self):
        cfg = ExperimentConfig(
            "aapt", "adaptive", "aapt-hadamard", (1000, 2000), 2, tp_flag=False
        )
        with pytest.raises(ValueError, match="contradicts"):
            run_scaling(cfg)

    def test_single_repetition_has_zero_std(self):
        cfg = ExperimentConfig(
            "qst", "adaptive", "qst-rank1-8d", (1000, 4000, 16000), 1, seed=8
        )
        result = run_scaling(cfg)
        assert all(row.std_infidelity == 0.0 for row in result.rows)
        again = run_scaling(cfg)
        assert again.rows == result.rows

    def test_budget_too_small_fails_run(self):
        # step-1 gets fewer shots than Cube settings, every trial is excluded,
        # and the >10% exclusion policy aborts the run
        cfg = ExperimentConfig(
            "qst", "adaptive", "qst-rank1-8d", (40, 80, 160), 3, seed=1
        )
        with pytest.raises(RuntimeError, match="trials failed"):
            run_scaling(cfg)

    def test_tail_eigensum_slope_bands(self):
        # the small-eigenvalue mass itself decays like 1/N adaptively and
        # like 1/sqrt(N) statically
        grid = (1000, 4642, 21544, 100000, 464159, 2154435)
        adaptive = run_scaling(
            ExperimentConfig("qst", "adaptive", "qst-rank1-8d", grid, 10, seed=2)
        )
        static = run_scaling(
            ExperimentConfig("qst", "static", "qst-rank1-8d", grid, 10, seed=2)
        )
        tail_rows = [(r.n, r.mean_tail_eigensum) for r in adaptive.rows]
        slope_a, _, _ = fit_loglog_slope(tail_rows)
        tail_rows = [(r.n, r.mean_tail_eigensum) for r in static.rows]
        slope_s, _, _ = fit_loglog_slope(tail_rows)
        assert -1.2 <= slope_a <= -0.8
        assert -0.7 <= slope_s <= -0.3


class TestBenchmarkSurface:
    """What the benchmark's child process and tracer drive, from the outside.

    ``perfbench/child.py`` sets each config up with one ``run_trial`` call,
    runs ``run_scaling(cfg, workers=1)`` and reads its slope, exclusions and
    constraint deviations; ``perfbench/tracing.py`` counts trials at
    ``run_trial(config, n, n_index, trial)``, reads the smallest eigenvalue
    of every ``hermitian_eig`` result as ``float(eigenvalues[-1])``, and
    wraps ``LrePlan.__init__``/``solve`` and the public ``qdt_stage1``.
    """

    def test_trial_and_scaling_calls(self, tmp_path):
        params = list(inspect.signature(harness.run_trial).parameters)
        assert params == ["config", "n", "n_index", "trial"]
        for task, target in (("qst", "qst-rank1-8d"), ("qdt", "qdt-three-valued")):
            grid = (1000, 4000, 16000)
            cfg = ExperimentConfig(task, "adaptive", target, grid, 2, seed=5)
            metrics = harness.run_trial(cfg, cfg.n_grid[0], 0, 0)
            names = {"infidelity", "infidelity_dp", "mse", "tail_eigensum"}
            assert names <= set(metrics)
            assert all(isinstance(v, (float, tuple)) for v in metrics.values())
            result = harness.run_scaling(cfg, workers=1)
            assert isinstance(result.slope, float)
            assert sum(row.excluded_trials for row in result.rows) == 0
            assert max(result.extras["max_constraint_dev"]) < 1e-8
            csv_path, _ = emit_results(result, str(tmp_path / task), "both")
            assert csv_path.endswith(".csv")

    def test_traced_library_names(self):
        from aqtomo import estimators, linalg
        from aqtomo.measurement import pauli_cube

        eig = linalg.hermitian_eig(np.diag([2.0, -1.0, 0.5]).astype(complex))
        assert eig.eigenvalues.shape == (3,)
        assert float(eig.eigenvalues[-1]) == -1.0
        assert list(inspect.signature(linalg.inv_sqrt).parameters) == ["m", "clamp"]
        plan = estimators.LrePlan(pauli_cube(1), True)
        assert list(inspect.signature(estimators.LrePlan.solve).parameters) == [
            "self", "freqs", "trace_value"
        ]
        assert plan.solve.__func__ is estimators.LrePlan.solve
        stage1 = vars(estimators)["qdt_stage1"]
        assert callable(stage1) and stage1.__module__ == estimators.__name__


class TestTrialExclusion:
    """Which trial errors exclude the trial and which abort the run."""

    CFG = ExperimentConfig("qst", "adaptive", "qst-rank1-8d", (1000,), 1, seed=3)

    @staticmethod
    def _fail_with(monkeypatch, exc):
        def trial(ctx, config, n, gen):
            raise exc

        monkeypatch.setitem(harness._TRIALS, "qst", trial)

    @pytest.mark.parametrize(
        "exc",
        [
            EstimationError("every adaptive-step outcome fell in the null bin"),
            InformationIncompleteError("design rank 15 < 16"),
            np.linalg.LinAlgError("Eigenvalues did not converge"),
        ],
        ids=["estimation", "incomplete", "linalg"],
    )
    def test_excluded_with_one_greppable_warning(self, monkeypatch, caplog, exc):
        self._fail_with(monkeypatch, exc)
        with caplog.at_level(logging.WARNING, logger=harness.__name__):
            assert harness.run_trial(self.CFG, 1000, 0, 7) is None
        messages = [record.getMessage() for record in caplog.records]
        assert messages == [f"excluding trial=7 N=1000 reason={exc}"]

    @pytest.mark.parametrize(
        "exc",
        [NotPSDError("density matrix eigenvalue -1e-3 < 0"), ValueError("bad input")],
        ids=["not-psd", "value"],
    )
    def test_other_errors_abort(self, monkeypatch, caplog, exc):
        self._fail_with(monkeypatch, exc)
        with pytest.raises(type(exc)):
            harness.run_trial(self.CFG, 1000, 0, 7)
        assert not caplog.records


class TestIo:
    def test_csv_roundtrip(self, small_result, tmp_path):
        path = str(tmp_path / "out.csv")
        write_csv(small_result, path)
        with open(path) as fh:
            assert fh.readline().strip() == CSV_HEADER
        rows = read_result_csv(path)
        assert len(rows) == 3
        for parsed, row in zip(rows, small_result.rows):
            assert parsed["N"] == row.n
            assert parsed["mean_infidelity"] == row.mean_infidelity  # exact
            assert parsed["gm_bound"] == row.gm_bound
            assert parsed["task"] == "qst" and parsed["alpha"] == 0.5

    def test_json_roundtrip(self, small_result, tmp_path):
        path = str(tmp_path / "out.json")
        write_json(small_result, path)
        data = read_result_json(path)
        assert data["slope"] == small_result.slope
        assert data["seed"] == 21
        assert data["config"]["target"] == "qst-rank1-8d"
        assert data["version"]
        assert [r["mean_infidelity"] for r in data["rows"]] == [
            row.mean_infidelity for row in small_result.rows
        ]

    def test_emit_both(self, small_result, tmp_path):
        paths = emit_results(small_result, str(tmp_path / "res"), "both")
        assert sorted(p.split(".")[-1] for p in paths) == ["csv", "json"]

    def test_emit_rejects_unknown_format(self, small_result, tmp_path):
        with pytest.raises(ValueError):
            emit_results(small_result, str(tmp_path / "res"), "xml")

    def test_aapt_json_carries_sigma_series(self, tmp_path):
        cfg = ExperimentConfig(
            task="aapt",
            method="adaptive",
            target="aapt-hadamard",
            n_grid=(400, 1600, 6400),
            repetitions=3,
            seed=5,
        )
        result = run_scaling(cfg)
        path = str(tmp_path / "aapt.json")
        write_json(result, path)
        data = read_result_json(path)
        assert len(data["sigma_out_mean_infidelity"]) == 3
        assert result.sigma_out_slope() < 0


def run_cli(*args, text=True):
    return subprocess.run(
        [sys.executable, "-m", "aqtomo.experiments.cli", *args],
        capture_output=True,
        text=text,
    )


class TestCli:
    def test_targets_listing(self):
        proc = run_cli("targets")
        assert proc.returncode == 0
        assert "qst-rank1-8d" in proc.stdout
        assert "aapt-damping-0.989" in proc.stdout

    def test_run_fit_cycle(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(CONFIG_TEXT.replace("repetitions = 4", "repetitions = 3"))
        out = tmp_path / "res.csv"
        proc = run_cli("run", "--config", str(cfg), "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert out.exists()
        fit = run_cli("fit", str(out))
        assert fit.returncode == 0 and "slope=" in fit.stdout

    def test_run_seed_override_changes_output(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(CONFIG_TEXT.replace("repetitions = 4", "repetitions = 2"))
        a = run_cli("run", "--config", str(cfg))
        b = run_cli("run", "--config", str(cfg), "--seed", "99")
        assert a.returncode == b.returncode == 0
        assert a.stdout != b.stdout

    def test_stdout_csv_equals_out_file(self, tmp_path):
        # a target path with a comma is quoted on stdout as in the file
        target = tmp_path / "a,b.json"
        plus = [[[0.5, 0.0], [0.5, 0.0]], [[0.5, 0.0], [0.5, 0.0]]]
        target.write_text(json.dumps({"task": "qst", "density": plus}))
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            CONFIG_TEXT.replace("qst-rank1-8d", str(target)).replace(
                "repetitions = 4", "repetitions = 2"
            )
        )
        out = tmp_path / "res.csv"
        to_file = run_cli("run", "--config", str(cfg), "--out", str(out))
        to_stdout = run_cli("run", "--config", str(cfg), text=False)
        assert to_file.returncode == to_stdout.returncode == 0, to_stdout.stderr
        assert to_stdout.stdout == out.read_bytes()
        captured = tmp_path / "stdout.csv"
        captured.write_bytes(to_stdout.stdout)
        for path in (out, captured):
            fit = run_cli("fit", str(path))
            assert fit.returncode == 0, fit.stderr
            assert "slope=" in fit.stdout

    def test_selftest(self):
        proc = run_cli("selftest")
        assert proc.returncode == 0
        assert "all checks passed" in proc.stdout


# SHA-256 of the CSV that each small seeded config writes.  The digests pin
# the exact numbers of the sampling, estimation and scoring pipeline: a change
# that reorders random draws or arithmetic shows up here as a changed digest.
GOLDEN_CSV_SHA256 = {
    ("qst", "qst-rank1-8d", "adaptive"):
        "e9a20c8a0625d44cc0754cf9be138c473e109308121ba335d64a6a1d6f4b7995",
    ("qst", "qst-rank1-8d", "static"):
        "b53ac1e7eadb10caaeb0d47af598a99cbf80aa81725f7521719869173ed5e747",
    ("qdt", "qdt-three-valued", "adaptive"):
        "37576fb8413b7763057a3823d6499fa844380956ce0f780e567d9538536634f5",
    ("qdt", "qdt-three-valued", "static"):
        "e16095341580efe5c873ef295f2ae4a6a958289efc16c071c53975f09fa8c2a9",
    ("aapt", "aapt-hadamard", "adaptive"):
        "4a7022ed84b96c90aa015d879add6d32b7f6632c0f30b872a34035c89f9657e9",
    ("aapt", "aapt-hadamard", "static"):
        "367f763a57d693d44de75ebca5b0458093845df2ccd34991ac561740910a945e",
    ("aapt", "aapt-damping-third", "adaptive"):
        "a604f79561a38ccf85d1487ae3dcee18557418142f5d4e1512d49240ef0e0fc1",
    ("aapt", "aapt-damping-third", "static"):
        "ceb1e04a034a41be487251335bc5efc3cce7aaf79f5ba3f70ab3bff9238395c9",
}


# SHA-256 of the JSON report of the same configs.  The JSON also carries what
# the CSV does not: the AAPT output-state infidelity series and the QDT
# per-element means.
GOLDEN_JSON_SHA256 = {
    ("qst", "qst-rank1-8d", "adaptive"):
        "6dd190f1afa85be0ab55cab86fcf030af6bc738ae1964057c35714c9a43f6787",
    ("qst", "qst-rank1-8d", "static"):
        "9f4b6f91d60f7444b49da1f2590757a49b6c5a8b7e4e59833e30207319a23439",
    ("qdt", "qdt-three-valued", "adaptive"):
        "99aa8b351f1c22c5cc91329a025a3dbedef07d9acbff48714612dcfdcabe67a9",
    ("qdt", "qdt-three-valued", "static"):
        "06b0db9716b3933354da5ef1001968aa3b53621c1e9fde98ba16f362979bc23e",
    ("aapt", "aapt-hadamard", "adaptive"):
        "9bd2ff0a7b97c778dd7995db7d1ce1f92439580750319938316f0437da775065",
    ("aapt", "aapt-hadamard", "static"):
        "1d2e41640e85c59869d46a87731ae36f49ce7056a9de8619cb39f3581325922a",
    ("aapt", "aapt-damping-third", "adaptive"):
        "e61596f35c9dd321870a5bafc48d0cb7ec8ae5be3ea710d9980342d7edf0ec9b",
    ("aapt", "aapt-damping-third", "static"):
        "3047e717c16142d9279665c580b567c756d2cfe1058a279b2f1ddedfa7bafbd8",
}


def _golden_run(task, target, method):
    return run_scaling(
        ExperimentConfig(task, method, target, (300, 1000, 3000), 3, seed=11)
    )


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@pytest.mark.parametrize("task,target,method", sorted(GOLDEN_CSV_SHA256))
def test_golden_csv_digest(task, target, method, tmp_path):
    path = write_csv(_golden_run(task, target, method), str(tmp_path / "out.csv"))
    assert _sha256(path) == GOLDEN_CSV_SHA256[(task, target, method)]


@pytest.mark.parametrize("task,target,method", sorted(GOLDEN_JSON_SHA256))
def test_golden_json_digest(task, target, method, tmp_path):
    path = write_json(_golden_run(task, target, method), str(tmp_path / "out.json"))
    assert _sha256(path) == GOLDEN_JSON_SHA256[(task, target, method)]
