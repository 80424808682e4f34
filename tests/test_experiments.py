import hashlib
import json
import subprocess
import sys

import numpy as np
import pytest

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
from aqtomo.experiments.io import CSV_HEADER, write_csv, write_json
from aqtomo.experiments.targets import AaptTarget, QstTarget, load_target

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


class TestTargets:
    def test_builtin_names(self):
        assert set(BUILTIN_TARGET_NAMES) == {
            "qst-rank1-8d",
            "qst-rank2-8d",
            "qst-rank4-8d",
            "qst-rank2-degenerate",
            "qdt-three-valued",
            "aapt-hadamard",
            "aapt-damping-0.989",
            "aapt-damping-third",
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

    def test_worker_count_invariance(self, small_result):
        parallel = run_scaling(small_result.config, workers=2)
        assert parallel.rows == small_result.rows

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


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "aqtomo.experiments.cli", *args],
        capture_output=True,
        text=True,
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

    def test_selftest(self):
        proc = run_cli("selftest")
        assert proc.returncode == 0
        assert "all checks passed" in proc.stdout


# SHA-256 of the CSV that each small seeded config writes.  The digests pin
# the exact numbers of the sampling, estimation and scoring pipeline: a change
# that reorders random draws or arithmetic shows up here as a changed digest.
GOLDEN_CSV_SHA256 = {
    ("qst", "qst-rank1-8d", "adaptive"):
        "7aff86510c195f4ae50703fa9b7eb7e913a9ae065422160237aba53a866b9f93",
    ("qst", "qst-rank1-8d", "static"):
        "146d871b5db9453d7a5b6be2834fff29673074a634ffe760bd0c4bb21277c62c",
    ("qdt", "qdt-three-valued", "adaptive"):
        "319cafbeb975311034594fcb11583889ff7f09a5506b5e369f957033c582a4d1",
    ("qdt", "qdt-three-valued", "static"):
        "6503c56fb532aa46680816647d403e63e7c1ff41cb93d8afdfce4346662bcd7a",
    ("aapt", "aapt-hadamard", "adaptive"):
        "1368afe4877d210d988a43c27edace9ccb5432ca6f192d46300985370d95112f",
    ("aapt", "aapt-hadamard", "static"):
        "b6dfb47f454ba9b87c72db12b6d84547f5a167c4a6169b98747cc0a511186f1d",
    ("aapt", "aapt-damping-third", "adaptive"):
        "bfcaf421786f2965f2bd97fe97efdf112cb133e9828fa2f48228737bc6401315",
    ("aapt", "aapt-damping-third", "static"):
        "addb981b0819bbc6074a887a81798f5e4b4123e9a99f605f3c1138e7770e9d47",
}


@pytest.mark.parametrize("task,target,method", sorted(GOLDEN_CSV_SHA256))
def test_golden_csv_digest(task, target, method, tmp_path):
    cfg = ExperimentConfig(task, method, target, (300, 1000, 3000), 3, seed=11)
    path = write_csv(run_scaling(cfg), str(tmp_path / "out.csv"))
    with open(path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    assert digest == GOLDEN_CSV_SHA256[(task, target, method)]
