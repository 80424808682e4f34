import hashlib
import inspect
import json
import logging
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

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
from aqtomo.experiments import harness, targets
from aqtomo.experiments.config import METHODS, TASKS
from aqtomo.experiments.io import CSV_HEADER, result_to_dict, write_csv, write_json
from aqtomo.experiments.targets import (
    AaptTarget,
    QdtTarget,
    QstTarget,
    load_target,
)
from aqtomo.fidelity import FidelityScenario, Truth
from aqtomo.linalg import DimensionError, NotPSDError
from aqtomo.measurement import PauliCube
from aqtomo.quantum_objects import DegenerateInputError

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# child interpreters import the package from this checkout, as the tests do
CHILD_ENV = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))

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

    def test_bracketed_grid_and_bool(self):
        cfg = parse_config(
            "task = aapt\nmethod = static\ntarget = aapt-damping-third\n"
            "n_grid = [100, 200]\nrepetitions = 2\n"
        )
        assert cfg.n_grid == (100, 200)

    def test_tp_flag_is_unknown_key(self):
        # AAPT reads trace preservation from the target's channel
        text = CONFIG_TEXT.replace("task = qst", "task = aapt").replace(
            "qst-rank1-8d", "aapt-hadamard"
        )
        with pytest.raises(ValueError, match="unknown key 'tp_flag'"):
            parse_config(text + "tp_flag = true\n")
        with pytest.raises(TypeError, match="tp_flag"):
            ExperimentConfig("aapt", "adaptive", "aapt-hadamard", (100,), 1, tp_flag=True)

    @pytest.mark.parametrize("task", ["qst", "qdt"])
    def test_tp_flag_only_for_aapt(self, task):
        # no task takes the setting, so a qst or qdt config cannot set it either
        with pytest.raises(TypeError, match="tp_flag"):
            ExperimentConfig(task, "adaptive", "qst-rank1-8d", (100,), 1, tp_flag=True)
        text = CONFIG_TEXT.replace("task = qst", f"task = {task}")
        with pytest.raises(ValueError, match="unknown key 'tp_flag'"):
            parse_config(text + "tp_flag = true\n")

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

    @pytest.mark.parametrize(
        "name, cls, task",
        [
            ("qst-rank1-8d", QstTarget, "qst"),
            ("qdt-three-valued", QdtTarget, "qdt"),
            ("aapt-hadamard", AaptTarget, "aapt"),
        ],
    )
    def test_expected_task(self, name, cls, task):
        target = builtin_target(name)
        assert isinstance(target, cls) and cls.task == task
        assert target.task == task

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
        assert target.ranks[:2] == (1, 1)

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

    def test_load_detector_file_and_name_a_missing_key(self, tmp_path):
        path = tmp_path / "detector.json"
        z0 = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
        z1 = [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
        path.write_text(json.dumps({"task": "qdt", "name": "z", "elements": [z0, z1]}))
        target = load_target(str(path))
        assert isinstance(target, QdtTarget) and target.name == "z"
        assert np.array_equal(target.povm.elements, [np.diag([1, 0]), np.diag([0, 1])])
        for task, key in (("qst", "density"), ("qdt", "elements"), ("aapt", "kraus")):
            path.write_text(json.dumps({"task": task}))
            with pytest.raises(ValueError, match=f"{task} target file .* '{key}'"):
                load_target(str(path))

    def test_resolve_rejects_missing_file(self):
        with pytest.raises(FileNotFoundError):
            resolve_target("nope/missing.json")


# SHA-256 of each built-in target's name and defining arrays (rho for QST,
# the element stack for QDT, the Kraus operators and the input amplitudes for
# AAPT), each array with its shape, at three target seeds.  A change to how a
# target is built or seeded shows up here as a changed digest.
BUILTIN_TARGET_SHA256 = {
    ("qst-rank1-8d", 0):
        "b5ee78b9f7c1dfa9d3dac5c5322475043f222aab7d2db81948fc51cde6fb1bb1",
    ("qst-rank1-8d", 11):
        "7e463136f60397be3fae54ef872ffc04ebeb39343f14fb139165eedd7bb921c8",
    ("qst-rank1-8d", targets.DEFAULT_TARGET_SEED):
        "5c9a481f5b1cb1c9fb09ee0300a0b0df9a9686976baac22da8042886ecc58ff1",
    ("qst-rank1-64d", 0):
        "455dbf76acbbbc465039310701f663ead446d72a209d754f5eaa235a5c87812b",
    ("qst-rank1-64d", 11):
        "20427238e6905c90ee982b89f765b59d1bbb6f14112a70798cd2aa99fbf6466f",
    ("qst-rank1-64d", targets.DEFAULT_TARGET_SEED):
        "7fc7517f0e4918b8bfee42e86f3d0190cdf7cb167e0613ec97bb6c3dc66840cd",
    ("qst-rank1-256d", 0):
        "517f772ed9e11fba2c4a0aae9913fdcfaf14d77c5e4fd6f0da3c19bc2708bb53",
    ("qst-rank1-256d", 11):
        "9731aa15e17951737de7727cb7a970e74b4cffdce73b2b53ce0b2f5caca391c1",
    ("qst-rank1-256d", targets.DEFAULT_TARGET_SEED):
        "6de08f3a7324a43b0e9c259964e5d64785a122a0a94335e1ee5ae7f6f7aa36c5",
    ("qst-rank2-8d", 0):
        "413e7a4a18c8ad6c146fa9c838b69aa93246958f113f3fee6120eb60c2ee1a4a",
    ("qst-rank2-8d", 11):
        "d33d19443918d98a765562948a4c31d7483854499f0ca39ce4cc68d0d3d6f668",
    ("qst-rank2-8d", targets.DEFAULT_TARGET_SEED):
        "4e9770d33a78739ae859e1e85aa661bb93089f7a6a9ffa6ce6c40dbdf6bb698b",
    ("qst-rank4-8d", 0):
        "df5e0cdf61a7a8e1c29e4eb7977a456c8626f1d51ed015a5d2dcde8834ac6d61",
    ("qst-rank4-8d", 11):
        "2958606346f3927a5b5e38e950e45b58dbbd67db03cda226cd53d31802318450",
    ("qst-rank4-8d", targets.DEFAULT_TARGET_SEED):
        "f064d561d32f6bb39642894ac7c6d19003aa14d7ec352ae4a8eed72a872943d7",
    ("qst-rank2-degenerate", 0):
        "baf9e9f5f9f148497f685aff8c3c7984e6d5e59c9bec72acb9372175b196d6fd",
    ("qst-rank2-degenerate", 11):
        "414a2d5aeec9f87dc0b63a3340a13c943dfab2385aacb2d663f62e60c98e12d1",
    ("qst-rank2-degenerate", targets.DEFAULT_TARGET_SEED):
        "3f55c5cb19eea1e93849933fa1a992eab8868f09cdc73620225fb673234e6a00",
    ("qdt-three-valued", 0):
        "98604ec1b5371f9536033295ac3b2f5d0bc6607e75bd5407d8923c2919d03058",
    ("qdt-three-valued", 11):
        "4d4a8e5f52d4be7e1b0d3c7d36cac2503ba4fa04b07f01fec32eba8a81596605",
    ("qdt-three-valued", targets.DEFAULT_TARGET_SEED):
        "196587ff5eb6f9de13ff128bc78b94d4cea3cc8b08f3d6a31dad920b3ee17122",
    ("qdt-three-valued-8d", 0):
        "1fa8120603d7934f61e9ba3e9b527f9c87fcc339abae03ca5426013f70461794",
    ("qdt-three-valued-8d", 11):
        "73655aed9f12af7e547d4350b9e36f0abf52d7bdecdffae90f6578b1cf38186f",
    ("qdt-three-valued-8d", targets.DEFAULT_TARGET_SEED):
        "1b4ea27e1b4b30b688535267d3703c69bc5eb4446d82c05202162d66b069f49a",
    ("qdt-three-valued-16d", 0):
        "58c09c4e4dcfc585dc65bdcc8669896a46aee1b2bb31cba41039c763763625d3",
    ("qdt-three-valued-16d", 11):
        "2c9f18bb24171428929fcc656751d6d9b22f2c5cbf4d9170989196d5ce0da228",
    ("qdt-three-valued-16d", targets.DEFAULT_TARGET_SEED):
        "8edef6411c49cbe117e9ccf2883b7261ebc57cbe40c40d68dd68fc61e73c0a01",
    ("aapt-hadamard", 0):
        "53c3dd961c7fc69391a0f32bcde2d917c9cdd9c2f2b50756ed040a6405247084",
    ("aapt-hadamard", 11):
        "53c3dd961c7fc69391a0f32bcde2d917c9cdd9c2f2b50756ed040a6405247084",
    ("aapt-hadamard", targets.DEFAULT_TARGET_SEED):
        "53c3dd961c7fc69391a0f32bcde2d917c9cdd9c2f2b50756ed040a6405247084",
    ("aapt-damping-0.989", 0):
        "72003133a6f416f0665538628b9b3bb29f50f1b060273f08c911336b31f8663a",
    ("aapt-damping-0.989", 11):
        "72003133a6f416f0665538628b9b3bb29f50f1b060273f08c911336b31f8663a",
    ("aapt-damping-0.989", targets.DEFAULT_TARGET_SEED):
        "72003133a6f416f0665538628b9b3bb29f50f1b060273f08c911336b31f8663a",
    ("aapt-damping-third", 0):
        "d89db8b3c7748f81750735df4be749e1f0d01878dd8e2a81939784a46c162a18",
    ("aapt-damping-third", 11):
        "4d833b071477418d88d6682dc8b511ecf07ba20820030da072a66a7238ab47dd",
    ("aapt-damping-third", targets.DEFAULT_TARGET_SEED):
        "599e3848e67e44927eb8dd0a2cdb6ecd086b16af52bb08031b733a028ec0f912",
    ("aapt-toffoli", 0):
        "7f0f87680d3c29743a8960333189859b14b233e527edf572d2e16ddac6718360",
    ("aapt-toffoli", 11):
        "7f0f87680d3c29743a8960333189859b14b233e527edf572d2e16ddac6718360",
    ("aapt-toffoli", targets.DEFAULT_TARGET_SEED):
        "7f0f87680d3c29743a8960333189859b14b233e527edf572d2e16ddac6718360",
}


def _target_arrays(target):
    if target.task == "qst":
        return [target.rho.mat]
    if target.task == "qdt":
        return [target.povm.elements]
    return [*target.channel.operators, target.input_state.amplitudes]


@pytest.mark.parametrize("name,seed", list(BUILTIN_TARGET_SHA256))
def test_builtin_target_digest(name, seed):
    target = builtin_target(name, seed)
    digest = hashlib.sha256(target.name.encode())
    for arr in _target_arrays(target):
        arr = np.ascontiguousarray(arr, dtype=complex)
        digest.update(repr(arr.shape).encode())
        digest.update(arr.tobytes())
    assert digest.hexdigest() == BUILTIN_TARGET_SHA256[(name, seed)]


def test_every_builtin_target_is_pinned():
    assert {name for name, _ in BUILTIN_TARGET_SHA256} == set(BUILTIN_TARGET_NAMES)


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

    def test_tp_flag_contradiction(self, monkeypatch):
        # a config cannot contradict the channel: every AAPT trial takes trace
        # preservation from the target, and a config that sets it is refused
        seen = []
        # position of tp_flag among the positional arguments
        for name, at in [("adaptive_aapt", 3), ("nonadaptive_aapt", 2)]:
            real = getattr(harness, name)

            def record(*args, _real=real, _at=at, **kwargs):
                seen.append(args[_at])
                return _real(*args, **kwargs)

            monkeypatch.setattr(harness, name, record)
        for target, tp in [("aapt-hadamard", True), ("aapt-damping-third", False)]:
            assert builtin_target(target).channel.tp_flag is tp
            for method in ("adaptive", "static"):
                seen.clear()
                cfg = ExperimentConfig("aapt", method, target, (1000, 2000, 4000), 2)
                assert harness.run_trial(cfg, 1000, 1, 0) is not None
                assert seen == [tp]
            text = (
                f"task = aapt\nmethod = adaptive\ntarget = {target}\n"
                f"n_grid = 1000, 2000, 4000\nrepetitions = 2\n"
                f"tp_flag = {str(not tp).lower()}\n"
            )
            with pytest.raises(ValueError, match="unknown key 'tp_flag'"):
                parse_config(text)

    def test_short_grid_fails_before_any_trial(self, monkeypatch):
        calls = []
        monkeypatch.setattr(harness, "run_trial", lambda *job: calls.append(job))
        cfg = ExperimentConfig("qst", "adaptive", "qst-rank1-8d", (1000, 2000), 50)
        with pytest.raises(ValueError, match="at least 3 rows"):
            run_scaling(cfg)
        assert calls == []

    def test_no_pauli_cube_fails_before_any_trial(self, monkeypatch, tmp_path):
        calls = []
        monkeypatch.setattr(harness, "run_trial", lambda *job: calls.append(job))
        third = [[[1 / 3 if i == j else 0.0, 0.0] for j in range(3)] for i in range(3)]
        eye3 = [[[1.0 if i == j else 0.0, 0.0] for j in range(3)] for i in range(3)]
        specs = {
            "qst-3": {"task": "qst", "density": third},  # d = 3
            "qst-1": {"task": "qst", "density": [[[1.0, 0.0]]]},  # d = 1
            "aapt-9": {"task": "aapt", "kraus": [eye3]},  # d_out = 9
        }
        for key, spec in specs.items():
            path = tmp_path / f"{key}.json"
            path.write_text(json.dumps(spec))
            cfg = ExperimentConfig(
                spec["task"], "adaptive", str(path), (1000, 2000, 4000), 5
            )
            with pytest.raises(DimensionError, match="no Pauli cube"):
                run_scaling(cfg)
        assert calls == []

    @pytest.mark.parametrize(
        "amplitudes,error",
        [
            ([[1 / np.sqrt(8), 0.0]] * 8, DimensionError),  # ancilla of dimension 4
            ([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]], DegenerateInputError),
        ],
        ids=["ancilla-dimension", "product-input"],
    )
    def test_bad_aapt_input_fails_before_any_trial(
        self, monkeypatch, tmp_path, amplitudes, error
    ):
        calls = []
        monkeypatch.setattr(harness, "run_trial", lambda *job: calls.append(job))
        eye = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
        path = tmp_path / "chan.json"
        path.write_text(
            json.dumps({"task": "aapt", "kraus": [eye], "input_amplitudes": amplitudes})
        )
        cfg = ExperimentConfig("aapt", "adaptive", str(path), (1000, 2000, 4000), 5)
        with pytest.raises(error):
            run_scaling(cfg)
        assert calls == []

    def test_pool_capped_at_cores_and_jobs(self, monkeypatch):
        # a fake pool that records its size and maps in this process
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables, chunksize=1):
                return map(fn, *iterables)

        monkeypatch.setattr(harness.futures, "ProcessPoolExecutor", SerialPool)
        cfg = ExperimentConfig(
            "qst", "adaptive", "qst-rank1-8d", (1000, 4000, 16000), 1, seed=8
        )
        serial = run_scaling(cfg, workers=1)
        assert run_scaling(cfg, workers=10_000).rows == serial.rows
        assert all(size <= min(os.cpu_count() or 1, 3) for size in sizes)

    def test_process_matrix_built_once_per_target(self, monkeypatch):
        original, built = targets.kraus_to_process, []

        def counting(channel):
            built.append(channel)
            return original(channel)

        monkeypatch.setattr(targets, "kraus_to_process", counting)
        harness._context.cache_clear()
        try:
            for method in ("adaptive", "static"):
                cfg = ExperimentConfig(
                    "aapt", method, "aapt-hadamard", (400, 1600, 6400), 3, seed=5
                )
                run_scaling(cfg)
        finally:
            harness._context.cache_clear()
        assert len(built) == 2  # one target object per config

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
        for task, target in (
            ("qst", "qst-rank1-8d"),
            ("qdt", "qdt-three-valued"),
            ("aapt", "aapt-hadamard"),
        ):
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
        assert list(inspect.signature(linalg.inv_sqrt).parameters) == ["m"]
        plan = estimators.LrePlan(pauli_cube(1), True)
        assert list(inspect.signature(estimators.LrePlan.solve).parameters) == [
            "self", "freqs", "trace_value"
        ]
        assert plan.solve.__func__ is estimators.LrePlan.solve
        stage1 = vars(estimators)["qdt_stage1"]
        assert callable(stage1) and stage1.__module__ == estimators.__name__


class TestScoringSolves:
    """A scored estimate costs one ``eigvalsh``: the truth is rooted once per
    target and the estimate's spectrum comes from its validation."""

    @staticmethod
    def _count(monkeypatch, counts, inside=None):
        for name in ("eigh", "eigvalsh"):
            original = getattr(np.linalg, name)

            def counting(*args, _name=name, _original=original, **kwargs):
                if inside is None or inside:
                    counts[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counting)

    def test_adaptive_qst_trial(self, monkeypatch):
        cfg = ExperimentConfig(
            "qst", "adaptive", "qst-rank1-8d", (1000, 4000, 16000), 2
        )
        harness.run_trial(cfg, 4000, 1, 0)  # builds the target's constants
        counts = {"eigh": 0, "eigvalsh": 0}
        self._count(monkeypatch, counts)
        assert harness.run_trial(cfg, 4000, 1, 1) is not None
        # the protocol's eigenbasis, the estimate's validation, the overlap
        assert counts == {"eigh": 1, "eigvalsh": 2}

    def test_static_qst_trial(self, monkeypatch):
        cfg = ExperimentConfig("qst", "static", "qst-rank1-8d", (1000, 4000, 16000), 2)
        harness.run_trial(cfg, 4000, 1, 0)
        counts = {"eigh": 0, "eigvalsh": 0}
        self._count(monkeypatch, counts)
        assert harness.run_trial(cfg, 4000, 1, 1) is not None
        # the projection's eigenbasis, the estimate's validation, the overlap
        assert counts == {"eigh": 1, "eigvalsh": 2}

    def test_adaptive_aapt_scoring_takes_no_eigh(self, monkeypatch):
        cfg = ExperimentConfig(
            "aapt", "adaptive", "aapt-hadamard", (400, 1600, 6400), 2
        )
        harness.run_trial(cfg, 1600, 1, 0)
        counts, inside = {"eigh": 0, "eigvalsh": 0}, []
        self._count(monkeypatch, counts, inside)
        for name in ("_score", "rooted_fidelity_and_dp"):
            original = getattr(harness, name)

            def scoring(*args, _original=original):
                inside.append(True)
                try:
                    return _original(*args)
                finally:
                    inside.pop()

            monkeypatch.setattr(harness, name, scoring)
        assert harness.run_trial(cfg, 1600, 1, 1) is not None
        # one overlap of the process matrix and one of the output state
        assert counts == {"eigh": 0, "eigvalsh": 2}

    def test_non_tp_aapt_trial_reads_the_validated_partial_trace(self, monkeypatch):
        cfg = ExperimentConfig(
            "aapt", "adaptive", "aapt-damping-third", (400, 1600, 6400), 2
        )
        harness.run_trial(cfg, 1600, 1, 0)
        counts = {"eigh": 0, "eigvalsh": 0}
        self._count(monkeypatch, counts)
        assert harness.run_trial(cfg, 1600, 1, 1) is not None
        # validation of the output state and of the process matrix with its
        # partial trace, then one overlap each; constraint_dev solves nothing
        assert counts["eigvalsh"] == 5

    @pytest.mark.parametrize("method,eigh", [("adaptive", 4), ("static", 2)])
    def test_qdt_trial(self, monkeypatch, method, eigh):
        cfg = ExperimentConfig(
            "qdt", method, "qdt-three-valued", (1000, 4000, 16000), 2
        )
        harness.run_trial(cfg, 4000, 1, 0)
        counts = {"eigh": 0, "eigvalsh": 0}
        self._count(monkeypatch, counts)
        assert harness.run_trial(cfg, 4000, 1, 1) is not None
        # each step: one stacked PSD projection or eigenbasis solve, and one
        # inv_sqrt; then the estimate's validation and one stacked overlap
        assert counts == {"eigh": eigh, "eigvalsh": 2}


class TestMetricArithmetic:
    """The scorer's MSE and tail sum equal their numpy formulas bit for bit,
    and a stack's equal its rows' values summed in order from 0.0."""

    @pytest.mark.parametrize("d", [2, 4, 8, 16, 64])
    def test_mse_is_the_squared_norm(self, d):
        gen = np.random.default_rng(d)
        ranks = (1, d // 2, d)
        re, im = gen.standard_normal((2, 2, 3, d, d))
        hat, true = (m @ m.conj().swapaxes(1, 2) for m in re + 1j * im)  # PSD
        eigs = np.linalg.eigvalsh(hat)
        scenario = FidelityScenario("pseudo_state")
        stacked = harness._score(hat, eigs, Truth.of(true, scenario), ranks, 0.0)
        mse = tail = 0.0
        for j, rank in enumerate(ranks):
            truth = Truth.of(true[j], scenario)
            metrics = harness._score(hat[j], eigs[j], truth, (rank,), 0.0)
            assert metrics["mse"] == float(np.linalg.norm(hat[j] - true[j]) ** 2)
            assert metrics["tail_eigensum"] == float(np.sum(eigs[j][::-1][rank:]))
            mse += metrics["mse"]
            tail += metrics["tail_eigensum"]
        assert stacked["mse"] == mse and stacked["tail_eigensum"] == tail


class TestOneTrial:
    """One trial function runs every (task, method) protocol and reduces a
    detector's rows in element order."""

    PROTOCOLS = {
        ("qst", "adaptive"): ("adaptive_qst", "qst-rank1-8d"),
        ("qst", "static"): ("static_qst", "qst-rank1-8d"),
        ("qdt", "adaptive"): ("adaptive_qdt", "qdt-three-valued"),
        ("qdt", "static"): ("static_qdt", "qdt-three-valued"),
        ("aapt", "adaptive"): ("adaptive_aapt", "aapt-hadamard"),
        ("aapt", "static"): ("nonadaptive_aapt", "aapt-hadamard"),
    }

    def test_table_covers_every_task_and_method(self):
        pairs = {(task, method) for task in TASKS for method in METHODS}
        assert set(harness._PROTOCOLS) == pairs == set(self.PROTOCOLS)

    @pytest.mark.parametrize("task,method", sorted(PROTOCOLS))
    def test_trial_calls_the_rebound_protocol_name(self, monkeypatch, task, method):
        # a tracer rebinds the harness's names; the table must look them up
        calls = {name: 0 for name, _ in self.PROTOCOLS.values()}
        for name in calls:
            original = getattr(harness, name)

            def counting(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(harness, name, counting)
        name, target = self.PROTOCOLS[task, method]
        cfg = ExperimentConfig(task, method, target, (1000, 4000, 16000), 2)
        assert harness.run_trial(cfg, 4000, 1, 0) is not None
        assert calls == {other: int(other == name) for other in calls}

    def test_rows_are_summed_in_order_from_zero(self, monkeypatch):
        # 1.0 + 2**-53 + 2**-53 rounds to 1.0 at each step; math.fsum (and a
        # compensated sum()) would give (1 + 2**-52) / 3 instead
        near_one = 1.0 - 2.0**-53
        f = np.array([0.0, near_one, near_one])
        monkeypatch.setattr(harness, "rooted_fidelity_and_dp", lambda *a: (f, f))
        cfg = ExperimentConfig("qdt", "adaptive", "qdt-three-valued", (1000,), 1)
        metrics = harness.run_trial(cfg, 4000, 0, 0)
        assert metrics["element_infidelities"] == (1.0, 2.0**-53, 2.0**-53)
        assert metrics["infidelity"] == 1.0 / 3
        assert metrics["infidelity_dp"] == 1.0 / 3


class TestStackedDetectorTrial:
    """A detector trial inverts its K click tables in one stacked call."""

    @pytest.mark.parametrize("method", ["adaptive", "static"])
    def test_one_cube_inversion_per_trial(self, monkeypatch, method):
        cfg = ExperimentConfig(
            "qdt", method, "qdt-three-valued", (1000, 4000, 16000), 2
        )
        harness.run_trial(cfg, 4000, 1, 0)
        shapes = []
        original = PauliCube.invert

        def counted(self, values):
            shapes.append(np.shape(values))
            return original(self, values)

        monkeypatch.setattr(PauliCube, "invert", counted)
        assert harness.run_trial(cfg, 4000, 1, 1) is not None
        assert shapes == [(3, 9, 4)]  # K = 3 elements, 3^2 settings, 2^2 outcomes


class TestAaptKernels:
    """An AAPT trial reuses its input's inverse probe and builds every
    ``I (x) M`` correction without ``numpy.kron``."""

    @pytest.mark.parametrize("target", ["aapt-hadamard", "aapt-damping-third"])
    def test_trials_call_no_numpy_kron(self, monkeypatch, target):
        cfgs = [
            ExperimentConfig("aapt", method, target, (400, 1600, 6400), 2)
            for method in ("adaptive", "static")
        ]
        for cfg in cfgs:
            harness.run_trial(cfg, 1600, 1, 0)  # builds the target's constants
        calls, original = [], np.kron

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(np, "kron", counting)
        for cfg in cfgs:
            assert harness.run_trial(cfg, 1600, 1, 1) is not None
        assert calls == []


class TestImports:
    def test_harness_imports_neither_pool_nor_metadata(self):
        code = (
            "import sys, aqtomo.experiments.harness; "
            "print(sorted({'concurrent.futures.process', 'importlib.metadata'} "
            "& set(sys.modules)))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env=CHILD_ENV,
        )
        assert proc.stdout.strip() == "[]"

    def test_version_matches_pyproject(self):
        tomllib = pytest.importorskip("tomllib")
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(root, "pyproject.toml"), "rb") as fh:
            project = tomllib.load(fh)["project"]
        assert harness.VERSION == project["version"]


class TestTrialExclusion:
    """Which trial errors exclude the trial and which abort the run."""

    CFG = ExperimentConfig("qst", "adaptive", "qst-rank1-8d", (1000,), 1, seed=3)

    @staticmethod
    def _fail_with(monkeypatch, exc):
        def trial(ctx, config, n, gen):
            raise exc

        monkeypatch.setitem(harness._PROTOCOLS, ("qst", "adaptive"), trial)

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

    @pytest.mark.parametrize("alpha, n, trial", [(0.5, 100, 0), (0.99, 3000, 3)])
    def test_qdt_element_with_no_step2_click_is_excluded(self, alpha, n, trial):
        # seeded trials where an element never clicks on its own adaptive
        # probes: its zero estimate cannot be scored (or, with two of them,
        # makes the renormalization singular), so the trial is excluded
        grid = (100, 101, 102)
        cfg = ExperimentConfig(
            "qdt", "adaptive", "qdt-three-valued", grid, 3, alpha=alpha, seed=2
        )
        assert harness.run_trial(cfg, n, 0, trial) is None

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

    def test_singular_tp_correction_is_excluded(self, caplog):
        # Tr_1 of the pulled-back estimate has an eigenvalue at roundoff in
        # trials 14 and 15, so the TP correction has no inverse square root
        cfg = ExperimentConfig(
            "aapt", "adaptive", "aapt-damping-0.989", (10, 20, 30), 20, alpha=0.99, seed=2
        )
        with caplog.at_level(logging.WARNING, logger=harness.__name__):
            assert [harness.run_trial(cfg, 10, 0, t) for t in (14, 15)] == [None, None]
        messages = [record.getMessage() for record in caplog.records]
        assert len(messages) == 2
        assert all("reason=inv_sqrt: eigenvalue" in m for m in messages)
        assert [row.excluded_trials for row in run_scaling(cfg).rows] == [2, 0, 0]


class TestTrialProperty:
    """Any budget and split: a trial is excluded, or its estimate is physical."""

    TARGETS = {
        "qst": ("qst-rank1-8d", "qst-rank2-8d"),
        "qdt": ("qdt-three-valued",),
        "aapt": ("aapt-hadamard", "aapt-damping-0.989", "aapt-damping-third"),
    }
    CASES = [
        (task, method, target)
        for task, names in TARGETS.items()
        for method in METHODS
        for target in names
    ]

    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from(CASES),
        st.integers(10, 1000),
        st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        st.integers(0, 2**16),
        st.integers(0, 63),
    )
    @example(("aapt", "adaptive", "aapt-damping-0.989"), 10, 0.99, 2, 14)
    @example(("qdt", "static", "qdt-three-valued"), 36, 0.5, 1, 1)
    def test_excluded_or_physical(self, case, n, alpha, seed, trial):
        assume(1 <= math.floor(alpha * n) < n)
        cfg = ExperimentConfig(*case, (n,), trial + 1, alpha=alpha, seed=seed)
        metrics = harness.run_trial(cfg, n, 0, trial)
        if metrics is not None:
            values = np.concatenate([np.ravel(v) for v in metrics.values()])
            assert np.isfinite(values).all()
            assert metrics["constraint_dev"] <= 1e-8


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

    def test_cells_follow_the_column_types(self, tmp_path):
        # a float column prints float(x) to 17 digits whatever the value's
        # type; gm_bound alone may be empty, and it reads back as None
        cfg = ExperimentConfig(
            "qdt", "static", "qdt-three-valued", (10, 20, 30), 2, alpha=np.float32(0.3)
        )
        row = harness.ScalingRow(
            n=10,
            mean_infidelity=np.float32(0.1),
            std_infidelity=0.0,
            mean_infidelity_dp=1.0,
            mean_mse=2,
            mean_tail_eigensum=0.5,
            gm_bound=None,
            excluded_trials=1,
        )
        path = str(tmp_path / "typed.csv")
        write_csv(harness.ScalingResult(cfg, [row], 0.0, 0.0, 1.0), path)
        with open(path) as fh:
            assert fh.read().splitlines()[1] == (
                "qdt,static,qdt-three-valued,0.30000001192092896,10,2,"
                "0.10000000149011612,0,1,2,0.5,,1"
            )
        (parsed,) = read_result_csv(path)
        assert parsed["gm_bound"] is None and parsed["excluded_trials"] == 1
        assert type(parsed["mean_mse"]) is float and type(parsed["N"]) is int

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
        env=CHILD_ENV,
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
        for check in ("adaptive QST recovers a noiseless state",
                      "adaptive QDT recovers a noiseless POVM"):
            assert f"PASS  {check}" in proc.stdout


# SHA-256 of the CSV that each small seeded config writes.  The digests pin
# the exact numbers of the sampling, estimation and scoring pipeline: a change
# that reorders random draws or arithmetic shows up here as a changed digest.
GOLDEN_CSV_SHA256 = {
    ("qst", "qst-rank1-8d", "adaptive"):
        "8e46a3a0dc87ab74900237b6b0c6a13c0d345fac4f6eca1131532e5fbc68bc05",
    ("qst", "qst-rank1-8d", "static"):
        "7990d0c0f7b6067a7691c257c486497d27f21b06ec889a724cdb7a68d3872816",
    ("qdt", "qdt-three-valued", "adaptive"):
        "d964a05c54e1fee34a58e09bb27e4017bb3ef89762fee81ac79e30c0e896922c",
    ("qdt", "qdt-three-valued", "static"):
        "d897f34aee8967caaf6d9b7d595d7f943f891d6aa6c3fa8fe30143d8c5c379c9",
    ("aapt", "aapt-hadamard", "adaptive"):
        "6e0ae8d1a5af33368ce2c5ea7f092eaaf9e3e7425ad05c59d7266b3d8628d06b",
    ("aapt", "aapt-hadamard", "static"):
        "573aa3741e3071f8cf21f26396b908b3f815cbb3c46774637aa579628a0af5a1",
    ("aapt", "aapt-damping-third", "adaptive"):
        "24f887961a162e6a971432142be11e1f3f502868cf6d0d7ebabd088d376d87b3",
    ("aapt", "aapt-damping-third", "static"):
        "1e7a0a98a262eb6a393d6f0ad025825064752762e509c035679e16a9f8aa2853",
}


# SHA-256 of the JSON report of the same configs.  The JSON also carries what
# the CSV does not: the AAPT output-state infidelity series and the QDT
# per-element means.
GOLDEN_JSON_SHA256 = {
    ("qst", "qst-rank1-8d", "adaptive"):
        "b2a1f3ccc77ebf306d2d5b3645000e1620c69fe1b5cd8180792652826f3d84fa",
    ("qst", "qst-rank1-8d", "static"):
        "9cded303bbe79a84d6d3dbe595eb10518e312365d3d122934eb256c6ed57d412",
    ("qdt", "qdt-three-valued", "adaptive"):
        "5d66bc71b35a1ae75b89538d62aa18afb26518928910dbea11de8de7b5fd3c47",
    ("qdt", "qdt-three-valued", "static"):
        "fe1407a2777ec7352fe5c1ce8448c97a6aea7aa95b9532e3930729ad45fae3c1",
    ("aapt", "aapt-hadamard", "adaptive"):
        "3172b15c405cd05512c761ddbd5a9d8c46a2f009d46536cfae8044c29b50f635",
    ("aapt", "aapt-hadamard", "static"):
        "b2842428adaa4e6340e9c35a1b0a873095efdc5f5bc9615ac1ed76fe09001e24",
    ("aapt", "aapt-damping-third", "adaptive"):
        "11823b354697f832b796c6c6d6ec78d9d4dea1865ece9572d2034661ade60236",
    ("aapt", "aapt-damping-third", "static"):
        "efa75f7b847d7cc45aa81cd9ef2746b11b44d3621726f4d294ec25cbe5dc8113",
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


GOLDEN_TRIALS_PATH = os.path.join(os.path.dirname(__file__), "data", "golden_trials.json")


def _golden_trials(task, target, method):
    """Every trial's metric dict of a golden config, ``None`` when excluded,
    in job order (grid point first, then repetition)."""
    cfg = ExperimentConfig(task, method, target, (300, 1000, 3000), 3, seed=11)
    return [
        harness.run_trial(cfg, n, ni, t)
        for ni, n in enumerate(cfg.n_grid)
        for t in range(cfg.repetitions)
    ]


def _write_golden_trials():
    # json writes each float by repr, so the file keeps every bit
    data = {" ".join(key): _golden_trials(*key) for key in sorted(GOLDEN_CSV_SHA256)}
    with open(GOLDEN_TRIALS_PATH, "w") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")


@pytest.mark.parametrize("task,target,method", sorted(GOLDEN_CSV_SHA256))
def test_golden_trial_values(task, target, method):
    """Each trial's metrics match the committed fixture, value by value.

    The digests above pin the per-grid-point reductions; this pins every
    trial's own values, ``constraint_dev`` included.  Regenerate the fixture
    (only with a change that is meant to move the numbers) with::

        PYTHONPATH=src python3 tests/test_experiments.py
    """
    with open(GOLDEN_TRIALS_PATH) as fh:
        expected = json.load(fh)[f"{task} {target} {method}"]
    actual = _golden_trials(task, target, method)
    assert [m is None for m in actual] == [m is None for m in expected]
    for got, want in zip(actual, expected):
        if want is None:
            continue
        assert set(got) == set(want)
        for name, value in want.items():
            # json keeps every bit (repr) and writes a tuple as a list
            got_value = list(got[name]) if isinstance(got[name], tuple) else got[name]
            assert got_value == value, name


if __name__ == "__main__":
    _write_golden_trials()
