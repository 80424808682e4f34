"""Self-tests of the benchmark's own logic.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
The tracing test instruments the imported package for the rest of the
process, so these tests run in their own pytest invocation.
"""

import copy
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(HERE)), "src"))

from checks import check_outputs, percentile, tail_percentile  # noqa: E402
from speedref import NOMINAL_SLICE_S, SpeedRef, normalize  # noqa: E402
from tracing import Tracer, public_functions, self_times  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["root", 0.0, 10.0, -1, None, ""],
        ["a", 1.0, 4.0, 0, None, ""],
        ["a.inner", 2.0, 3.0, 1, None, ""],
        ["b", 5.0, 6.5, 0, None, ""],
    ]
    assert self_times(spans) == pytest.approx([5.5, 2.0, 1.0, 1.5])


def test_tracer_nests_spans_and_attributes_self_time():
    tracer = Tracer()
    inner = tracer.span("x.inner", lambda: sum(range(1000)))
    outer = tracer.span("x.outer", lambda: inner() + inner())
    outer()
    names = [s[0] for s in tracer.spans]
    parents = [s[3] for s in tracer.spans]
    assert names == ["x.outer", "x.inner", "x.inner"]
    assert parents == [-1, 0, 0]
    own = self_times(tracer.spans)
    outer_dur = tracer.spans[0][2] - tracer.spans[0][1]
    assert own[0] == pytest.approx(outer_dur - own[1] - own[2])


@pytest.mark.parametrize(
    "n, expected",
    [(19, None), (20, 50), (99, 50), (100, 90), (199, 90), (200, 95), (999, 95),
     (1000, 99), (10000, 99.9)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_percentile_refuses_unqualified_tail():
    samples = list(range(199))
    assert percentile(samples, 90) == pytest.approx(178.2)
    with pytest.raises(ValueError):
        percentile(samples, 95)
    assert percentile(list(range(201)), 95) == pytest.approx(190.0)


CLEAN_RUN = {
    "configs": [
        {"name": "qst-adaptive", "aborted": None, "max_constraint_dev": 2e-15,
         "csv_sha256": "aa"},
        {"name": "qst-static", "aborted": None, "max_constraint_dev": 1e-15,
         "csv_sha256": "bb"},
    ]
}


def test_check_accepts_clean_runs():
    assert check_outputs([CLEAN_RUN, copy.deepcopy(CLEAN_RUN)]) == []


def test_check_rejects_unphysical_trial():
    bad = copy.deepcopy(CLEAN_RUN)
    bad["configs"][0]["max_constraint_dev"] = 3e-8
    assert "constraint deviation" in check_outputs([CLEAN_RUN, bad])[0]
    bad["configs"][0]["max_constraint_dev"] = float("nan")
    assert check_outputs([bad])


def test_check_rejects_aborted_run():
    bad = copy.deepcopy(CLEAN_RUN)
    bad["configs"][1] = {"name": "qst-static", "aborted": "3/20 trials failed"}
    assert "aborted" in check_outputs([bad])[0]


def test_check_rejects_differing_csv_bytes():
    other = copy.deepcopy(CLEAN_RUN)
    other["configs"][1]["csv_sha256"] = "cc"
    assert "CSV digests" in check_outputs([CLEAN_RUN, other])[0]


def test_public_functions_are_those_a_module_defines():
    from aqtomo import estimators, linalg

    names = {name for name, _ in public_functions(estimators)}
    assert {"adaptive_qst", "qdt_stage1", "physical_projection_fast"} <= names
    # imported from linalg, private, or a class: not estimators' own functions
    assert not names & {"hermitian_eig", "_split_shots", "LrePlan"}
    linalg_names = {name for name, _ in public_functions(linalg)}
    assert "hermitian_part" in linalg_names and "dagger" not in linalg_names


def test_instrument_reaches_names_bound_by_from_import():
    import aqtomo
    from aqtomo.experiments import ExperimentConfig, harness

    tracer = Tracer()
    tracer.instrument(aqtomo)
    # harness binds the protocols, estimators binds hermitian_eig and
    # measurement binds born_probabilities, each with from-import
    for bound in (
        harness.adaptive_qst,
        aqtomo.estimators.hermitian_eig,
        aqtomo.measurement.born_probabilities,
        aqtomo.estimators.hermitian_part,
    ):
        assert hasattr(bound, "__wrapped__")

    cfg = ExperimentConfig("qst", "adaptive", "qst-rank1-8d", (1000, 2000, 4000), 2, seed=3)
    tracer.phase = "setup"
    harness.run_trial(cfg, 1000, 0, 0)
    tracer.phase = "trials"
    harness.run_scaling(cfg)
    s = tracer.summarize()
    assert s["trials"] == 6
    assert s["calls"]["estimators.adaptive_qst"] == 6
    # 27 Pauli settings plus the eigenbasis measurement, each one Born evaluation
    assert s["calls"]["measurement.measure_state"] == 6 * 28
    assert s["calls"]["quantum_objects.born_probabilities"] == 6 * 28
    assert s["calls"]["linalg.hermitian_eig"] >= 6
    assert len(s["plan_build_s"]) == 1
    assert s["target_s"] > 0
    assert s["counts"]["shots"] == s["counts"]["budget"] == 2 * (1000 + 2000 + 4000)


def test_normalize_removes_slices_and_rescales_to_nominal_speed():
    # 2 s of wall time held 100 slices that each took twice the nominal
    # time: the machine ran at half the reference speed
    start = (0.5, 10)
    end = (0.5 + 100 * 2 * NOMINAL_SLICE_S, 110)
    program_s, at_ref_s = normalize(2.0, start, end)
    assert program_s == pytest.approx(2.0 - 200 * NOMINAL_SLICE_S)
    assert at_ref_s == pytest.approx(program_s / 2)
    assert normalize(0.001, end, end) == (0.001, 0.001)


def test_speed_reference_samples_while_the_main_thread_works():
    ref = SpeedRef()
    ref.start()
    try:
        while ref.mark()[1] < 5:
            sum(range(1000))
    finally:
        ref.stop()
    busy, slices = ref.mark()
    assert slices >= 5 and busy > 0
