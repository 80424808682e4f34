from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aqtomo.estimators import (
    HermitianBasis,
    InformationIncompleteError,
    LrePlan,
    operator_design,
)
from aqtomo.measurement import (
    ExactRecord,
    SeededRng,
    cube_povm,
    draw_counts,
    exact_state_sampler,
    frequencies,
    measure_state,
    outcome_table,
    random_pure_probes,
    sample_counts,
    state_sampler,
)
from aqtomo.quantum_objects import DensityMatrix, born_probabilities, pure_state


class TestSampleCounts:
    def test_deterministic_outcome(self):
        counts = sample_counts([1.0, 0.0], 500, SeededRng(1))
        assert counts.tolist() == [500, 0]

    def test_binomial_spread(self):
        counts = sample_counts([0.5, 0.5], 10**6, SeededRng(2))
        freq = counts / 10**6
        # 3 sigma = 3 * sqrt(0.25 / 1e6) = 1.5e-3
        assert abs(freq[0] - 0.5) < 1.5e-3 and abs(freq[1] - 0.5) < 1.5e-3

    def test_sub_unit_mass_goes_to_null(self):
        probs = np.array([0.5, 1.0 / 3.0])  # lossy channel output on I/2
        counts = sample_counts(probs, 10**6, SeededRng(3))
        null_freq = 1.0 - counts.sum() / 10**6
        assert abs(null_freq - 1.0 / 6.0) < 2e-3

    def test_negative_probability_rejected(self):
        with pytest.raises(ValueError):
            sample_counts([0.5, -1e-6], 10, SeededRng(4))

    def test_excess_mass_rejected(self):
        with pytest.raises(ValueError):
            sample_counts([0.7, 0.5], 10, SeededRng(5))

    def test_zero_shots(self):
        assert sample_counts([0.3, 0.7], 0, SeededRng(6)).tolist() == [0, 0]

    def test_stream_determinism(self):
        a = sample_counts([0.2, 0.3, 0.5], 1000, SeededRng(7, 9))
        b = sample_counts([0.2, 0.3, 0.5], 1000, SeededRng(7, 9))
        c = sample_counts([0.2, 0.3, 0.5], 1000, SeededRng(7, 10))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestCubePovm:
    def test_zero_qubits_rejected(self):
        with pytest.raises(ValueError):
            cube_povm(0)

    def test_single_qubit(self):
        povms = cube_povm(1)
        assert len(povms) == 3 and all(len(p) == 2 for p in povms)
        for p in povms:
            # one-qubit cube elements are orthogonal rank-1 projectors
            e0, e1 = p.elements
            assert np.allclose(e0 @ e1, 0, atol=1e-12)
            assert np.allclose(e0 @ e0, e0, atol=1e-12)

    def test_two_qubits(self):
        povms = cube_povm(2)
        assert len(povms) == 9 and all(len(p) == 4 for p in povms)

    def test_completeness(self):
        for n in (1, 2, 3):
            for p in cube_povm(n):
                assert np.max(np.abs(sum(p.elements) - np.eye(2**n))) < 1e-12


class TestMeasureState:
    def test_own_basis_concentrates(self):
        rho = pure_state(np.array([1.0, 0.0]))
        rec = measure_state(rho, cube_povm(1)[2], 1000, SeededRng(8))
        assert rec.counts.tolist() == [1000, 0]
        assert rec.null_count == 0

    def test_uniform_chi_square(self):
        rho = DensityMatrix(np.eye(4) / 4)
        povm = cube_povm(2)[0]
        shots = 10**5
        rec = measure_state(rho, povm, shots, SeededRng(9))
        expected = shots / 4
        chi2 = float(np.sum((rec.counts - expected) ** 2 / expected))
        assert chi2 < 16.27  # 99.9% quantile of chi2 with 3 dof

    def test_zero_shots(self):
        rho = DensityMatrix(np.eye(2) / 2)
        rec = measure_state(rho, cube_povm(1)[0], 0, SeededRng(10))
        assert rec.shots == 0 and rec.counts.sum() == 0
        assert rec.frequencies.tolist() == [0.0, 0.0]

    def test_sub_unit_records_null(self):
        sub = DensityMatrix(np.diag([0.4, 0.35]).astype(complex), sub_unit=True)
        rec = measure_state(sub, cube_povm(1)[2], 10**5, SeededRng(11))
        assert rec.null_count > 0
        assert rec.counts.sum() + rec.null_count == rec.shots

    def test_frequency_variance_matches_model(self):
        # sample variance of the frequency of a fixed outcome tracks
        # (p - p^2) / N within a factor of two
        rho = DensityMatrix(np.diag([0.3, 0.7]).astype(complex))
        povm = cube_povm(1)[2]
        shots = 2000
        gen = SeededRng(12).generator()
        freqs = [
            measure_state(rho, povm, shots, gen).frequencies[0] for _ in range(200)
        ]
        model = 0.3 * 0.7 / shots
        measured = float(np.var(freqs, ddof=1))
        assert model / 2 < measured < model * 2


class TestRandomPureProbes:
    def test_rank_one_unit_trace(self):
        probes = random_pure_probes(5, 4, SeededRng(13))
        for p in probes:
            w = np.linalg.eigvalsh(p.mat)
            assert abs(w[-1] - 1.0) < 1e-10 and abs(w[:-1]).max() < 1e-10

    def test_informationally_complete_battery(self):
        probes = random_pure_probes(24, 4, SeededRng(14))
        design = operator_design([p.mat for p in probes], HermitianBasis(4))
        assert design.rank == 16

    def test_determinism(self):
        a = random_pure_probes(3, 4, SeededRng(15, 2))
        b = random_pure_probes(3, 4, SeededRng(15, 2))
        for pa, pb in zip(a, b):
            assert np.array_equal(pa.mat, pb.mat)


class TestExactRecords:
    def test_frequencies_are_probabilities(self):
        rho = DensityMatrix(np.diag([0.25, 0.75]).astype(complex))
        sampler = exact_state_sampler(rho)
        rec = sampler(cube_povm(1)[2], 1000, None)
        assert isinstance(rec, ExactRecord)
        assert np.allclose(rec.frequencies, [0.25, 0.75])
        assert np.allclose(
            rec.frequencies, born_probabilities(rho, cube_povm(1)[2])
        )


@lru_cache(maxsize=None)
def _cube3_plan():
    return LrePlan(cube_povm(3), HermitianBasis(8), constrain_trace=True)


def _generator_state(gen):
    return gen.bit_generator.state["state"]


@st.composite
def probability_tables(draw):
    """(S, K) outcome probabilities, some rows sub-unit, plus a shot vector.

    Budgets come from splitting a total over the settings as the protocols
    do, so totals below S leave zero-shot settings.
    """
    settings = draw(st.integers(1, 12))
    outcomes = draw(st.integers(1, 8))
    seed = draw(st.integers(0, 2**32 - 1))
    gen = np.random.default_rng(seed)
    table = gen.dirichlet(np.ones(outcomes), size=settings)
    mass = np.where(gen.random(settings) < 0.5, 1.0, gen.uniform(0.05, 1.0, settings))
    total = draw(st.integers(0, 4 * settings))
    base = total // settings
    shots = [base] * settings
    shots[-1] += total - base * settings
    return table * mass[:, None], shots


class TestBatchedDraws:
    @settings(max_examples=60, deadline=None)
    @given(probability_tables(), st.integers(0, 2**32 - 1))
    def test_one_draw_equals_draws_per_setting(self, case, seed):
        probs, shots = case
        batched_gen = np.random.default_rng(seed)
        serial_gen = np.random.default_rng(seed)
        counts = draw_counts(outcome_table(probs), shots, batched_gen)
        serial = [sample_counts(p, n, serial_gen) for p, n in zip(probs, shots)]
        assert np.array_equal(counts[:, :-1], np.stack(serial))
        assert np.array_equal(counts.sum(axis=1), shots)
        assert _generator_state(batched_gen) == _generator_state(serial_gen)

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.floats(0.1, 1.0),
        st.integers(0, 120),
    )
    def test_oracle_battery_equals_records(self, seed, trace, total):
        # a 3-qubit (pseudo-)state on the 27-setting cube: totals below 27
        # leave zero-shot settings, trace < 1 fills the null outcome
        gen = np.random.default_rng(seed)
        a = gen.standard_normal((8, 8)) + 1j * gen.standard_normal((8, 8))
        m = a @ a.conj().T
        rho = DensityMatrix(trace * m / np.trace(m).real, sub_unit=trace < 1.0)
        povms = cube_povm(3)
        base = total // 27
        shots = [base] * 26 + [total - 26 * base]
        oracle = state_sampler(rho, battery=povms)
        batched_gen = np.random.default_rng(seed + 1)
        serial_gen = np.random.default_rng(seed + 1)
        counts = oracle.counts(povms, shots, batched_gen)
        records = [oracle(p, n, serial_gen) for p, n in zip(povms, shots)]
        assert np.array_equal(counts[:, :-1], np.stack([r.counts for r in records]))
        assert np.array_equal(counts[:, -1], [r.null_count for r in records])
        assert _generator_state(batched_gen) == _generator_state(serial_gen)
        freqs = frequencies(counts)
        assert np.array_equal(freqs.values, np.stack([r.frequencies for r in records]))
        assert np.array_equal(freqs.mask, np.array(shots) > 0)
        # the solver sees the same rows either way; zero-shot settings drop
        # out and leave the cube rank deficient
        plan = _cube3_plan()
        if freqs.mask.all():
            assert np.array_equal(plan.solve(freqs), plan.solve(records))
        else:
            for data in (freqs, records):
                with pytest.raises(InformationIncompleteError):
                    plan.solve(data)
