import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aqtomo.estimators import InformationIncompleteError, _default_plan
from aqtomo.measurement import (
    PauliCube,
    SeededRng,
    detector_sampler,
    draw_counts,
    exact_detector_sampler,
    exact_state_sampler,
    frequencies,
    outcome_table,
    pauli_cube,
    sample_counts,
    state_sampler,
)
from aqtomo.linalg import DimensionError, haar_unitary
from aqtomo.quantum_objects import DensityMatrix, pure_state
from dense_reference import (
    born_probabilities,
    cube_povm,
    dense_counts,
    pure_probe_states,
    unit_rows,
)
from test_estimators import random_povm, random_pseudo_state


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


class TestPauliCube:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 4),
        st.sampled_from([1.0, 0.3, 0.8]),
        st.integers(0, 2**32 - 1),
    )
    def test_table_equals_dense_born_probabilities(self, n, trace, seed):
        rho = random_pseudo_state(np.random.default_rng(seed), 2**n, trace)
        dense = np.stack([born_probabilities(rho, p) for p in cube_povm(n)])
        table = pauli_cube(n).probabilities(rho.mat)
        assert table.shape == dense.shape == (3**n, 2**n)
        assert np.max(np.abs(table - dense)) <= 1e-15

    def test_shape_and_validation(self):
        cube = pauli_cube(3)
        assert len(cube) == 27 and cube.dim == 8
        assert pauli_cube(3) is cube
        with pytest.raises(ValueError):
            pauli_cube(0)
        with pytest.raises(DimensionError):
            cube.probabilities(np.eye(4) / 4)

    def test_oracle_reuses_the_battery_table(self):
        rho = random_pseudo_state(np.random.default_rng(16), 8, 0.6)
        cube = pauli_cube(3)
        oracle = state_sampler(rho)
        want = outcome_table(cube.probabilities(rho.mat))
        assert np.array_equal(oracle.table(cube), want)
        assert np.array_equal(exact_state_sampler(rho).counts(cube), want)
        counts = oracle.counts(cube, [5] * 27, SeededRng(17))
        assert np.array_equal(counts, draw_counts(want, [5] * 27, SeededRng(17)))

    def test_oracle_computes_the_cube_table_once(self, monkeypatch):
        rho = random_pseudo_state(np.random.default_rng(21), 8, 0.8)
        cube = pauli_cube(3)
        want = outcome_table(cube.probabilities(rho.mat))
        calls = []
        original = PauliCube.probabilities

        def counted(self, m):
            calls.append(self)
            return original(self, m)

        monkeypatch.setattr(PauliCube, "probabilities", counted)
        oracle = state_sampler(rho)
        assert calls == []  # nothing is computed before the first draw
        shots = [7] * 27
        for stream in range(3):
            rng = SeededRng(22, stream)  # each use starts a fresh generator
            counts = oracle.counts(cube, shots, rng)
            assert np.array_equal(counts, draw_counts(want, shots, rng))
        assert calls == [cube]
        exact = exact_state_sampler(rho)
        table = exact.counts(cube)
        assert np.array_equal(table, want) and exact.counts(cube) is table
        assert len(calls) == 2 and not table.flags.writeable
        with pytest.raises(DimensionError):
            oracle.counts(pauli_cube(2), [7] * 9, SeededRng(23))

    def test_detector_oracle_computes_the_cube_table_once(self, monkeypatch):
        povm = random_povm(np.random.default_rng(24), 8, 3)
        cube = pauli_cube(3)
        # probe (s, b) is the product eigenstate Pi_{s,b}, row s * 8 + b
        probes = np.stack([e for p in cube_povm(3) for e in p.elements])
        want = outcome_table(born_probabilities(probes, povm))
        calls = []
        original = PauliCube.probabilities

        def counted(self, m):
            calls.append(self)
            return original(self, m)

        monkeypatch.setattr(PauliCube, "probabilities", counted)
        oracle = detector_sampler(povm)
        assert calls == []  # nothing is computed before the first draw
        table = oracle.table(cube)
        assert table.shape == (216, 4) and not table.flags.writeable
        assert np.max(np.abs(table - want)) <= 1e-15
        shots = [3] * 216
        for stream in range(3):
            rng = SeededRng(25, stream)
            counts = oracle.counts(cube, shots, rng)
            assert np.array_equal(counts, draw_counts(table, shots, rng))
        assert calls == [cube] * 3  # one Born table per element, once
        exact = exact_detector_sampler(povm)
        assert exact.counts(cube) is exact.counts(cube)
        assert len(calls) == 6
        # the cube is the one battery an oracle takes
        with pytest.raises(TypeError):
            oracle.table(probes)
        with pytest.raises(DimensionError):
            oracle.counts(pauli_cube(2), [7] * 36, SeededRng(26))


class TestBasisMeasurement:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 16), st.floats(0.1, 1.0), st.integers(0, 2**32 - 1))
    def test_table_equals_column_projector_born_probabilities(self, d, trace, seed):
        gen = np.random.default_rng(seed)
        rho = random_pseudo_state(gen, d, trace)
        u = haar_unitary(d, gen)
        projectors = np.stack([np.outer(c, c.conj()) for c in u.T])
        want = outcome_table(born_probabilities(rho, projectors))
        got = state_sampler(rho).basis_table(u)
        assert got.shape == (1, d + 1)
        assert np.max(np.abs(got[0] - want)) <= 1e-15

    def test_non_unitary_basis_rejected(self):
        rho = DensityMatrix(np.eye(4) / 4)
        u = haar_unitary(4, SeededRng(18).generator())
        u[:, 0] *= 1.0 + 1e-6
        with pytest.raises(ValueError, match="not unitary"):
            state_sampler(rho).basis_counts(u, 100, SeededRng(19))
        with pytest.raises(ValueError, match="not unitary"):
            exact_state_sampler(rho).basis_counts(u)
        # orthonormal columns that do not span the space
        isometry = haar_unitary(4, SeededRng(18).generator())[:, :3]
        with pytest.raises(DimensionError):
            state_sampler(rho).basis_counts(isometry, 100, SeededRng(19))

    def test_counts_and_exact_counts(self):
        rho = DensityMatrix(np.diag([0.7, 0.3, 0.0, 0.0]).astype(complex))
        u = np.eye(4, dtype=complex)[:, [1, 0, 3, 2]]
        counts = state_sampler(rho).basis_counts(u, 1000, SeededRng(20))
        assert counts.shape == (1, 5) and counts.sum() == 1000
        assert counts[0, 2:].tolist() == [0, 0, 0]
        exact = exact_state_sampler(rho).basis_counts(u)
        assert np.allclose(exact, [[0.3, 0.7, 0.0, 0.0, 0.0]], atol=1e-15)


class TestDetectorBasisMeasurement:
    @pytest.mark.parametrize("d", [2, 4, 8])
    def test_table_equals_dense_probe_born_probabilities(self, d):
        gen = np.random.default_rng(130 + d)
        povm = random_povm(gen, d, 3)
        us = np.stack([haar_unitary(d, gen) for _ in range(3)])
        # probe (i, j) is the pure state of column j of basis i, row i * d + j
        probes = pure_probe_states(unit_rows(np.concatenate([u.T for u in us])))
        want = outcome_table(born_probabilities(probes, povm))
        got = detector_sampler(povm).basis_table(us)
        assert got.shape == (3 * d, 4)
        assert np.max(np.abs(got[:, :-1] - want[:, :-1])) <= 1e-15
        # the null column is 1 minus a row's sum, so its rounding adds up
        assert np.max(np.abs(got[:, -1] - want[:, -1])) <= 4e-15

    def test_counts_draw_every_probe_at_once(self):
        povm = random_povm(np.random.default_rng(135), 4, 3)
        us = np.stack([haar_unitary(4, SeededRng(136, k).generator()) for k in range(2)])
        oracle = detector_sampler(povm)
        table = oracle.basis_table(us)
        counts = oracle.basis_counts(us, 50, SeededRng(137))
        assert np.array_equal(counts, draw_counts(table, [50] * 8, SeededRng(137)))
        assert np.array_equal(counts.sum(axis=1), [50] * 8)
        exact = exact_detector_sampler(povm).basis_counts(us)
        assert np.array_equal(exact, table)

    @pytest.mark.parametrize("slot", [0, 1, 2])
    def test_non_unitary_basis_rejected(self, slot):
        povm = random_povm(np.random.default_rng(140), 4, 3)
        us = np.stack([haar_unitary(4, SeededRng(141, k).generator()) for k in range(3)])
        us[slot][:, 1] *= 1.0 + 1e-6
        with pytest.raises(ValueError, match="not unitary"):
            detector_sampler(povm).basis_counts(us, 10, SeededRng(142))
        with pytest.raises(ValueError, match="not unitary"):
            exact_detector_sampler(povm).basis_counts(us)

    def test_basis_shapes_checked(self):
        oracle = detector_sampler(random_povm(np.random.default_rng(143), 4, 3))
        with pytest.raises(DimensionError):
            oracle.basis_table(np.eye(4))  # one basis, not a stack
        with pytest.raises(DimensionError):
            oracle.basis_table(np.stack([np.eye(2)] * 3))


def measure_one(rho, povm, shots, rng):
    """Counts ``(K+1,)`` of one dense setting drawn as a batch of one."""
    return dense_counts(rho, [povm], [shots], rng)[0]


class TestMeasureState:
    def test_own_basis_concentrates(self):
        rho = pure_state(np.array([1.0, 0.0]))
        counts = measure_one(rho, cube_povm(1)[2], 1000, SeededRng(8))
        assert counts[:-1].tolist() == [1000, 0]
        assert counts[-1] == 0

    def test_uniform_chi_square(self):
        rho = DensityMatrix(np.eye(4) / 4)
        povm = cube_povm(2)[0]
        shots = 10**5
        counts = measure_one(rho, povm, shots, SeededRng(9))[:-1]
        expected = shots / 4
        chi2 = float(np.sum((counts - expected) ** 2 / expected))
        assert chi2 < 16.27  # 99.9% quantile of chi2 with 3 dof

    def test_zero_shots(self):
        rho = DensityMatrix(np.eye(2) / 2)
        counts = dense_counts(rho, [cube_povm(1)[0]], [0], SeededRng(10))
        assert counts.sum() == 0
        freqs = frequencies(counts)
        assert freqs.values[0].tolist() == [0.0, 0.0] and not freqs.mask[0]

    def test_sub_unit_records_null(self):
        sub = DensityMatrix(np.diag([0.4, 0.35]).astype(complex), sub_unit=True)
        counts = measure_one(sub, cube_povm(1)[2], 10**5, SeededRng(11))
        assert counts[-1] > 0
        assert counts.sum() == 10**5

    def test_frequency_variance_matches_model(self):
        # sample variance of the frequency of a fixed outcome tracks
        # (p - p^2) / N within a factor of two
        rho = DensityMatrix(np.diag([0.3, 0.7]).astype(complex))
        povm = cube_povm(1)[2]
        shots = 2000
        gen = SeededRng(12).generator()
        freqs = [measure_one(rho, povm, shots, gen)[0] / shots for _ in range(200)]
        model = 0.3 * 0.7 / shots
        measured = float(np.var(freqs, ddof=1))
        assert model / 2 < measured < model * 2


class TestRandomPureProbes:
    def test_rank_one_unit_trace(self):
        z = SeededRng(13).generator().standard_normal((5, 2, 4))
        probes = pure_probe_states(unit_rows(z[:, 0] + 1j * z[:, 1]))
        for p in probes:
            w = np.linalg.eigvalsh(p)
            assert abs(w[-1] - 1.0) < 1e-10 and abs(w[:-1]).max() < 1e-10


class TestExactOracle:
    def test_counts_are_probabilities(self):
        rho = DensityMatrix(np.diag([0.25, 0.75]).astype(complex))
        counts = exact_state_sampler(rho).counts(pauli_cube(1), [1000] * 3, None)[2:]
        assert np.allclose(counts[0], [0.25, 0.75, 0.0])
        assert np.array_equal(counts[0, :-1], born_probabilities(rho, cube_povm(1)[2]))
        assert np.allclose(frequencies(counts).values[0], [0.25, 0.75])


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
        base = total // 27
        shots = [base] * 26 + [total - 26 * base]
        oracle = state_sampler(rho)
        batched_gen = np.random.default_rng(seed + 1)
        serial_gen = np.random.default_rng(seed + 1)
        counts = oracle.counts(pauli_cube(3), shots, batched_gen)
        # the sequential reference: one dense Born evaluation and one draw
        # per setting
        serial = np.stack([
            sample_counts(born_probabilities(rho, p), n, serial_gen)
            for p, n in zip(cube_povm(3), shots)
        ])
        assert np.array_equal(counts[:, :-1], serial)
        assert np.array_equal(counts[:, -1], np.array(shots) - serial.sum(axis=1))
        assert _generator_state(batched_gen) == _generator_state(serial_gen)
        freqs = frequencies(counts)
        want = [c / n if n else np.zeros(len(c)) for c, n in zip(serial, shots)]
        assert np.array_equal(freqs.values, np.stack(want))
        assert np.array_equal(freqs.mask, np.array(shots) > 0)
        # zero-shot settings drop out and leave the cube rank deficient
        if not freqs.mask.all():
            with pytest.raises(InformationIncompleteError):
                _default_plan(8, True).solve(freqs)
