import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aqtomo.estimators import InformationIncompleteError, LrePlan
from aqtomo.experiments.config import (
    TARGET_STREAM_BASE,
    TRIAL_STREAM_BITS,
    _trial_stream,
)
from aqtomo.measurement import (
    DetectorOracle,
    ExactDetectorOracle,
    ExactStateOracle,
    PauliCube,
    SeededRng,
    StateOracle,
    draw_counts,
    frequencies,
    outcome_table,
    pauli_cube,
    seeded_generators,
)
from aqtomo.linalg import DimensionError, haar_unitary
from aqtomo.quantum_objects import DensityMatrix, pure_state
from dense_reference import (
    born_probabilities,
    cube_povm,
    dense_counts,
    pure_probe_states,
    reference_frequencies,
    reference_outcome_table,
    sample_counts,
    unit_rows,
)
from test_estimators import random_povm, random_pseudo_state


class TestDetectorOracleElements:
    def test_oracle_shares_the_povm_stack(self):
        povm = random_povm(SeededRng(150).generator(), 4, 3)
        for oracle in (DetectorOracle(povm), ExactDetectorOracle(povm)):
            assert np.shares_memory(oracle._elements, povm.elements)


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


def edge_table(gen, kinds, outcomes):
    """A seeded probability table with one row per entry of ``kinds``.

    A ``plain`` row sums to at most 1; a ``negative`` row also holds entries
    in [-1e-9, 0); an ``overshoot`` row sums into (1, 1 + 1e-9]; a ``zero``
    row is all zeros.
    """
    table = gen.dirichlet(np.ones(outcomes), size=len(kinds))
    table *= gen.uniform(0.5, 1.0, (len(kinds), 1))
    for row, kind in zip(table, kinds):
        if kind == "negative":
            picked = gen.random(outcomes) < 0.5
            row[picked] = -1e-9 * gen.uniform(1e-3, 1.0, picked.sum())
        elif kind == "overshoot":
            row *= (1.0 + gen.uniform(0.05, 0.95) * 1e-9) / row.sum()
            assert 1.0 < row.sum() <= 1.0 + 1e-9
        elif kind == "zero":
            row[:] = 0.0
    return table


class TestOutcomeTable:
    """One pass of checks gives the table of the separate-pass reference."""

    KINDS = ("plain", "negative", "overshoot", "zero")

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("outcomes", [2, 3, 8])
    def test_edge_rows_equal_the_reference_bit_for_bit(self, seed, outcomes):
        gen = np.random.default_rng(seed)
        for kinds in [(kind,) for kind in self.KINDS] + [self.KINDS * 3]:
            table = edge_table(gen, kinds, outcomes)
            got = outcome_table(table)
            with np.errstate(invalid="ignore"):
                want = reference_outcome_table(table)
            assert got.tobytes() == want.tobytes()
            clipped = np.maximum(table, 0.0)
            total = clipped.sum(axis=1)
            over = total > 1.0
            # only the overshooting rows are renormalized, and lose their null mass
            assert np.array_equal(got[~over, :-1], clipped[~over])
            assert np.array_equal(got[over, :-1], clipped[over] / total[over, None])
            assert np.all(got[over, -1] == 0.0)
            assert over.tolist() == [kind == "overshoot" for kind in kinds]

    def test_a_one_setting_vector_equals_the_reference(self):
        gen = np.random.default_rng(7)
        for kind in self.KINDS:
            probs = edge_table(gen, (kind,), 5)[0]
            got = outcome_table(probs)
            assert got.shape == (6,)
            assert got.tobytes() == reference_outcome_table(probs).tobytes()

    @pytest.mark.parametrize("settings", [1, 5])
    def test_violations_beyond_the_float_noise_are_rejected(self, settings):
        gen = np.random.default_rng(settings)
        table = edge_table(gen, ("plain",) * settings, 4)
        negative = table.copy()
        negative[-1, 0] = -2e-9 * 1.25
        excess = table.copy()
        excess[-1] *= (1.0 + 2e-9 * 1.5) / excess[-1].sum()
        for bad in (negative, excess):
            with pytest.raises(ValueError):
                reference_outcome_table(bad)
            with pytest.raises(ValueError):
                outcome_table(bad)


class TestFrequencies:
    def test_counts_and_exact_tables_equal_the_masked_division(self):
        gen = np.random.default_rng(5)
        counts = gen.multinomial(np.array([0, 7, 0, 1000, 3]), np.full(4, 0.25))
        table = outcome_table(0.8 * gen.dirichlet(np.ones(3), size=4))
        table[1] = 0.0  # an exact oracle passes probabilities, zero rows too
        for rows in (counts, table):
            got, want = frequencies(rows), reference_frequencies(rows)
            assert got.values.tobytes() == want.values.tobytes()
            assert got.mask.tolist() == want.mask.tolist()


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

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_stacked_invert_equals_each_table_bit_for_bit(self, n):
        cube, d, k = pauli_cube(n), 2**n, 4
        tables = np.random.default_rng(40 + n).random((3**n, d, k))
        tables /= tables.sum(axis=1, keepdims=True)
        tables[:, :, 0] = np.round(tables[:, :, 0] * 3) / 3  # exact zeros and ties
        want = [cube.invert(tables[..., i]) for i in range(k)]
        moved = np.moveaxis(tables, -1, 0)
        assert not moved.flags.c_contiguous
        for stack in (moved, np.ascontiguousarray(moved), moved.reshape(2, 2, 3**n, d)):
            got = cube.invert(stack)
            assert got.shape == stack.shape[:-2] + (d, d)
            for a, b in zip(got.reshape(k, d, d), want):
                assert np.array_equal(a, b)
                for part in ("real", "imag"):
                    sign_a = np.signbit(getattr(a, part))
                    assert np.array_equal(sign_a, np.signbit(getattr(b, part)))

    def test_shape_and_validation(self):
        cube = pauli_cube(3)
        assert len(cube) == 27 and cube.dim == 8
        assert pauli_cube(3) is cube
        with pytest.raises(ValueError):
            pauli_cube(0)
        with pytest.raises(DimensionError):
            cube.probabilities(np.eye(4) / 4)

    def test_born_table_is_unclipped_until_outcome_table(self):
        # a non-state's table keeps its negative entry, which outcome_table rejects
        table = pauli_cube(1).probabilities(np.diag([1.01, -0.01]))
        assert table.min() < -1e-9
        with pytest.raises(ValueError, match="negative probability"):
            outcome_table(table)

    def test_oracle_reuses_the_battery_table(self):
        rho = random_pseudo_state(np.random.default_rng(16), 8, 0.6)
        cube = pauli_cube(3)
        oracle = StateOracle(rho)
        want = outcome_table(cube.probabilities(rho.mat))
        assert oracle.cube is cube
        assert np.array_equal(oracle.table(), want)
        assert np.array_equal(ExactStateOracle(rho).counts(), want)
        counts = oracle.counts([5] * 27, SeededRng(17))
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
        oracle = StateOracle(rho)
        assert calls == []  # nothing is computed before the first draw
        shots = [7] * 27
        for stream in range(3):
            rng = SeededRng(22, stream)  # each use starts a fresh generator
            counts = oracle.counts(shots, rng)
            assert np.array_equal(counts, draw_counts(want, shots, rng))
        assert calls == [cube]
        exact = ExactStateOracle(rho)
        table = exact.counts()
        assert np.array_equal(table, want) and exact.counts() is table
        assert len(calls) == 2 and not table.flags.writeable
        with pytest.raises(DimensionError):
            oracle.counts([7] * 9, SeededRng(23))

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
        oracle = DetectorOracle(povm)
        assert calls == []  # nothing is computed before the first draw
        table = oracle.table()
        assert table.shape == (216, 4) and not table.flags.writeable
        assert np.max(np.abs(table - want)) <= 1e-15
        shots = [3] * 216
        for stream in range(3):
            rng = SeededRng(25, stream)
            counts = oracle.counts(shots, rng)
            assert np.array_equal(counts, draw_counts(table, shots, rng))
        assert calls == [cube] * 3  # one Born table per element, once
        exact = ExactDetectorOracle(povm)
        assert exact.counts() is exact.counts()
        assert len(calls) == 6
        with pytest.raises(DimensionError):
            oracle.counts([7] * 36, SeededRng(26))


class TestBasisMeasurement:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 16), st.floats(0.1, 1.0), st.integers(0, 2**32 - 1))
    def test_table_equals_column_projector_born_probabilities(self, d, trace, seed):
        gen = np.random.default_rng(seed)
        rho = random_pseudo_state(gen, d, trace)
        u = haar_unitary(d, gen)
        projectors = np.stack([np.outer(c, c.conj()) for c in u.T])
        want = outcome_table(born_probabilities(rho, projectors))
        got = StateOracle(rho).basis_table(u)
        assert got.shape == (1, d + 1)
        assert np.max(np.abs(got[0] - want)) <= 1e-15

    def test_non_unitary_basis_rejected(self):
        rho = DensityMatrix(np.eye(4) / 4)
        u = haar_unitary(4, SeededRng(18).generator())
        u[:, 0] *= 1.0 + 1e-6
        with pytest.raises(ValueError, match="not unitary"):
            StateOracle(rho).basis_counts(u, 100, SeededRng(19))
        with pytest.raises(ValueError, match="not unitary"):
            ExactStateOracle(rho).basis_counts(u)
        # orthonormal columns that do not span the space
        isometry = haar_unitary(4, SeededRng(18).generator())[:, :3]
        with pytest.raises(DimensionError):
            StateOracle(rho).basis_counts(isometry, 100, SeededRng(19))
        with pytest.raises(DimensionError):
            StateOracle(rho).basis_table(np.ones(4))  # a vector, not a basis

    def test_counts_and_exact_counts(self):
        rho = DensityMatrix(np.diag([0.7, 0.3, 0.0, 0.0]).astype(complex))
        u = np.eye(4, dtype=complex)[:, [1, 0, 3, 2]]
        counts = StateOracle(rho).basis_counts(u, 1000, SeededRng(20))
        assert counts.shape == (1, 5) and counts.sum() == 1000
        assert counts[0, 2:].tolist() == [0, 0, 0]
        exact = ExactStateOracle(rho).basis_counts(u)
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
        got = DetectorOracle(povm).basis_table(us)
        assert got.shape == (3 * d, 4)
        assert np.max(np.abs(got[:, :-1] - want[:, :-1])) <= 1e-15
        # the null column is 1 minus a row's sum, so its rounding adds up
        assert np.max(np.abs(got[:, -1] - want[:, -1])) <= 4e-15

    def test_counts_draw_every_probe_at_once(self):
        povm = random_povm(np.random.default_rng(135), 4, 3)
        us = np.stack([haar_unitary(4, SeededRng(136, k).generator()) for k in range(2)])
        oracle = DetectorOracle(povm)
        table = oracle.basis_table(us)
        counts = oracle.basis_counts(us, 50, SeededRng(137))
        assert np.array_equal(counts, draw_counts(table, [50] * 8, SeededRng(137)))
        assert np.array_equal(counts.sum(axis=1), [50] * 8)
        exact = ExactDetectorOracle(povm).basis_counts(us)
        assert np.array_equal(exact, table)

    @pytest.mark.parametrize("slot", [0, 1, 2])
    def test_non_unitary_basis_rejected(self, slot):
        povm = random_povm(np.random.default_rng(140), 4, 3)
        us = np.stack([haar_unitary(4, SeededRng(141, k).generator()) for k in range(3)])
        us[slot][:, 1] *= 1.0 + 1e-6
        with pytest.raises(ValueError, match="not unitary"):
            DetectorOracle(povm).basis_counts(us, 10, SeededRng(142))
        with pytest.raises(ValueError, match="not unitary"):
            ExactDetectorOracle(povm).basis_counts(us)

    def test_basis_shapes_checked(self):
        oracle = DetectorOracle(random_povm(np.random.default_rng(143), 4, 3))
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
        counts = ExactStateOracle(rho).counts([1000] * 3, None)[2:]
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

    @pytest.mark.parametrize("shots", [0, 1, 9, 10**6])
    def test_one_row_equals_numpy_batched_draw(self, shots):
        probs = 0.9 * np.random.default_rng(3).dirichlet(np.ones(5))
        table = outcome_table(probs[None])
        batched_gen, gen = np.random.default_rng(11), np.random.default_rng(11)
        want = batched_gen.multinomial(np.array([shots]), table)
        got = draw_counts(table, [shots], gen)
        assert got.shape == want.shape == (1, 6)
        assert np.array_equal(got, want)
        assert _generator_state(gen) == _generator_state(batched_gen)

    def test_shot_vector_must_match_the_rows(self):
        # one generator; a list of four on a shared table and on a stack of
        # per-trial tables: each checks the shot vector once for every draw
        table = outcome_table(np.full((3, 2), 0.25))
        cases = [
            (table, lambda: SeededRng(27), (3, 3)),
            (table, lambda: seeded_generators(27, range(4)), (4, 3, 3)),
            (np.stack([table] * 4), lambda: seeded_generators(27, range(4)), (4, 3, 3)),
        ]
        for tables, rng, shape in cases:
            assert draw_counts(tables, [5] * 3, rng()).shape == shape
            for shots in ([5] * 2, [5] * 4, 5, [[5] * 3]):
                with pytest.raises(DimensionError):
                    draw_counts(tables, shots, rng())
        # a stack needs one table per generator
        for streams in (range(1), range(3)):
            with pytest.raises(DimensionError, match="one per generator"):
                draw_counts(np.stack([table] * 2), [5] * 3, seeded_generators(27, streams))

    @pytest.mark.parametrize("rows", [1, 4])
    def test_generator_list_equals_one_draw_per_generator(self, rows):
        # a shared table and a stack of per-trial tables, on numpy's
        # one-vector path (one row) and its 2-D path
        probs = 0.9 * np.random.default_rng(5).dirichlet(np.ones(3), size=(3, rows))
        shots = [7 * (r + 1) for r in range(rows)]
        for tables in (outcome_table(probs[0]), outcome_table(probs)):
            gens, singles = seeded_generators(31, range(3)), seeded_generators(31, range(3))
            got = draw_counts(tables, shots, gens)
            stacked = np.broadcast_to(tables, (3,) + tables.shape[-2:])
            want = np.stack([draw_counts(t, shots, g) for t, g in zip(stacked, singles)])
            assert got.shape == (3, rows, 4) and got.dtype == np.int64
            assert np.array_equal(got, want)
            assert [_generator_state(g) for g in gens] == [
                _generator_state(g) for g in singles
            ]

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
        oracle = StateOracle(rho)
        batched_gen = np.random.default_rng(seed + 1)
        serial_gen = np.random.default_rng(seed + 1)
        counts = oracle.counts(shots, batched_gen)
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
                LrePlan(pauli_cube(3), True).solve(freqs)


# seeds ExperimentConfig allows: 0, one-word and two-word
SEEDS = st.one_of(st.just(0), st.integers(1, 2**32 - 1), st.integers(2**32, 2**64 - 1))
# the harness's (grid index, trial) pairs; stream ids have two uint32 words
# from grid index 4095 on, and the last grid index is 2**28 - 2
LAST_GRID_INDEX = (TARGET_STREAM_BASE >> TRIAL_STREAM_BITS) - 2
GRID_INDICES = st.one_of(st.integers(0, 4094), st.integers(4095, LAST_GRID_INDEX))
HARNESS_STREAMS = st.lists(
    st.builds(
        _trial_stream, GRID_INDICES, st.integers(0, (1 << TRIAL_STREAM_BITS) - 1)
    ),
    min_size=1,
    max_size=8,
)


class TestSeededGenerators:
    @settings(max_examples=200, deadline=None)
    @given(SEEDS, HARNESS_STREAMS)
    @example(0, [0])
    @example(2**64 - 1, [_trial_stream(4094, 2**20 - 1), _trial_stream(4095, 0)])
    @example(7, [_trial_stream(LAST_GRID_INDEX, 2**20 - 1), 2**64 - 1])
    def test_equals_seeded_rng(self, seed, streams):
        gens = seeded_generators(seed, streams)
        assert len(gens) == len(streams)
        for stream, gen in zip(streams, gens):
            ref = SeededRng(seed, stream).generator()
            assert gen.bit_generator.state == ref.bit_generator.state
            assert np.array_equal(gen.random(4), ref.random(4))
            assert np.array_equal(gen.multinomial(50, [0.5, 0.5], 3),
                                  ref.multinomial(50, [0.5, 0.5], 3))

    def test_no_streams(self):
        assert seeded_generators(3, []) == []

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits_rejected(self, seed):
        with pytest.raises(ValueError, match="64 bits"):
            seeded_generators(seed, [0])

    @pytest.mark.parametrize("stream", [1.5, np.float64(1.0), "1"])
    def test_non_integer_stream_rejected(self, stream):
        # 1.5 would otherwise be truncated to stream 1
        with pytest.raises(TypeError):
            seeded_generators(1, [0, stream])

    @pytest.mark.parametrize("stream", [-1, 2**64])
    def test_stream_outside_64_bits_rejected(self, stream):
        with pytest.raises(ValueError, match="stream ids"):
            seeded_generators(1, [0, stream])
