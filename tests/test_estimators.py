import itertools
import time
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aqtomo import measurement
from aqtomo.estimators import (
    EstimationError,
    InformationIncompleteError,
    LrePlan,
    TomographyEstimate,
    _split_shots,
    _stage1,
    aapt_reconstruct,
    adaptive_aapt,
    adaptive_qdt,
    adaptive_qpst,
    adaptive_qst,
    nonadaptive_aapt,
    physical_projection_fast,
    project_eigenvalues_simplex,
    qdt_stage1,
    qpt_stage2_ntp,
    qpt_stage2_tp,
    static_qdt,
    static_qst,
)
from aqtomo.linalg import (
    DimensionError,
    _eigh,
    dagger,
    eig_reconstruct,
    haar_unitary,
    hermitian_part,
    kron,
    partial_trace_1,
)
from aqtomo.measurement import (
    DetectorOracle,
    ExactDetectorOracle,
    ExactStateOracle,
    SeededRng,
    StateOracle,
    frequencies,
    pauli_cube,
)
from aqtomo.quantum_objects import (
    BipartitePureState,
    DegenerateInputError,
    DensityMatrix,
    KrausChannel,
    Povm,
    ProcessMatrix,
    apply_extended_channel,
    kraus_to_process,
    maximally_entangled_input,
)

from aqtomo.experiments import ExperimentConfig
from aqtomo.experiments.harness import _context, gm_bound, run_trial
from aqtomo.fidelity import FidelityScenario, fidelity
from dense_reference import cube_povm, dense_counts, dense_table
from test_quantum_objects import lossy_dephasing, random_channel, random_density


# ---------------------------------------------------------------------------
# Dense least-squares reference: a Gell-Mann basis and the design matrix of a
# POVM battery, against which the closed-form cube inversion is checked
# ---------------------------------------------------------------------------


def gell_mann_stack(d: int) -> np.ndarray:
    """I/sqrt(d) followed by the d^2 - 1 generalized Gell-Mann matrices.

    Orthonormal under the Hilbert-Schmidt inner product, all Hermitian, with
    the identity direction isolated in slot 0 so a trace constraint pins a
    single coefficient.
    """
    ops = [np.eye(d, dtype=complex) / np.sqrt(d)]
    for l in range(1, d):
        diag = np.zeros(d)
        diag[:l] = 1.0
        diag[l] = -l
        ops.append(np.diag(diag).astype(complex) / np.sqrt(l * (l + 1)))
    for j in range(d):
        for k in range(j + 1, d):
            sym = np.zeros((d, d), dtype=complex)
            sym[j, k] = sym[k, j] = 1.0 / np.sqrt(2.0)
            ops.append(sym)
            asym = np.zeros((d, d), dtype=complex)
            asym[j, k] = -1j / np.sqrt(2.0)
            asym[k, j] = 1j / np.sqrt(2.0)
            ops.append(asym)
    return np.stack(ops)


class HermitianBasis:
    """Orthonormal Hermitian basis with operators[0] = I/sqrt(d)."""

    def __init__(self, d: int):
        self.d, self.operators = d, gell_mann_stack(d)

    def expand(self, m: np.ndarray) -> np.ndarray:
        """Real coefficient vector of a Hermitian matrix in this basis."""
        return np.einsum("kij,ji->k", self.operators, np.asarray(m, complex)).real

    def assemble(self, coeffs: np.ndarray) -> np.ndarray:
        """Hermitian matrix from a real coefficient vector."""
        return hermitian_part(
            np.einsum("k,kij->ij", np.asarray(coeffs, float), self.operators),
            check=False,
        )


def povm_design(povms, basis: HermitianBasis) -> np.ndarray:
    """Rows Tr(P B_k) of a battery's elements P, ordered setting-major."""
    elems = np.stack([e for p in povms for e in p.elements])
    return np.einsum("aij,bji->ab", elems, basis.operators).real


def lre_mse_bound(povms, basis: HermitianBasis, n_total: int) -> float:
    """Conservative mean-squared-error bound (J / 4N) Tr[(X^T X)^-1].

    J is the number of POVM settings; uses the trace-constrained design since
    the identity coefficient carries no statistical error.
    """
    design = povm_design(povms, basis)[:, 1:]
    gram_inv = np.linalg.inv(design.T @ design)
    return len(povms) / (4.0 * n_total) * float(np.trace(gram_inv))


def random_full_schmidt(gen, d, min_coeff=0.2):
    while True:
        amp = gen.standard_normal(d * d) + 1j * gen.standard_normal(d * d)
        state = BipartitePureState(amp / np.linalg.norm(amp), d, d)
        if state.coefficients[-1] >= min_coeff:
            return state


class TestHermitianBasis:
    @pytest.mark.parametrize("d", [2, 3, 4, 8])
    def test_orthonormal(self, d):
        basis = HermitianBasis(d)
        ops = basis.operators
        assert ops.shape == (d * d, d, d)
        gram = np.einsum("aij,bji->ab", ops, ops)
        assert np.allclose(gram, np.eye(d * d), atol=1e-10)
        assert np.allclose(ops[0], np.eye(d) / np.sqrt(d))
        for op in ops:
            assert np.allclose(op, op.conj().T, atol=1e-12)

    def test_expand_assemble_roundtrip(self):
        gen = SeededRng(50).generator()
        basis = HermitianBasis(3)
        h = gen.standard_normal((3, 3)) + 1j * gen.standard_normal((3, 3))
        h = (h + h.conj().T) / 2
        assert np.allclose(basis.assemble(basis.expand(h)), h, atol=1e-10)


class TestLre:
    def test_noiseless_recovery_constrained(self):
        gen = SeededRng(51).generator()
        rho = random_density(gen, 4)
        cube = pauli_cube(2)
        freqs = frequencies(ExactStateOracle(rho).counts())
        est = LrePlan(cube, constrain_trace=True).solve(freqs)
        assert np.linalg.norm(est - rho.mat) < 1e-8

    def test_noiseless_recovery_sub_unit(self):
        gen = SeededRng(52).generator()
        rho = random_density(gen, 4)
        sub = DensityMatrix(0.7 * rho.mat, sub_unit=True)
        cube = pauli_cube(2)
        freqs = frequencies(ExactStateOracle(sub).counts())
        est = LrePlan(cube, constrain_trace=False).solve(freqs)
        assert np.linalg.norm(est - sub.mat) < 1e-8

    def test_mse_below_analytic_bound(self):
        # single high-budget run sits below the conservative
        # (J / 4N) Tr[(X^T X)^-1] expectation bound with room to spare
        target = random_density(SeededRng(53).generator(), 8)
        cube = pauli_cube(3)
        plan = LrePlan(cube, constrain_trace=True)
        n_total = 10**6
        shots = [n_total // len(cube)] * len(cube)
        gen = SeededRng(54).generator()
        est = plan.solve(frequencies(StateOracle(target).counts(shots, gen)))
        bound = lre_mse_bound(cube_povm(3), HermitianBasis(8), n_total)
        assert np.linalg.norm(est - target.mat) ** 2 < bound

    def test_unbiased_trace_recovery_sub_unit(self):
        # unconstrained least squares recovers the trace of a pseudo-state
        gen = SeededRng(55).generator()
        sub = DensityMatrix(0.75 * random_density(gen, 4).mat, sub_unit=True)
        cube = pauli_cube(2)
        plan = LrePlan(cube, constrain_trace=False)
        oracle = StateOracle(sub)
        shots = [10**5] * len(cube)
        traces = []
        for t in range(40):
            g = SeededRng(56, t).generator()
            freqs = frequencies(oracle.counts(shots, g))
            traces.append(float(np.trace(plan.solve(freqs)).real))
        se = np.std(traces, ddof=1) / np.sqrt(len(traces))
        assert abs(np.mean(traces) - 0.75) < 3 * se + 1e-12

    def test_rank_deficient_battery_rejected(self):
        # only the first 2 settings measured: 8 rows cannot span 16 parameters
        rho = random_density(SeededRng(93).generator(), 4)
        cube = pauli_cube(2)
        shots = [100] * 2 + [0] * 7
        freqs = frequencies(StateOracle(rho).counts(shots, SeededRng(93)))
        with pytest.raises(InformationIncompleteError):
            LrePlan(cube, constrain_trace=True).solve(freqs)

    def test_frequency_shape_mismatch_rejected(self):
        gen = SeededRng(94).generator()
        rho = random_density(gen, 4)
        freqs = frequencies(dense_table(rho, cube_povm(2)[:-1]))
        with pytest.raises(DimensionError):
            LrePlan(pauli_cube(2), constrain_trace=True).solve(freqs)

    def test_only_the_pauli_cube_is_accepted(self):
        with pytest.raises(TypeError):
            LrePlan(cube_povm(2), True)


class TestOracleCube:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_cube_of_each_dimension(self, n):
        d = 2**n
        rho = DensityMatrix(np.eye(d) / d)
        assert StateOracle(rho).cube is pauli_cube(n)
        povm = Povm((np.eye(d) / 2, np.eye(d) / 2))
        assert DetectorOracle(povm).cube is pauli_cube(n)

    @pytest.mark.parametrize("dim", [3, 6, 12])
    def test_non_power_of_two_dimension_rejected(self, dim):
        rho = DensityMatrix(np.eye(dim) / dim)
        povm = Povm((np.eye(dim) / 2, np.eye(dim) / 2))
        with pytest.raises(DimensionError):
            StateOracle(rho).cube
        with pytest.raises(DimensionError):
            DetectorOracle(povm).cube
        with pytest.raises(DimensionError):
            adaptive_qst(StateOracle(rho), 1000, 0.5, SeededRng(95))
        with pytest.raises(DimensionError):
            static_qdt(DetectorOracle(povm), 1000, SeededRng(95))


class TestNoDenseCubeInProduction:
    def test_harness_trials_and_default_plans_build_no_dense_cube(self):
        cube_povm.cache_clear()
        _context.cache_clear()
        for task, target in (
            ("qst", "qst-rank1-8d"),
            ("qdt", "qdt-three-valued"),
            ("aapt", "aapt-hadamard"),
        ):
            for method in ("adaptive", "static"):
                cfg = ExperimentConfig(task, method, target, (400,), 1)
                assert run_trial(cfg, 400, 0, 0) is not None
        rho = random_density(SeededRng(100).generator(), 4)
        adaptive_qst(StateOracle(rho), 400, 0.5, SeededRng(101))
        static_qst(StateOracle(rho), 400, SeededRng(102))
        assert cube_povm.cache_info().currsize == 0
        # the dense reference lives in the tests only
        import aqtomo

        moved = ("cube_povm", "born_probabilities", "pure_probe_states", "unit_rows")
        for name in moved:
            assert not any(hasattr(m, name) for m in vars(aqtomo).values())


@lru_cache(maxsize=None)
def dense_cube_design(n_qubits):
    """Dense design matrix of the full Pauli cube (the least-squares oracle)."""
    return povm_design(cube_povm(n_qubits), HermitianBasis(2**n_qubits))


def random_pseudo_state(gen, d, trace):
    a = gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d))
    m = a @ a.conj().T
    return DensityMatrix(trace * m / np.trace(m).real, sub_unit=trace < 1.0)


class TestCubeInversion:
    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(1, 4),
        st.booleans(),
        st.floats(0.1, 1.0),
        st.integers(0, 2**32 - 1),
    )
    def test_closed_form_equals_dense_lstsq(self, n, constrain, trace, seed):
        d = 2**n
        gen = np.random.default_rng(seed)
        povms = cube_povm(n)
        shots = gen.integers(1, 200, size=len(povms))  # unequal per setting
        counts = dense_counts(random_pseudo_state(gen, d, trace), povms, shots, gen)
        freqs = frequencies(counts)
        got = LrePlan(pauli_cube(n), constrain).solve(freqs)

        x, y = dense_cube_design(n), freqs.values.ravel()
        if constrain:  # identity coefficient pinned to unit trace, the rest fitted
            phi0 = 1.0 / np.sqrt(d)
            rest = np.linalg.lstsq(x[:, 1:], y - x[:, 0] * phi0, rcond=None)[0]
            phi = np.concatenate(([phi0], rest))
        else:
            phi = np.linalg.lstsq(x, y, rcond=None)[0]
        want = HermitianBasis(d).assemble(phi)
        assert np.max(np.abs(got - want)) <= 1e-12

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 4), st.booleans(), st.integers(0, 2**32 - 1))
    def test_zero_shot_setting_raises(self, n, constrain, seed):
        d = 2**n
        gen = np.random.default_rng(seed)
        povms = cube_povm(n)
        shots = gen.integers(0, 3, size=len(povms))
        shots[gen.integers(len(povms))] = 0
        counts = dense_counts(random_pseudo_state(gen, d, 1.0), povms, shots, gen)
        freqs = frequencies(counts)
        # the dense design loses rank too: the rule is the least-squares one
        rows = np.repeat(freqs.mask, d)
        needed = d * d - 1 if constrain else d * d
        cols = slice(1, None) if constrain else slice(None)
        assert np.linalg.matrix_rank(dense_cube_design(n)[rows][:, cols]) < needed
        with pytest.raises(InformationIncompleteError):
            LrePlan(pauli_cube(n), constrain).solve(freqs)

    def test_five_qubits(self):
        u = haar_unitary(32, SeededRng(96).generator())
        rho = DensityMatrix(eig_reconstruct(np.array([1.0] + [0.0] * 31), u))
        tick = time.perf_counter()
        LrePlan(pauli_cube(5), True)  # the plan adaptive_qst measures below
        assert time.perf_counter() - tick < 1.0
        n = 10**6
        est = adaptive_qst(StateOracle(rho), n, 0.5, SeededRng(97))
        assert abs(est.value.trace - 1.0) < 1e-12
        assert np.linalg.eigvalsh(est.value.mat)[0] > -1e-12
        infid = 1.0 - fidelity(est.value.mat, rho.mat, FidelityScenario("state"))
        assert infid < gm_bound(32, n)


def simplex_projection_oracle(w):
    """Active-set enumeration of min ||x - w||^2, x >= 0, sum x = sum w."""
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


def sgs_projection(h):
    """Smolin-Gambetta-Smith closest state (PRL 108, 070502 (2012)).

    Eigenvalues sorted in descending order; from the smallest up, each one
    whose value plus its share ``a / i`` of the mass ``a`` removed so far is
    negative is set to zero, and the remaining ones share ``a`` equally.
    """
    w, v = np.linalg.eigh(h)
    order = np.argsort(w)[::-1]
    mu, v = w[order], v[:, order]
    lam, a, i = mu.copy(), 0.0, len(mu)
    while mu[i - 1] + a / i < 0.0:
        lam[i - 1] = 0.0
        a += mu[i - 1]
        i -= 1
    lam[:i] = mu[:i] + a / i
    return (v * lam) @ v.conj().T


class TestPhysicalProjection:
    def test_psd_input_unchanged(self):
        rho = random_density(SeededRng(57).generator(), 4)
        out = physical_projection_fast(rho.mat)
        assert np.allclose(out.mat, rho.mat, atol=1e-10)

    def test_worked_example(self):
        lam = np.linalg.eigvalsh(
            physical_projection_fast(np.diag([0.7, 0.4, -0.1]).astype(complex)).mat
        )[::-1]
        assert np.allclose(lam, [0.65, 0.35, 0.0], atol=1e-12)
        # keeping all three entries would leave the smallest negative
        assert 0.7 + 0.4 - 0.1 == pytest.approx(1.0)
        assert -0.1 + 0.0 / 3 < 0

    def test_matches_enumeration_oracle(self):
        gen = SeededRng(58).generator()
        for _ in range(300):
            d = int(gen.integers(2, 5))
            w = gen.standard_normal(d)
            w = np.sort(w - (w.sum() - 1.0) / d)[::-1]  # unit-sum, descending
            fast = project_eigenvalues_simplex(w)
            oracle = simplex_projection_oracle(w)
            assert np.allclose(fast, oracle, atol=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 8), st.floats(0.0, 3.0), st.integers(0, 2**32 - 1))
    def test_equals_sgs_projection(self, d, spread, seed):
        # unit-trace Hermitian inputs, from PSD to strongly negative
        gen = np.random.default_rng(seed)
        a = gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d))
        h = spread * (a + a.conj().T) / 2
        h += (1.0 - np.trace(h).real) / d * np.eye(d)
        out = physical_projection_fast(h).mat
        assert np.max(np.abs(out - sgs_projection(h))) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 16), st.floats(0.0, 3.0), st.integers(0, 2**32 - 1))
    def test_rows_equal_the_loop_bit_for_bit(self, d, spread, seed):
        def loop(w):  # the largest feasible k, found from the top down
            total = float(np.add.reduce(w))
            cumulative, values = w.cumsum().tolist(), w.tolist()
            lam = np.zeros(len(values))
            for k in range(len(values), 0, -1):
                shift = (total - cumulative[k - 1]) / k
                if values[k - 1] + shift >= 0.0:
                    lam[:k] = w[:k] + shift
                    break
            return lam

        gen = np.random.default_rng(seed)
        w = np.sort(spread * gen.standard_normal((4, d)))[:, ::-1]
        w = np.ascontiguousarray(w + gen.standard_normal((4, 1)))  # any sum
        stacked = project_eigenvalues_simplex(w)
        for row, got in zip(w, stacked):
            assert np.array_equal(got, loop(row))
            assert np.array_equal(project_eigenvalues_simplex(row), got)

    def test_trace_preserved_exactly(self):
        gen = SeededRng(59).generator()
        h = gen.standard_normal((4, 4)) + 1j * gen.standard_normal((4, 4))
        h = (h + h.conj().T) / 2
        h = h + (1.0 - np.trace(h).real) / 4 * np.eye(4)
        out = physical_projection_fast(h)
        assert abs(out.trace - 1.0) < 1e-12

    def test_non_unit_trace_rejected(self):
        with pytest.raises(ValueError):
            physical_projection_fast(np.eye(3))


class TestAdaptiveQst:
    def test_noiseless_exact(self):
        gen = SeededRng(60).generator()
        rho = random_density(gen, 4)
        est = adaptive_qst(ExactStateOracle(rho), 1000, 0.5, SeededRng(61))
        assert np.linalg.norm(est.value.mat - rho.mat) < 1e-8
        assert est.extras == {} and not est.value.sub_unit

    def test_physicality_and_determinism(self):
        u = haar_unitary(8, SeededRng(62).generator())
        rho = DensityMatrix(eig_reconstruct(np.array([1.0] + [0.0] * 7), u))
        oracle = StateOracle(rho)
        a = adaptive_qst(oracle, 5000, 0.5, SeededRng(63, 1))
        b = adaptive_qst(oracle, 5000, 0.5, SeededRng(63, 1))
        assert np.array_equal(a.value.mat, b.value.mat)
        assert abs(a.value.trace - 1.0) < 1e-12
        assert np.linalg.eigvalsh(a.value.mat)[0] > -1e-12

    def test_alpha_bounds(self):
        rho = DensityMatrix(np.eye(2) / 2)
        with pytest.raises(ValueError):
            adaptive_qst(StateOracle(rho), 100, 1.0, SeededRng(64))
        with pytest.raises(ValueError):
            adaptive_qst(StateOracle(rho), 100, 0.0, SeededRng(64))

    def test_static_noiseless_exact(self):
        gen = SeededRng(65).generator()
        rho = random_density(gen, 4)
        est = static_qst(ExactStateOracle(rho), 1000, SeededRng(66))
        assert np.linalg.norm(est.value.mat - rho.mat) < 1e-8

    def test_static_full_rank_reaches_inverse_scaling(self):
        # no zero eigenvalues, so the projection baseline already attains
        # O(1/N) infidelity without adaptivity
        from aqtomo.fidelity import state_fidelity
        from aqtomo.experiments.harness import fit_loglog_slope

        u = haar_unitary(8, SeededRng(91).generator())
        spectrum = np.array([0.3, 0.2, 0.15, 0.1, 0.1, 0.06, 0.05, 0.04])
        rho = DensityMatrix(eig_reconstruct(spectrum, u))
        oracle = StateOracle(rho)
        rows = []
        for ni, n in enumerate((2000, 20000, 200000, 2000000)):
            infs = [
                1.0
                - state_fidelity(
                    static_qst(oracle, n, SeededRng(92, (ni << 8) + t)).value.mat,
                    rho.mat,
                )
                for t in range(10)
            ]
            rows.append((n, float(np.mean(infs))))
        slope, _, _ = fit_loglog_slope(rows)
        assert -1.2 <= slope <= -0.8


class TestQpst:
    def test_noiseless_exact_sub_unit(self):
        gen = SeededRng(67).generator()
        sub = DensityMatrix(0.8 * random_density(gen, 4).mat, sub_unit=True)
        est = adaptive_qpst(ExactStateOracle(sub), 1000, 0.5, SeededRng(68))
        assert np.linalg.norm(est.value.mat - sub.mat) < 1e-8
        assert est.value.sub_unit

    def test_estimated_trace_below_one(self):
        sub = DensityMatrix(np.diag([0.4, 0.3, 0.1, 0.05]).astype(complex), sub_unit=True)
        est = adaptive_qpst(StateOracle(sub), 20000, 0.5, SeededRng(69))
        assert est.value.trace < 1.0
        assert abs(est.value.trace - 0.85) < 0.05

    def test_all_null_adaptive_step_raises(self):
        tiny = DensityMatrix(np.diag([1e-12, 0.0]).astype(complex), sub_unit=True)
        match = "every adaptive-step outcome fell in the null bin"
        with pytest.raises(EstimationError, match=match):
            adaptive_qpst(StateOracle(tiny), 20, 0.5, np.random.default_rng(0))


def three_valued_detector(seed=70):
    u1 = haar_unitary(4, SeededRng(seed, 1).generator())
    u2 = haar_unitary(4, SeededRng(seed, 2).generator())
    p1 = eig_reconstruct(np.array([0.4, 0, 0, 0]), u1)
    p2 = u2 @ np.diag([0.0, 0.5, 0.0, 0.0]).astype(complex) @ u2.conj().T
    return Povm((p1, p2, np.eye(4) - p1 - p2))


def random_povm(gen, d, n_elements):
    """Random full-rank POVM: positive matrices renormalized by S^-1/2."""
    parts = []
    for _ in range(n_elements):
        a = gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d))
        parts.append(a @ a.conj().T)
    w, v = np.linalg.eigh(sum(parts))
    s_inv = (v / np.sqrt(w)) @ v.conj().T
    return Povm(tuple(s_inv @ p @ s_inv for p in parts))


class TestSplitShots:
    def test_cached_read_only_int64_split(self):
        split = _split_shots(1003, 36)
        assert split.dtype == np.int64 and split.shape == (36,)
        assert split.sum() == 1003
        assert np.array_equal(split, [27] * 35 + [1003 - 27 * 35])
        few = _split_shots(5, 9)
        assert few.sum() == 5 and np.array_equal(few[:-1], np.zeros(8))


class TestSharedCore:
    """Every protocol's step 1 is one cube draw and solve; an adaptive trial
    adds exactly one step-2 draw, on the same generator."""

    @pytest.mark.parametrize("constrain", [True, False])
    def test_state_stage1_is_the_cube_fit(self, constrain):
        oracle = StateOracle(random_density(SeededRng(171).generator(), 4))
        got = _stage1(oracle, 901, np.random.default_rng(5), constrain)
        # two qubits: 9 cube settings
        counts = oracle.counts(_split_shots(901, 9), np.random.default_rng(5))
        want = LrePlan(oracle.cube, constrain).solve(frequencies(counts))
        assert got.shape == (1, 4, 4)
        assert np.array_equal(got, want[None])

    def test_detector_stage1_is_qdt_stage1(self):
        oracle = DetectorOracle(three_valued_detector())
        got = _stage1(oracle, 7201, np.random.default_rng(6))
        # two qubits: 36 cube probe states
        counts = oracle.counts(_split_shots(7201, 36), np.random.default_rng(6))
        assert np.array_equal(got, qdt_stage1(frequencies(counts), oracle.cube))

    @pytest.mark.parametrize(
        "task,target",
        [
            ("qst", "qst-rank1-8d"),
            ("qdt", "qdt-three-valued"),
            ("aapt", "aapt-hadamard"),
            ("aapt", "aapt-damping-third"),
        ],
    )
    @pytest.mark.parametrize("method,draws", [("adaptive", 2), ("static", 1)])
    def test_draws_per_trial(self, monkeypatch, task, target, method, draws):
        cfg = ExperimentConfig(task, method, target, (1000, 4000, 16000), 4)
        run_trial(cfg, 4000, 1, 0)  # builds the target's constants
        calls, original = [], measurement.draw_counts

        def counting(table, shots, rng):
            calls.append(shots)
            return original(table, shots, rng)

        monkeypatch.setattr(measurement, "draw_counts", counting)
        for trial in range(1, 4):
            calls.clear()
            assert run_trial(cfg, 4000, 1, trial) is not None
            assert len(calls) == draws


class TestQdt:
    def test_stage1_noiseless_exact(self):
        povm = three_valued_detector()
        cube = pauli_cube(2)
        freqs = frequencies(ExactDetectorOracle(povm).counts())
        elements = qdt_stage1(freqs, cube)
        for est, true in zip(elements, povm.elements):
            assert np.linalg.norm(est - true) < 1e-8

    def test_stage1_frequency_probe_mismatch_rejected(self):
        povm = three_valued_detector()
        cube = pauli_cube(2)
        counts = ExactDetectorOracle(povm).counts()
        with pytest.raises(DimensionError):
            qdt_stage1(frequencies(counts[:-1]), cube)

    def test_stage1_completeness_by_construction(self):
        povm = three_valued_detector()
        gen = SeededRng(72).generator()
        cube = pauli_cube(2)
        counts = DetectorOracle(povm).counts([2000] * 36, gen)
        elements = qdt_stage1(frequencies(counts), cube)
        assert np.max(np.abs(sum(elements) - np.eye(4))) < 1e-8
        for e in elements:
            assert np.linalg.eigvalsh(e)[0] > -1e-10

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 3), st.integers(2, 4), st.integers(0, 2**32 - 1))
    def test_stage1_recovers_random_povms(self, n, n_elements, seed):
        povm = random_povm(np.random.default_rng(seed), 2**n, n_elements)
        cube = pauli_cube(n)
        freqs = frequencies(ExactDetectorOracle(povm).counts())
        elements = qdt_stage1(freqs, cube)
        assert len(elements) == n_elements
        for est, true in zip(elements, povm.elements):
            assert np.max(np.abs(est - true)) <= 1e-12

    def test_zero_shot_probe_raises(self):
        povm = three_valued_detector()
        cube = pauli_cube(2)
        shots = [50] * 36
        shots[7] = 0
        counts = DetectorOracle(povm).counts(shots, SeededRng(98))
        with pytest.raises(InformationIncompleteError):
            qdt_stage1(frequencies(counts), cube)
        # a budget below one shot per probe leaves the first 35 probes empty
        with pytest.raises(InformationIncompleteError):
            static_qdt(DetectorOracle(povm), 35, SeededRng(99))
        with pytest.raises(InformationIncompleteError):
            adaptive_qdt(DetectorOracle(povm), 70, 0.5, SeededRng(99))

    def test_non_power_of_two_detector_rejected(self):
        povm = Povm((np.diag([1.0, 0.0, 0.5]), np.diag([0.0, 1.0, 0.5])))
        oracle = DetectorOracle(povm)
        with pytest.raises(DimensionError):
            static_qdt(oracle, 1000, SeededRng(100))
        with pytest.raises(DimensionError):
            adaptive_qdt(oracle, 1000, 0.5, SeededRng(100))

    def test_stage1_mse_scales_inversely(self):
        povm = three_valued_detector()
        oracle = DetectorOracle(povm)

        def mse_at(n_total, trials=12):
            out = []
            for t in range(trials):
                est = static_qdt(oracle, n_total, SeededRng(73, t))
                out.append(
                    sum(
                        np.linalg.norm(e - p) ** 2
                        for e, p in zip(est.value.elements, povm.elements)
                    )
                )
            return float(np.mean(out))

        ratio = mse_at(10**4) / mse_at(10**6)
        assert 30 < ratio < 300  # nominal 100 for O(1/N)

    def test_adaptive_noiseless_exact(self):
        povm = three_valued_detector()
        est = adaptive_qdt(ExactDetectorOracle(povm), 10**4, 0.5, SeededRng(74))
        for e, p in zip(est.value.elements, povm.elements):
            assert np.linalg.norm(e - p) < 1e-8

    def test_adaptive_uses_nd_probes_and_is_complete(self):
        povm = three_valued_detector()
        est = adaptive_qdt(DetectorOracle(povm), 10**5, 0.5, SeededRng(75))
        assert est.extras["step2_per_probe"] == (10**5 - 5 * 10**4) // 12
        total = sum(est.value.elements)
        assert np.max(np.abs(total - np.eye(4))) < 1e-8

    def test_shots_used_counts_only_spent_shots(self):
        # step 2 spreads N - n0 = 50005 shots over 3 * 4 probes: 4167 each,
        # and the 1 left over is reported as unused
        povm = three_valued_detector()
        est = adaptive_qdt(DetectorOracle(povm), 100_009, 0.5, SeededRng(75))
        assert est.extras["step2_per_probe"] == 4167
        assert est.extras["unused_shots"] == 1
        assert 50_004 + 4167 * 12 + est.extras["unused_shots"] == 100_009

    def test_step2_budget_guard(self):
        povm = three_valued_detector()
        with pytest.raises(EstimationError):
            adaptive_qdt(DetectorOracle(povm), 60, 0.9, SeededRng(76))

    def test_element_that_never_clicks_raises(self):
        # element 0 clicks with probability at most 1e-12 on any probe, so its
        # step-2 row is all zero and the estimate would hold a zero element
        povm = Povm((np.diag([1e-12, 0.0]), np.diag([1.0 - 1e-12, 1.0])))
        with pytest.raises(EstimationError, match="never clicked"):
            adaptive_qdt(DetectorOracle(povm), 600, 0.5, SeededRng(77))

    @pytest.mark.parametrize("n, n_elements", [(1, 2), (2, 4)])
    def test_element_count_and_dimension_come_from_the_oracle(self, n, n_elements):
        povm = random_povm(np.random.default_rng(150 + n), 2**n, n_elements)
        oracle = ExactDetectorOracle(povm)
        for est in (
            adaptive_qdt(oracle, 10**4, 0.5, SeededRng(151)),
            static_qdt(oracle, 10**4, SeededRng(152)),
        ):
            assert est.value.elements.shape == povm.elements.shape
            assert np.max(np.abs(est.value.elements - povm.elements)) < 1e-8


class TestStage2Corrections:
    def test_tp_fixed_point(self):
        x = kraus_to_process(KrausChannel((np.eye(2, dtype=complex),))).x
        out = qpt_stage2_tp(x)
        assert np.allclose(out.x, x, atol=1e-10)

    def test_tp_scale_invariance(self):
        gen = SeededRng(77).generator()
        g = gen.standard_normal((4, 4)) + 1j * gen.standard_normal((4, 4))
        g = g @ g.conj().T
        base = qpt_stage2_tp(g).x
        for c in (0.5, 2.0):
            assert np.allclose(qpt_stage2_tp(c * g).x, base, atol=1e-8)

    def test_tp_partial_trace_identity(self):
        gen = SeededRng(78).generator()
        for _ in range(20):
            g = gen.standard_normal((9, 9)) + 1j * gen.standard_normal((9, 9))
            g = g @ g.conj().T
            out = qpt_stage2_tp(g)
            assert np.max(np.abs(partial_trace_1(out.x, 3, 3) - np.eye(3))) < 1e-8

    def test_ntp_small_input_untouched(self):
        # Tr_1(g) < I and positive definite: correction is the identity
        ch = lossy_dephasing()
        x = kraus_to_process(ch).x
        out = qpt_stage2_ntp(x)
        assert np.allclose(out.x, x, atol=1e-10)

    def test_ntp_caps_overweight_directions(self):
        g = np.diag([2.0, 0.0, 0.0, 0.5]).astype(complex)
        # Tr_1(g) = diag(2, 0.5): the first direction is rescaled to 1
        out = qpt_stage2_ntp(g)
        q = partial_trace_1(out.x, 2, 2)
        assert np.allclose(np.linalg.eigvalsh(q), [0.5, 1.0], atol=1e-10)

    def test_ntp_equals_the_floored_correction(self):
        # the paper's correction floors the zero eigenvalues of Q = Tr_1(G)
        # at f_c / N before scaling by sqrt(min(f, 1)) / sqrt(f); that floor
        # scales by exactly 1 whenever f_c <= N, so dropping it moves no bit
        def floored(g, d, n_shots):
            w, vecs = _eigh(partial_trace_1(g, d, d))
            positive = int(np.sum(w > 1e-12 * d))
            f_bar = w.copy()
            f_bar[positive:] = w[positive - 1] / n_shots if positive else 1.0 / n_shots
            scale = np.sqrt(np.minimum(f_bar, 1.0)) / np.sqrt(f_bar)
            corr = kron(np.eye(d), eig_reconstruct(scale, vecs))
            return corr @ g @ dagger(corr)

        gen = SeededRng(79).generator()
        for trial in range(300):
            d = 2 + trial % 2
            rank = 1 + trial % (d * d)
            v = haar_unitary(d * d, gen)[:, :rank]
            g = (v * gen.uniform(0.0, 1.0, rank)) @ dagger(v)
            if trial % 3 == 0:  # a singular Q: project system 2 off one vector
                p = kron(np.eye(d), np.diag([0.0] + [1.0] * (d - 1)))
                g = p @ g @ p
            g *= gen.uniform(0.1, 3.0) / max(np.trace(g).real, 1e-300)
            g = hermitian_part(g)
            for n_shots in (10, 1000, 10**6):
                want = ProcessMatrix(floored(g, d, n_shots)).x
                assert np.array_equal(qpt_stage2_ntp(g).x, want)

    def test_ntp_rank_deficient_partial_trace(self):
        g = np.diag([0.5, 0.0, 0.0, 0.0]).astype(complex)
        out = qpt_stage2_ntp(g)
        assert np.isfinite(out.x).all()
        assert np.linalg.eigvalsh(out.x)[0] > -1e-10
        q = partial_trace_1(out.x, 2, 2)
        assert np.linalg.eigvalsh(q)[-1] <= 1.0 + 1e-8


class TestAaptReconstruct:
    def test_identity_channel_maximally_entangled(self):
        probe = maximally_entangled_input(2)
        ch = KrausChannel((np.eye(2, dtype=complex),))
        sigma = apply_extended_channel(ch, probe.density())
        x0 = aapt_reconstruct(sigma, probe)
        assert np.allclose(x0, kraus_to_process(ch).x, atol=1e-9)
        assert np.allclose(partial_trace_1(x0, 2, 2), np.eye(2), atol=1e-9)

    def test_hadamard_roundtrip(self):
        h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
        ch = KrausChannel((h,))
        probe = maximally_entangled_input(2)
        sigma = apply_extended_channel(ch, probe.density())
        assert np.linalg.norm(
            aapt_reconstruct(sigma, probe) - kraus_to_process(ch).x
        ) < 1e-9

    def test_random_roundtrips(self):
        gen = SeededRng(79).generator()
        for _ in range(30):
            ch = random_channel(gen, 2, int(gen.integers(1, 4)), tp=bool(gen.integers(2)))
            probe = random_full_schmidt(gen, 2)
            sigma = apply_extended_channel(ch, probe.density())
            err = np.linalg.norm(aapt_reconstruct(sigma, probe) - kraus_to_process(ch).x)
            assert err < 1e-8

    def test_degenerate_input_rejected(self):
        product = BipartitePureState(np.array([1.0, 0, 0, 0]), 2, 2)
        sigma = DensityMatrix(np.eye(4) / 4)
        with pytest.raises(DegenerateInputError):
            aapt_reconstruct(sigma, product)

    def test_output_is_exactly_hermitian(self):
        # the stage-2 corrections take it as it is, with no second symmetrization
        gen = SeededRng(80).generator()
        for tp in (True, False):
            ch = random_channel(gen, 2, 2, tp=tp)
            probe = random_full_schmidt(gen, 2)
            x0 = aapt_reconstruct(apply_extended_channel(ch, probe.density()), probe)
            assert np.array_equal(x0, dagger(x0))
            assert np.array_equal(hermitian_part(x0, check=False), x0)


class TestAdaptiveAapt:
    def test_noiseless_tp_exact(self):
        h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
        ch = KrausChannel((h,))
        probe = maximally_entangled_input(2)
        sigma = apply_extended_channel(ch, probe.density())
        est = adaptive_aapt(
            ExactStateOracle(sigma), 1000, 0.5, True, probe, SeededRng(80)
        )
        assert np.linalg.norm(est.value.x - kraus_to_process(ch).x) < 1e-8
        assert np.allclose(partial_trace_1(est.value.x, 2, 2), np.eye(2), atol=1e-8)

    def test_noiseless_ntp_exact(self):
        ch = lossy_dephasing()
        probe = random_full_schmidt(SeededRng(81).generator(), 2, min_coeff=0.3)
        sigma = apply_extended_channel(ch, probe.density())
        est = adaptive_aapt(
            ExactStateOracle(sigma), 1000, 0.5, False, probe, SeededRng(82)
        )
        assert np.linalg.norm(est.value.x - kraus_to_process(ch).x) < 1e-8
        assert est.extras["sigma_out"].sub_unit

    def test_nonadaptive_noiseless_exact(self):
        ch = lossy_dephasing()
        probe = random_full_schmidt(SeededRng(83).generator(), 2, min_coeff=0.3)
        sigma = apply_extended_channel(ch, probe.density())
        est = nonadaptive_aapt(
            ExactStateOracle(sigma), 1000, False, probe, SeededRng(84),
            known_trace=sigma.trace,
        )
        assert np.linalg.norm(est.value.x - kraus_to_process(ch).x) < 1e-8

    def test_nonadaptive_tp_noiseless_exact(self):
        h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
        ch = KrausChannel((h,))
        probe = maximally_entangled_input(2)
        sigma = apply_extended_channel(ch, probe.density())
        est = nonadaptive_aapt(
            ExactStateOracle(sigma), 1000, True, probe, SeededRng(93)
        )
        assert np.linalg.norm(est.value.x - kraus_to_process(ch).x) < 1e-8

    def test_nonadaptive_requires_known_trace(self):
        ch = lossy_dephasing()
        probe = maximally_entangled_input(2)
        sigma = apply_extended_channel(ch, probe.density())
        with pytest.raises(ValueError):
            nonadaptive_aapt(
                StateOracle(sigma), 1000, False, probe, SeededRng(85)
            )


class TestPhysicalityAcrossMethods:
    """Every estimate satisfies its type's physicality constraints."""

    def test_hundred_seeded_runs(self):
        gen_seed = 0
        rho = DensityMatrix(
            eig_reconstruct(
                np.array([0.5, 0.5, 0, 0]), haar_unitary(4, SeededRng(86).generator())
            )
        )
        povm = three_valued_detector()
        ch = lossy_dephasing()
        probe = maximally_entangled_input(2)
        sigma = apply_extended_channel(ch, probe.density())
        for t in range(25):
            est = adaptive_qst(StateOracle(rho), 4000, 0.5, SeededRng(87, t))
            assert isinstance(est.value, DensityMatrix)
            est = static_qst(StateOracle(rho), 4000, SeededRng(88, t))
            assert isinstance(est.value, DensityMatrix)
            est = adaptive_qdt(DetectorOracle(povm), 4000, 0.5, SeededRng(89, t))
            assert isinstance(est.value, Povm)
            est = adaptive_aapt(
                StateOracle(sigma), 4000, 0.5, False, probe, SeededRng(90, t)
            )
            assert np.linalg.eigvalsh(est.value.x)[0] > -1e-8
            q = partial_trace_1(est.value.x, 2, 2)
            assert np.linalg.eigvalsh(q)[-1] <= 1.0 + 1e-8
