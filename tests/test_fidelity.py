import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aqtomo.experiments import harness
from aqtomo.experiments.targets import QdtTarget, QstTarget
from aqtomo.fidelity import (
    FidelityScenario,
    Truth,
    _dp_terms,
    fidelity,
    fidelity_and_dp,
    fidelity_dp,
    fuchs_check,
    rooted_fidelity_and_dp,
    state_fidelity,
    trace_distance,
)
from aqtomo.linalg import DimensionError, NotPSDError, eig_reconstruct, haar_unitary
from aqtomo.measurement import SeededRng
from aqtomo.quantum_objects import DensityMatrix, Povm, pure_state
from dense_reference import estimate_rooted_overlap, reference_dp

I2 = np.eye(2, dtype=complex)
PSEUDO_STATE = FidelityScenario("pseudo_state")


def random_density(gen, d):
    a = gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d))
    m = a @ a.conj().T
    return m / np.trace(m).real


def random_psd(gen, d, scale=1.0):
    a = gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d))
    m = a @ a.conj().T
    return scale * m / np.linalg.norm(m)


def random_element(gen, d, scale):
    """A random PSD matrix with eigenvalues in [0, scale]."""
    a = gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d))
    m = a @ a.conj().T
    return scale * m / np.linalg.eigvalsh(m)[-1]


def random_rank(gen, d, rank, trace):
    """A random PSD matrix of the given rank and trace, zeros exact up to roundoff."""
    w = np.zeros(d)
    w[:rank] = gen.uniform(0.1, 1.0, rank)
    return eig_reconstruct(trace * w / w.sum(), haar_unitary(d, gen))


def random_povm(gen, d, ranks):
    """Random elements of the given ranks, each at most ``0.9 / len(ranks)``,
    and the full-rank rest of the identity last."""
    parts = []
    for rank in ranks:
        w = np.zeros(d)
        w[:rank] = gen.uniform(0.1, 1.0, rank) * 0.9 / len(ranks)
        parts.append(eig_reconstruct(w, haar_unitary(d, gen)))
    return Povm((*parts, np.eye(d) - sum(parts)))


def reference_f(a, b, scenario):
    """F by the estimate-rooted route; d is the system dimension of a
    process matrix and the operands' own dimension otherwise."""
    n = a.shape[0]
    d = math.isqrt(n) if scenario.kind == "process" else n
    f = {"detector_element": 1.0 / d - 1.0, "process": -1.0}.get(scenario.kind, 0.0)
    return min(max((reference_dp(a, b, d)[1] - f) / (1.0 - f), 0.0), 1.0)


class TestTruthRootedCore:
    """Rooting the truth once gives the values of rooting each estimate.

    Estimates are mixtures ``(1 - mix) truth + mix random`` with ``mix`` up
    to 1/2, as a tomography run produces them.  Far from a rank-deficient
    truth, inner eigenvalues at the roundoff scale ``eps ||a|| ||b||`` can
    pass the ``d eps top`` cutoff in either route, and the two routes then
    differ by the square root of roundoff (up to ~2e-8 at d = 2 and mix = 1).
    """

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(2, 16),
        st.data(),
        st.sampled_from([1.0, 0.9, 0.35]),
        st.floats(0.0, 0.5),
        st.integers(0, 2**32 - 1),
    )
    def test_pairs_equal_estimate_rooted_route(self, d, data, trace, mix, seed):
        rank = data.draw(st.integers(1, d))
        gen = np.random.default_rng(seed)
        true = random_rank(gen, d, rank, trace)
        hat = (1.0 - mix) * true + mix * random_rank(gen, d, d, trace)
        root = estimate_rooted_overlap(hat, true)
        f_dp, f_1 = reference_dp(hat, true, d)
        assert state_fidelity(hat, true) == pytest.approx(root**2, abs=1e-12)
        assert fidelity_dp(hat, true) == pytest.approx(f_dp, abs=1e-12)
        pseudo = pytest.approx(min(f_1, 1.0), abs=1e-12)
        assert fidelity(hat, true, PSEUDO_STATE) == pseudo
        spectrum = np.linalg.eigvalsh(hat)
        pseudo_truth = Truth.of(true, PSEUDO_STATE)
        assert rooted_fidelity_and_dp(hat, spectrum, pseudo_truth)[0] == pseudo
        scenarios = [FidelityScenario("detector_element"), FidelityScenario("process")]
        if math.isqrt(d) ** 2 != d:  # a process matrix is d_sys^2 x d_sys^2
            with pytest.raises(DimensionError):
                fidelity_and_dp(hat, true, scenarios.pop())
        for scen in scenarios:
            f, dp = fidelity_and_dp(hat, true, scen)
            assert f == pytest.approx(reference_f(hat, true, scen), abs=1e-12)
            assert dp == pytest.approx(f_dp, abs=1e-12)
        if trace == 1.0:
            scen = FidelityScenario("state")
            assert fidelity(hat, true, scen) == pytest.approx(
                reference_f(hat, true, scen), abs=1e-12
            )
            rho_hat = DensityMatrix(hat)
            target = QstTarget("truth", DensityMatrix(true))
            (metrics,) = harness._score(
                rho_hat.mat, rho_hat.eigenvalues, target.truth, (rank,), 0.0
            )
            ref = reference_f(rho_hat.mat, target.rho.mat, scen)
            assert 1.0 - metrics["infidelity"] == pytest.approx(ref, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(2, 16),
        st.integers(1, 3),
        st.data(),
        st.floats(0.0, 0.5),
        st.integers(0, 2**32 - 1),
    )
    def test_stacks_equal_estimate_rooted_route(self, d, k, data, mix, seed):
        ranks = data.draw(st.lists(st.integers(1, d), min_size=k, max_size=k)) + [d]
        k += 1
        gen = np.random.default_rng(seed)
        true = random_povm(gen, d, ranks[:-1])
        noise = random_povm(gen, d, [d] * (k - 1))
        hat = Povm((1.0 - mix) * true.elements + mix * noise.elements)
        scen = FidelityScenario("detector_element")
        f, f_dp = fidelity_and_dp(hat.elements, true.elements, scen)
        target = QdtTarget("truth", true)
        (scores,) = harness._score(hat.elements, hat.eigenvalues, target.truth, ranks, 0.0)
        for j in range(k):
            a, b = hat.elements[j], true.elements[j]
            assert f[j] == pytest.approx(reference_f(a, b, scen), abs=1e-12)
            assert f_dp[j] == pytest.approx(reference_dp(a, b, d)[0], abs=1e-12)
            infidelity = scores["element_infidelities"][j]
            assert 1.0 - infidelity == pytest.approx(f[j], abs=1e-12)

    def test_non_psd_estimate_rejected_against_rank_deficient_truth(self):
        ket0 = pure_state(np.array([1.0, 0.0])).mat
        bad = np.diag([1.0, -0.5]).astype(complex)
        with pytest.raises(NotPSDError):
            state_fidelity(bad, ket0)
        with pytest.raises(NotPSDError):
            fidelity_and_dp(bad, ket0, FidelityScenario("detector_element"))
        with pytest.raises(NotPSDError):
            fidelity(bad, ket0, PSEUDO_STATE)
        with pytest.raises(NotPSDError):
            pseudo_truth = Truth.of(ket0, PSEUDO_STATE)
            rooted_fidelity_and_dp(bad, np.linalg.eigvalsh(bad), pseudo_truth)

    def test_non_psd_truth_rejected(self):
        with pytest.raises(NotPSDError):
            Truth.of(np.diag([1.0, -0.5]), FidelityScenario("state"))
        with pytest.raises(NotPSDError):
            state_fidelity(I2 / 2, np.diag([1.0, -0.5]))
        with pytest.raises(NotPSDError):
            fidelity_and_dp(I2 / 2, np.diag([1.0, -0.5]), FidelityScenario("detector_element"))


class TestTraces:
    """The trace-mismatch term sums the differences of the diagonals, which
    equals ``np.trace`` of the difference bit for bit, and squares as Python
    floats do."""

    @pytest.mark.parametrize("d", [2, 3, 4, 8, 16, 64])
    @pytest.mark.parametrize("k", [None, 3])
    def test_mismatch_term_is_the_trace_of_the_difference(self, d, k):
        gen = SeededRng(132, d).generator()
        count = 1 if k is None else k
        hat = np.stack([random_density(gen, d) for _ in range(count)])
        true = np.stack([random_density(gen, d) for _ in range(count)])
        if k is None:
            hat, true = hat[0], true[0]
        truth = Truth.of(true, FidelityScenario("pseudo_state"))
        _, mismatch = _dp_terms(hat, np.linalg.eigvalsh(hat), truth, d)
        want = np.trace(true - hat, axis1=-2, axis2=-1).real.reshape(-1).tolist()
        assert np.shape(mismatch) == hat.shape[:-2]
        assert np.reshape(mismatch, -1).tolist() == [t**2 / d**2 for t in want]

    def test_squares_round_as_python_floats(self):
        # glibc's pow(x, 2), which a Python float's ** calls, rounds this
        # x = a - 1 one ulp away from x * x, which an array's ** 2 computes
        a = 1.9111509476002997
        hat, eigs = np.array([[a]]), np.array([a])
        truth = Truth.of(np.eye(1), FidelityScenario("pseudo_state"))
        (metrics,) = harness._score(hat, eigs, truth, (1,), 0.0)
        _, mismatch = _dp_terms(hat, eigs, truth, 1)
        assert metrics["mse"] == mismatch == (a - 1.0) ** 2


class TestTruthTraces:
    """A truth keeps its traces and their extremes, and every scoring call
    still checks both its estimate's traces and the truth's."""

    UNIT = "state-scenario fidelity needs unit traces"

    def test_truth_keeps_its_traces(self):
        gen = SeededRng(133).generator()
        true = np.stack([random_element(gen, 3, 0.6) for _ in range(4)])
        truth = Truth.of(true, FidelityScenario("detector_element"))
        traces = np.trace(true, axis1=-2, axis2=-1).real
        assert np.array_equal(truth.trace, traces)
        assert truth.trace_dev == np.abs(traces - 1.0).max()
        assert truth.trace_min == traces.min()

    def test_one_row_off_unit_trace_fails_the_stack(self):
        gen = SeededRng(134).generator()
        true = random_density(gen, 4)
        truth = Truth.of(true, FidelityScenario("state"))
        hat = np.stack([random_density(gen, 4) for _ in range(3)])
        rooted_fidelity_and_dp(hat, np.linalg.eigvalsh(hat), truth)
        hat[1] *= 1.1
        for _ in range(2):  # the rooted truth checks again on its next call
            with pytest.raises(ValueError, match=self.UNIT):
                rooted_fidelity_and_dp(hat, np.linalg.eigvalsh(hat), truth)
        off = Truth.of(1.1 * true, FidelityScenario("state"))
        with pytest.raises(ValueError, match=self.UNIT):
            rooted_fidelity_and_dp(hat[0], np.linalg.eigvalsh(hat[0]), off)

    def test_zero_trace_truth_element_builds_and_fails_each_score(self):
        elements = np.stack([np.eye(2), np.zeros((2, 2))]).astype(complex)
        truth = Truth.of(elements, FidelityScenario("detector_element"))
        assert truth.trace_min == 0.0
        hat = np.stack([elements + 0.1 * np.eye(2)] * 2)
        for _ in range(2):
            with pytest.raises(ValueError, match="fidelity_dp needs positive traces"):
                rooted_fidelity_and_dp(hat, np.linalg.eigvalsh(hat), truth)


class TestStackedOverlap:
    """Stacks of pairs share the one-pair core and equal it bit for bit."""

    @pytest.mark.parametrize("d", [2, 4, 8, 16])
    @pytest.mark.parametrize("kind", ["state", "detector_element", "process"])
    def test_stack_equals_pairs(self, d, kind):
        # d is the normalization: a process matrix of a d-dimensional system
        # is d^2 x d^2, every other operand d x d
        gen = SeededRng(120, d).generator()
        if kind == "state":
            hat = np.stack([random_density(gen, d) for _ in range(4)])
            true = np.stack([random_density(gen, d) for _ in range(4)])
            scen = FidelityScenario("state")
        else:
            n = d * d if kind == "process" else d
            hat = np.stack([random_element(gen, n, 0.9) for _ in range(4)])
            true = np.stack([random_element(gen, n, 0.9) for _ in range(4)])
            # one rank-deficient pair, where the eigenvalue cutoff acts
            true[1] = np.outer(true[1][:, 0], true[1][:, 0].conj())
            true[1] *= 0.5 / np.trace(true[1]).real
            scen = FidelityScenario(kind)
        f, f_dp = fidelity_and_dp(hat, true, scen)
        assert f.shape == f_dp.shape == (4,)
        for k in range(4):
            one = fidelity_and_dp(hat[k], true[k], scen)
            assert type(one[0]) is float and type(one[1]) is float
            assert f[k] == one[0] and f_dp[k] == one[1]
            assert f[k] == fidelity(hat[k], true[k], scen)
            assert f_dp[k] == fidelity_dp(hat[k], true[k])

    def test_one_non_psd_pair_fails_the_stack(self):
        gen = SeededRng(121).generator()
        hat = np.stack([random_element(gen, 4, 0.5) for _ in range(3)])
        true = np.stack([random_element(gen, 4, 0.5) for _ in range(3)])
        hat[2] = np.diag([0.5, 0.5, 0.1, -0.2])
        with pytest.raises(NotPSDError):
            fidelity_and_dp(hat, true, FidelityScenario("detector_element"))

    def test_stacks_need_matching_shapes(self):
        with pytest.raises(DimensionError):
            fidelity_and_dp(
                np.stack([I2] * 2), np.stack([I2] * 3), FidelityScenario("detector_element")
            )
        with pytest.raises(DimensionError):
            state_fidelity(np.stack([I2 / 2] * 2), np.stack([I2 / 2] * 2))


class TestStateFidelity:
    def test_self_fidelity_is_one(self):
        gen = SeededRng(31).generator()
        for d in (2, 4, 8):
            rho = random_density(gen, d)
            assert abs(state_fidelity(rho, rho) - 1.0) < 1e-9

    def test_pure_state_overlap(self):
        gen = SeededRng(32).generator()
        for _ in range(10):
            psi = gen.standard_normal(4) + 1j * gen.standard_normal(4)
            phi = gen.standard_normal(4) + 1j * gen.standard_normal(4)
            psi, phi = psi / np.linalg.norm(psi), phi / np.linalg.norm(phi)
            f = state_fidelity(pure_state(psi).mat, pure_state(phi).mat)
            assert abs(f - abs(psi.conj() @ phi) ** 2) < 1e-9

    def test_mixed_vs_ground(self):
        f = state_fidelity(I2 / 2, pure_state(np.array([1.0, 0.0])).mat)
        assert abs(f - 0.5) < 1e-10

    def test_symmetry(self):
        gen = SeededRng(33).generator()
        a, b = random_density(gen, 4), random_density(gen, 4)
        assert abs(state_fidelity(a, b) - state_fidelity(b, a)) < 1e-8

    def test_rejects_non_psd(self):
        with pytest.raises(NotPSDError):
            state_fidelity(np.diag([1.0, -0.5]), I2 / 2)


class TestFidelityDp:
    def test_distortion(self):
        assert abs(fidelity_dp(I2 / 3, I2 / 4) - 1.0) < 1e-10
        assert abs(fidelity_dp(I2 / 3, I2 / 2) - 1.0) < 1e-10

    def test_scaling_invariance(self):
        gen = SeededRng(34).generator()
        x = random_psd(gen, 4)
        for a in (0.1, 0.5, 1.0):
            assert abs(fidelity_dp(x, a * x) - 1.0) < 1e-9

    def test_self(self):
        gen = SeededRng(35).generator()
        s = random_psd(gen, 3)
        assert abs(fidelity_dp(s, s) - 1.0) < 1e-10

    def test_zero_trace_rejected(self):
        with pytest.raises(ValueError):
            fidelity_dp(np.zeros((2, 2)), I2 / 2)


class TestFidelityF1:
    def test_uniform_elements_example(self):
        # F_dp = 1, traces 2/3 and 1/2: penalty (1/6)^2 / 4 = 1/144
        f1 = reference_dp(I2 / 3, I2 / 4, 2)[1]
        assert abs(f1 - (1.0 - 1.0 / 144.0)) < 1e-12

    def test_self(self):
        gen = SeededRng(36).generator()
        s = random_psd(gen, 4)
        assert abs(reference_dp(s, s, 4)[1] - 1.0) < 1e-10

    def test_detector_range(self):
        gen = SeededRng(37).generator()
        d = 3
        for _ in range(200):
            a = random_psd(gen, d, scale=gen.uniform(0.1, d))
            b = random_psd(gen, d, scale=gen.uniform(0.1, d))
            # clip traces into the POVM-element range (0, d]
            a *= min(1.0, d / np.trace(a).real)
            b *= min(1.0, d / np.trace(b).real)
            f1 = reference_dp(a, b, d)[1]
            assert 1.0 / d - 1.0 < f1 <= 1.0 + 1e-9


class TestUnifiedFidelity:
    def test_equal_arguments_all_scenarios(self):
        gen = SeededRng(38).generator()
        rho = random_density(gen, 2)
        s = random_psd(gen, 2)
        x = random_psd(gen, 4, scale=1.5)
        assert fidelity(rho, rho, FidelityScenario("state")) == pytest.approx(1.0, abs=1e-10)
        assert fidelity(s, s, FidelityScenario("detector_element")) == pytest.approx(1.0, abs=1e-10)
        assert fidelity(x, x, FidelityScenario("process")) == pytest.approx(1.0, abs=1e-10)

    def test_detector_distortion_fixed(self):
        # normalize the F_1 example into [0, 1]: f = 1/2 - 1 = -1/2
        f = fidelity(I2 / 3, I2 / 4, FidelityScenario("detector_element"))
        assert abs(f - (1.0 - (1.0 / 144.0) / 1.5)) < 1e-12
        assert f < 1.0 - 1e-4

    def test_infidelity_relation(self):
        gen = SeededRng(39).generator()
        # (scenario, operand size, the normalization d it fixes, f = f_lower(d))
        cases = (
            (FidelityScenario("detector_element"), 3, 3, 1.0 / 3.0 - 1.0),
            (FidelityScenario("process"), 4, 2, -1.0),
        )
        for scen, d_mat, d, f_lower in cases:
            assert scen.norm_dim(d_mat) == d
            assert scen.f_lower(d) == f_lower
            a = random_psd(gen, d_mat, scale=0.8)
            b = random_psd(gen, d_mat, scale=0.9)
            f = fidelity(a, b, scen)
            f1 = reference_dp(a, b, d)[1]
            assert abs((1.0 - f) - (1.0 - f1) / (1.0 - f_lower)) < 1e-10

    def test_state_scenario_equals_uhlmann(self):
        gen = SeededRng(40).generator()
        for _ in range(20):
            a, b = random_density(gen, 4), random_density(gen, 4)
            assert abs(
                fidelity(a, b, FidelityScenario("state")) - state_fidelity(a, b)
            ) < 1e-9

    def test_state_scenario_needs_unit_traces(self):
        with pytest.raises(ValueError):
            fidelity(I2 / 3, I2 / 2, FidelityScenario("state"))

    def test_bounded_on_random_pairs(self):
        gen = SeededRng(41).generator()
        for _ in range(1000):
            kind = gen.integers(2)
            if kind == 0:
                scen, d_mat = FidelityScenario("detector_element"), 2
            else:
                scen, d_mat = FidelityScenario("process"), 4
            a = random_psd(gen, d_mat, scale=gen.uniform(0.05, 1.9))
            b = random_psd(gen, d_mat, scale=gen.uniform(0.05, 1.9))
            f = fidelity(a, b, scen)
            assert 0.0 <= f <= 1.0

    def test_unequal_operators_not_scored_one(self):
        # the two distortion families must score strictly below one
        assert fidelity(I2 / 3, I2 / 4, FidelityScenario("detector_element")) < 1.0 - 1e-6
        gen = SeededRng(42).generator()
        x = random_psd(gen, 4, scale=1.2)
        assert fidelity(0.5 * x, x, FidelityScenario("process")) < 1.0 - 1e-6

    def test_scenario_validation(self):
        with pytest.raises(ValueError):
            FidelityScenario("bogus")
        for kind in ("state", "pseudo_state", "detector_element"):
            assert FidelityScenario(kind).norm_dim(3) == 3
        assert FidelityScenario("process").norm_dim(9) == 3

    def test_process_kind_needs_a_square_size(self):
        with pytest.raises(DimensionError):
            FidelityScenario("process").norm_dim(3)
        x = random_psd(SeededRng(48).generator(), 3)
        with pytest.raises(DimensionError):
            fidelity(x, x, FidelityScenario("process"))
        with pytest.raises(DimensionError):
            fidelity_and_dp(np.stack([x] * 2), np.stack([x] * 2), FidelityScenario("process"))

    def test_unclamped_diagnostic_value(self):
        gen = SeededRng(47).generator()
        rho = random_density(gen, 2)
        raw = reference_dp(rho, rho, 2)[1]  # the state scenario's F before its clamp
        assert abs(raw - 1.0) < 1e-10  # may legitimately exceed 1 by roundoff
        assert fidelity(rho, rho, FidelityScenario("state")) <= 1.0


class TestPseudoStateFidelity:
    def test_reduces_to_uhlmann_for_unit_traces(self):
        gen = SeededRng(43).generator()
        a, b = random_density(gen, 4), random_density(gen, 4)
        assert abs(fidelity(a, b, PSEUDO_STATE) - state_fidelity(a, b)) < 1e-9

    def test_penalizes_trace_mismatch(self):
        assert fidelity(0.5 * I2 / 2, I2 / 2, PSEUDO_STATE) < 1.0 - 1e-4

    def test_keeps_a_negative_f1(self):
        # disjoint supports: F_dp = 0 and the mismatch term 0.95^2 / 4 stays
        hat = np.diag([0.05, 0.0]).astype(complex)
        assert fidelity(hat, np.diag([0.0, 1.0]), PSEUDO_STATE) == -0.225625


class TestTraceDistanceAndFuchs:
    def test_identical_states(self):
        gen = SeededRng(45).generator()
        rho = random_density(gen, 3)
        chk = fuchs_check(rho, rho)
        assert chk.lower < 1e-8 and chk.half_trace_distance < 1e-8 and chk.upper < 1e-4
        assert chk.holds

    def test_orthogonal_pure_states(self):
        a = pure_state(np.array([1.0, 0.0])).mat
        b = pure_state(np.array([0.0, 1.0])).mat
        chk = fuchs_check(a, b)
        assert abs(chk.half_trace_distance - 1.0) < 1e-10
        assert abs(chk.upper - 1.0) < 1e-10
        assert chk.holds

    def test_random_pairs_hold(self):
        gen = SeededRng(46).generator()
        for _ in range(300):
            a, b = random_density(gen, 3), random_density(gen, 3)
            assert fuchs_check(a, b).holds
