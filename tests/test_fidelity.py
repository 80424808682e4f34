import numpy as np
import pytest

from aqtomo.fidelity import (
    FidelityScenario,
    detector_fidelity_h,
    detector_scenario,
    fidelity,
    fidelity_and_dp,
    fidelity_dp,
    fidelity_f1,
    fuchs_check,
    process_scenario,
    pseudo_state_fidelity,
    state_fidelity,
    state_scenario,
    trace_distance,
)
from aqtomo.linalg import DimensionError, NotPSDError
from aqtomo.measurement import SeededRng
from aqtomo.quantum_objects import Povm, pure_state

I2 = np.eye(2, dtype=complex)


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


class TestStackedOverlap:
    """Stacks of pairs share the one-pair core and equal it bit for bit."""

    @pytest.mark.parametrize("d", [2, 4, 8, 16])
    @pytest.mark.parametrize("kind", ["state", "detector_element", "process"])
    def test_stack_equals_pairs(self, d, kind):
        gen = SeededRng(120, d).generator()
        if kind == "state":
            hat = np.stack([random_density(gen, d) for _ in range(4)])
            true = np.stack([random_density(gen, d) for _ in range(4)])
            scen = state_scenario()
        else:
            hat = np.stack([random_element(gen, d, 0.9) for _ in range(4)])
            true = np.stack([random_element(gen, d, 0.9) for _ in range(4)])
            # one rank-deficient pair, where the eigenvalue cutoff acts
            true[1] = np.outer(true[1][:, 0], true[1][:, 0].conj())
            true[1] *= 0.5 / np.trace(true[1]).real
            scen = FidelityScenario(kind, d)
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
            fidelity_and_dp(hat, true, detector_scenario(4))

    def test_stacks_need_matching_shapes(self):
        with pytest.raises(DimensionError):
            fidelity_and_dp(
                np.stack([I2] * 2), np.stack([I2] * 3), detector_scenario(2)
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
        f1 = fidelity_f1(I2 / 3, I2 / 4, 2)
        assert abs(f1 - (1.0 - 1.0 / 144.0)) < 1e-12

    def test_self(self):
        gen = SeededRng(36).generator()
        s = random_psd(gen, 4)
        assert abs(fidelity_f1(s, s, 4) - 1.0) < 1e-10

    def test_detector_range(self):
        gen = SeededRng(37).generator()
        d = 3
        for _ in range(200):
            a = random_psd(gen, d, scale=gen.uniform(0.1, d))
            b = random_psd(gen, d, scale=gen.uniform(0.1, d))
            # clip traces into the POVM-element range (0, d]
            a *= min(1.0, d / np.trace(a).real)
            b *= min(1.0, d / np.trace(b).real)
            f1 = fidelity_f1(a, b, d)
            assert 1.0 / d - 1.0 < f1 <= 1.0 + 1e-9


class TestUnifiedFidelity:
    def test_equal_arguments_all_scenarios(self):
        gen = SeededRng(38).generator()
        rho = random_density(gen, 2)
        s = random_psd(gen, 2)
        x = random_psd(gen, 4, scale=1.5)
        assert fidelity(rho, rho, state_scenario()) == pytest.approx(1.0, abs=1e-10)
        assert fidelity(s, s, detector_scenario(2)) == pytest.approx(1.0, abs=1e-10)
        assert fidelity(x, x, process_scenario(2)) == pytest.approx(1.0, abs=1e-10)

    def test_detector_distortion_fixed(self):
        # normalize the F_1 example into [0, 1]: f = 1/2 - 1 = -1/2
        f = fidelity(I2 / 3, I2 / 4, detector_scenario(2))
        assert abs(f - (1.0 - (1.0 / 144.0) / 1.5)) < 1e-12
        assert f < 1.0 - 1e-4

    def test_infidelity_relation(self):
        gen = SeededRng(39).generator()
        for scen in (detector_scenario(3), process_scenario(2)):
            d_mat = 3 if scen.kind == "detector_element" else 4
            a = random_psd(gen, d_mat, scale=0.8)
            b = random_psd(gen, d_mat, scale=0.9)
            f = fidelity(a, b, scen)
            f1 = fidelity_f1(a, b, scen.dim)
            assert abs((1.0 - f) - (1.0 - f1) / (1.0 - scen.f_lower)) < 1e-10

    def test_state_scenario_equals_uhlmann(self):
        gen = SeededRng(40).generator()
        for _ in range(20):
            a, b = random_density(gen, 4), random_density(gen, 4)
            assert abs(
                fidelity(a, b, state_scenario()) - state_fidelity(a, b)
            ) < 1e-9

    def test_state_scenario_needs_unit_traces(self):
        with pytest.raises(ValueError):
            fidelity(I2 / 3, I2 / 2, state_scenario())

    def test_bounded_on_random_pairs(self):
        gen = SeededRng(41).generator()
        for _ in range(1000):
            kind = gen.integers(2)
            if kind == 0:
                scen, d_mat = detector_scenario(2), 2
            else:
                scen, d_mat = process_scenario(2), 4
            a = random_psd(gen, d_mat, scale=gen.uniform(0.05, 1.9))
            b = random_psd(gen, d_mat, scale=gen.uniform(0.05, 1.9))
            f = fidelity(a, b, scen)
            assert 0.0 <= f <= 1.0

    def test_unequal_operators_not_scored_one(self):
        # the two distortion families must score strictly below one
        assert fidelity(I2 / 3, I2 / 4, detector_scenario(2)) < 1.0 - 1e-6
        gen = SeededRng(42).generator()
        x = random_psd(gen, 4, scale=1.2)
        assert fidelity(0.5 * x, x, process_scenario(2)) < 1.0 - 1e-6

    def test_scenario_validation(self):
        with pytest.raises(ValueError):
            FidelityScenario("bogus")
        with pytest.raises(ValueError):
            FidelityScenario("process", 1)

    def test_unclamped_diagnostic_value(self):
        gen = SeededRng(47).generator()
        rho = random_density(gen, 2)
        raw = fidelity(rho, rho, state_scenario(), clamp=False)
        assert abs(raw - 1.0) < 1e-10  # may legitimately exceed 1 by roundoff
        assert fidelity(rho, rho, state_scenario()) <= 1.0


class TestPseudoStateFidelity:
    def test_reduces_to_uhlmann_for_unit_traces(self):
        gen = SeededRng(43).generator()
        a, b = random_density(gen, 4), random_density(gen, 4)
        assert abs(pseudo_state_fidelity(a, b) - state_fidelity(a, b)) < 1e-9

    def test_penalizes_trace_mismatch(self):
        assert pseudo_state_fidelity(0.5 * I2 / 2, I2 / 2) < 1.0 - 1e-4


class TestDetectorFidelityH:
    def test_self(self):
        povm = Povm((I2 * 0.3, I2 * 0.7))
        assert abs(detector_fidelity_h(povm, povm) - 1.0) < 1e-10

    def test_block_diagonal_oracle(self):
        gen = SeededRng(44).generator()
        d, n = 2, 3
        p1 = random_psd(gen, d, 0.6)
        p2 = random_psd(gen, d, 0.5)
        p2 *= np.linalg.eigvalsh(np.eye(d) - p1)[0] / max(np.linalg.eigvalsh(p2)[-1], 1)
        p = Povm((p1, p2, np.eye(d) - p1 - p2))
        q1 = random_psd(gen, d, 0.4)
        q = Povm((q1, (np.eye(d) - q1) / 2, (np.eye(d) - q1) / 2))
        # oracle: Uhlmann fidelity of the two block-diagonal embeddings
        def embed(povm):
            out = np.zeros((d * n, d * n), dtype=complex)
            for j, e in enumerate(povm.elements):
                out[j * d : (j + 1) * d, j * d : (j + 1) * d] = e / d
            return out

        direct = state_fidelity(embed(p), embed(q))
        assert abs(detector_fidelity_h(p, q) - direct) < 1e-9

    def test_complementary_projective_detectors(self):
        zb = Povm((np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)))
        plus = pure_state(np.array([1.0, 1.0])).mat
        minus = pure_state(np.array([1.0, -1.0])).mat
        xb = Povm((plus, minus))
        assert abs(detector_fidelity_h(zb, xb) - 0.5) < 1e-9


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
