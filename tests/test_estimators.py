import itertools

import numpy as np
import pytest

from aqtomo.estimators import (
    EstimationError,
    HermitianBasis,
    InformationIncompleteError,
    LrePlan,
    TomographyEstimate,
    aapt_reconstruct,
    adaptive_aapt,
    adaptive_qdt,
    adaptive_qpst,
    adaptive_qst,
    eigenbasis_povm,
    lre_estimate,
    lre_mse_bound,
    nonadaptive_aapt,
    physical_projection_fast,
    project_eigenvalues_simplex,
    qdt_stage1,
    qpt_stage2_ntp,
    qpt_stage2_tp,
    static_qdt,
    static_qst,
)
from aqtomo.linalg import eig_reconstruct, haar_unitary, kron, partial_trace_1
from aqtomo.measurement import (
    SeededRng,
    cube_povm,
    detector_sampler,
    exact_detector_sampler,
    exact_state_sampler,
    state_sampler,
)
from aqtomo.quantum_objects import (
    BipartitePureState,
    DegenerateInputError,
    DensityMatrix,
    KrausChannel,
    Povm,
    apply_extended_channel,
    kraus_to_process,
    maximally_entangled_input,
)

from test_quantum_objects import lossy_dephasing, random_channel, random_density


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
        povms = cube_povm(2)
        sampler = exact_state_sampler(rho)
        records = [sampler(p, 1, None) for p in povms]
        est = lre_estimate(records, povms, constrain_trace=True)
        assert np.linalg.norm(est - rho.mat) < 1e-8

    def test_noiseless_recovery_sub_unit(self):
        gen = SeededRng(52).generator()
        rho = random_density(gen, 4)
        sub = DensityMatrix(0.7 * rho.mat, sub_unit=True)
        povms = cube_povm(2)
        sampler = exact_state_sampler(sub)
        records = [sampler(p, 1, None) for p in povms]
        est = lre_estimate(records, povms, constrain_trace=False)
        assert np.linalg.norm(est - sub.mat) < 1e-8

    def test_mse_below_analytic_bound(self):
        # single high-budget run sits below the conservative
        # (J / 4N) Tr[(X^T X)^-1] expectation bound with room to spare
        target = random_density(SeededRng(53).generator(), 8)
        povms = cube_povm(3)
        basis = HermitianBasis(8)
        plan = LrePlan(povms, basis, constrain_trace=True)
        n_total = 10**6
        shots = n_total // len(povms)
        gen = SeededRng(54).generator()
        sampler = state_sampler(target)
        records = [sampler(p, shots, gen) for p in povms]
        est = plan.solve(records)
        bound = lre_mse_bound(povms, basis, n_total)
        assert np.linalg.norm(est - target.mat) ** 2 < bound

    def test_unbiased_trace_recovery_sub_unit(self):
        # unconstrained least squares recovers the trace of a pseudo-state
        gen = SeededRng(55).generator()
        sub = DensityMatrix(0.75 * random_density(gen, 4).mat, sub_unit=True)
        povms = cube_povm(2)
        plan = LrePlan(povms, HermitianBasis(4), constrain_trace=False)
        sampler = state_sampler(sub)
        shots = 10**5
        traces = []
        for t in range(40):
            g = SeededRng(56, t).generator()
            records = [sampler(p, shots, g) for p in povms]
            traces.append(float(np.trace(plan.solve(records)).real))
        se = np.std(traces, ddof=1) / np.sqrt(len(traces))
        assert abs(np.mean(traces) - 0.75) < 3 * se + 1e-12

    def test_rank_deficient_battery_rejected(self):
        povms = cube_povm(2)[:2]  # 8 rows cannot span 16 parameters
        with pytest.raises(InformationIncompleteError):
            LrePlan(povms, HermitianBasis(4), constrain_trace=True)

    def test_record_count_mismatch_rejected(self):
        from aqtomo.linalg import DimensionError

        gen = SeededRng(94).generator()
        rho = random_density(gen, 4)
        povms = cube_povm(2)
        sampler = exact_state_sampler(rho)
        records = [sampler(p, 1, None) for p in povms[:-1]]
        with pytest.raises(DimensionError):
            lre_estimate(records, povms)


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
        est = adaptive_qst(exact_state_sampler(rho), 4, 1000, 0.5, SeededRng(61))
        assert np.linalg.norm(est.value.mat - rho.mat) < 1e-8
        assert est.method_tag == "adaptive_qst"

    def test_physicality_and_determinism(self):
        u = haar_unitary(8, SeededRng(62).generator())
        rho = DensityMatrix(eig_reconstruct(np.array([1.0] + [0.0] * 7), u))
        sampler = state_sampler(rho)
        a = adaptive_qst(sampler, 8, 5000, 0.5, SeededRng(63, 1))
        b = adaptive_qst(sampler, 8, 5000, 0.5, SeededRng(63, 1))
        assert np.array_equal(a.value.mat, b.value.mat)
        assert abs(a.value.trace - 1.0) < 1e-12
        assert np.linalg.eigvalsh(a.value.mat)[0] > -1e-12

    def test_alpha_bounds(self):
        rho = DensityMatrix(np.eye(2) / 2)
        with pytest.raises(ValueError):
            adaptive_qst(state_sampler(rho), 2, 100, 1.0, SeededRng(64))
        with pytest.raises(ValueError):
            adaptive_qst(state_sampler(rho), 2, 100, 0.0, SeededRng(64))

    def test_static_noiseless_exact(self):
        gen = SeededRng(65).generator()
        rho = random_density(gen, 4)
        est = static_qst(exact_state_sampler(rho), 4, 1000, SeededRng(66))
        assert np.linalg.norm(est.value.mat - rho.mat) < 1e-8

    def test_static_full_rank_reaches_inverse_scaling(self):
        # no zero eigenvalues, so the projection baseline already attains
        # O(1/N) infidelity without adaptivity
        from aqtomo.fidelity import state_fidelity
        from aqtomo.experiments.harness import fit_loglog_slope

        u = haar_unitary(8, SeededRng(91).generator())
        spectrum = np.array([0.3, 0.2, 0.15, 0.1, 0.1, 0.06, 0.05, 0.04])
        rho = DensityMatrix(eig_reconstruct(spectrum, u))
        sampler = state_sampler(rho)
        rows = []
        for ni, n in enumerate((2000, 20000, 200000, 2000000)):
            infs = [
                1.0
                - state_fidelity(
                    static_qst(sampler, 8, n, SeededRng(92, (ni << 8) + t)).value.mat,
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
        est = adaptive_qpst(exact_state_sampler(sub), 4, 1000, 0.5, SeededRng(68))
        assert np.linalg.norm(est.value.mat - sub.mat) < 1e-8
        assert est.value.sub_unit

    def test_estimated_trace_below_one(self):
        sub = DensityMatrix(np.diag([0.4, 0.3, 0.1, 0.05]).astype(complex), sub_unit=True)
        est = adaptive_qpst(state_sampler(sub), 4, 20000, 0.5, SeededRng(69))
        assert est.value.trace < 1.0
        assert abs(est.value.trace - 0.85) < 0.05


def three_valued_detector(seed=70):
    u1 = haar_unitary(4, SeededRng(seed, 1).generator())
    u2 = haar_unitary(4, SeededRng(seed, 2).generator())
    p1 = eig_reconstruct(np.array([0.4, 0, 0, 0]), u1)
    p2 = u2 @ np.diag([0.0, 0.5, 0.0, 0.0]).astype(complex) @ u2.conj().T
    return Povm((p1, p2, np.eye(4) - p1 - p2), name="three-valued")


class TestQdt:
    def test_stage1_noiseless_exact(self):
        povm = three_valued_detector()
        gen = SeededRng(71).generator()
        probes = [random_density(gen, 4) for _ in range(20)]
        probes += [DensityMatrix(np.eye(4) / 4)]
        sampler = exact_detector_sampler(povm)
        records = [sampler(p, 1, None) for p in probes]
        elements = qdt_stage1(records, probes)
        for est, true in zip(elements, povm.elements):
            assert np.linalg.norm(est - true) < 1e-8

    def test_stage1_record_probe_mismatch_rejected(self):
        from aqtomo.linalg import DimensionError

        povm = three_valued_detector()
        gen = SeededRng(95).generator()
        probes = [random_density(gen, 4) for _ in range(17)]
        sampler = exact_detector_sampler(povm)
        records = [sampler(p, 1, None) for p in probes[:-1]]
        with pytest.raises(DimensionError):
            qdt_stage1(records, probes)

    def test_stage1_completeness_by_construction(self):
        povm = three_valued_detector()
        gen = SeededRng(72).generator()
        from aqtomo.measurement import random_pure_probes

        probes = random_pure_probes(24, 4, gen)
        sampler = detector_sampler(povm)
        records = [sampler(p, 2000, gen) for p in probes]
        elements = qdt_stage1(records, probes)
        assert np.max(np.abs(sum(elements) - np.eye(4))) < 1e-8
        for e in elements:
            assert np.linalg.eigvalsh(e)[0] > -1e-10

    def test_stage1_mse_scales_inversely(self):
        povm = three_valued_detector()
        sampler = detector_sampler(povm)

        def mse_at(n_total, trials=12):
            out = []
            for t in range(trials):
                est = static_qdt(sampler, 3, 4, n_total, SeededRng(73, t))
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
        est = adaptive_qdt(
            exact_detector_sampler(povm), 3, 4, 10**4, 0.5, SeededRng(74)
        )
        for e, p in zip(est.value.elements, povm.elements):
            assert np.linalg.norm(e - p) < 1e-8

    def test_adaptive_uses_nd_probes_and_is_complete(self):
        povm = three_valued_detector()
        est = adaptive_qdt(detector_sampler(povm), 3, 4, 10**5, 0.5, SeededRng(75))
        assert est.extras["step2_per_probe"] == (10**5 - 5 * 10**4) // 12
        total = sum(est.value.elements)
        assert np.max(np.abs(total - np.eye(4))) < 1e-8

    def test_shots_used_counts_only_spent_shots(self):
        # step 2 spreads N - n0 = 50005 shots over 3 * 4 probes: 4167 each,
        # and the 1 left over is reported as unused
        povm = three_valued_detector()
        est = adaptive_qdt(detector_sampler(povm), 3, 4, 100_009, 0.5, SeededRng(75))
        assert est.extras["step2_per_probe"] == 4167
        assert est.extras["unused_shots"] == 1
        assert est.shots_used == 50_004 + 4167 * 12 == 100_009 - 1

    def test_step2_budget_guard(self):
        povm = three_valued_detector()
        with pytest.raises(EstimationError):
            adaptive_qdt(detector_sampler(povm), 3, 4, 60, 0.9, SeededRng(76))


class TestStage2Corrections:
    def test_tp_fixed_point(self):
        x = kraus_to_process(KrausChannel((np.eye(2, dtype=complex),))).x
        out = qpt_stage2_tp(x, 2)
        assert np.allclose(out.x, x, atol=1e-10)

    def test_tp_scale_invariance(self):
        gen = SeededRng(77).generator()
        g = gen.standard_normal((4, 4)) + 1j * gen.standard_normal((4, 4))
        g = g @ g.conj().T
        base = qpt_stage2_tp(g, 2).x
        for c in (0.5, 2.0):
            assert np.allclose(qpt_stage2_tp(c * g, 2).x, base, atol=1e-8)

    def test_tp_partial_trace_identity(self):
        gen = SeededRng(78).generator()
        for _ in range(20):
            g = gen.standard_normal((9, 9)) + 1j * gen.standard_normal((9, 9))
            g = g @ g.conj().T
            out = qpt_stage2_tp(g, 3)
            assert np.max(np.abs(partial_trace_1(out.x, 3, 3) - np.eye(3))) < 1e-8

    def test_ntp_small_input_untouched(self):
        # Tr_1(g) < I and positive definite: correction is the identity
        ch = lossy_dephasing()
        x = kraus_to_process(ch).x
        out = qpt_stage2_ntp(x, 2, 10**6)
        assert np.allclose(out.x, x, atol=1e-10)

    def test_ntp_caps_overweight_directions(self):
        g = np.diag([2.0, 0.0, 0.0, 0.5]).astype(complex)
        # Tr_1(g) = diag(2, 0.5): the first direction is rescaled to 1
        out = qpt_stage2_ntp(g, 2, 100)
        q = partial_trace_1(out.x, 2, 2)
        assert np.allclose(np.linalg.eigvalsh(q), [0.5, 1.0], atol=1e-10)

    def test_ntp_rank_deficient_partial_trace(self):
        g = np.diag([0.5, 0.0, 0.0, 0.0]).astype(complex)
        out = qpt_stage2_ntp(g, 2, 1000)
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


class TestAdaptiveAapt:
    def test_noiseless_tp_exact(self):
        h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
        ch = KrausChannel((h,))
        probe = maximally_entangled_input(2)
        sigma = apply_extended_channel(ch, probe.density())
        est = adaptive_aapt(
            exact_state_sampler(sigma), 2, 1000, 0.5, True, probe, SeededRng(80)
        )
        assert np.linalg.norm(est.value.x - kraus_to_process(ch).x) < 1e-8
        assert np.allclose(partial_trace_1(est.value.x, 2, 2), np.eye(2), atol=1e-8)

    def test_noiseless_ntp_exact(self):
        ch = lossy_dephasing()
        probe = random_full_schmidt(SeededRng(81).generator(), 2, min_coeff=0.3)
        sigma = apply_extended_channel(ch, probe.density())
        est = adaptive_aapt(
            exact_state_sampler(sigma), 2, 1000, 0.5, False, probe, SeededRng(82)
        )
        assert np.linalg.norm(est.value.x - kraus_to_process(ch).x) < 1e-8
        assert est.extras["sigma_out"].sub_unit

    def test_nonadaptive_noiseless_exact(self):
        ch = lossy_dephasing()
        probe = random_full_schmidt(SeededRng(83).generator(), 2, min_coeff=0.3)
        sigma = apply_extended_channel(ch, probe.density())
        est = nonadaptive_aapt(
            exact_state_sampler(sigma), 2, 1000, False, probe, SeededRng(84),
            known_trace=sigma.trace,
        )
        assert np.linalg.norm(est.value.x - kraus_to_process(ch).x) < 1e-8

    def test_nonadaptive_tp_noiseless_exact(self):
        h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
        ch = KrausChannel((h,))
        probe = maximally_entangled_input(2)
        sigma = apply_extended_channel(ch, probe.density())
        est = nonadaptive_aapt(
            exact_state_sampler(sigma), 2, 1000, True, probe, SeededRng(93)
        )
        assert np.linalg.norm(est.value.x - kraus_to_process(ch).x) < 1e-8

    def test_nonadaptive_requires_known_trace(self):
        ch = lossy_dephasing()
        probe = maximally_entangled_input(2)
        sigma = apply_extended_channel(ch, probe.density())
        with pytest.raises(ValueError):
            nonadaptive_aapt(
                state_sampler(sigma), 2, 1000, False, probe, SeededRng(85)
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
            est = adaptive_qst(state_sampler(rho), 4, 4000, 0.5, SeededRng(87, t))
            assert isinstance(est.value, DensityMatrix)
            est = static_qst(state_sampler(rho), 4, 4000, SeededRng(88, t))
            assert isinstance(est.value, DensityMatrix)
            est = adaptive_qdt(detector_sampler(povm), 3, 4, 4000, 0.5, SeededRng(89, t))
            assert isinstance(est.value, Povm)
            est = adaptive_aapt(
                state_sampler(sigma), 2, 4000, 0.5, False, probe, SeededRng(90, t)
            )
            assert np.linalg.eigvalsh(est.value.x)[0] > -1e-8
            q = partial_trace_1(est.value.x, 2, 2)
            assert np.linalg.eigvalsh(q)[-1] <= 1.0 + 1e-8
