import dataclasses

import numpy as np
import pytest

from aqtomo.linalg import (
    DimensionError,
    dagger,
    haar_unitary,
    kron,
    partial_trace_1,
    partial_trace_2,
)
from aqtomo.measurement import SeededRng
from aqtomo.quantum_objects import (
    BipartitePureState,
    DegenerateInputError,
    DensityMatrix,
    KrausChannel,
    Povm,
    apply_channel,
    apply_extended_channel,
    apply_process_matrix,
    choi_state,
    kraus_to_process,
    maximally_entangled_input,
    pure_state,
    schmidt_decompose,
)
from dense_reference import born_probabilities, cube_povm

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def phase_damping(lam):
    return KrausChannel(
        (np.diag([1.0, np.sqrt(1 - lam)]).astype(complex),
         np.diag([0.0, np.sqrt(lam)]).astype(complex))
    )


def lossy_dephasing():
    # sum A^dag A = diag(1, 2/3) < I: completely positive, not trace-preserving
    return KrausChannel(
        (np.diag([1.0, np.sqrt(1 / 3)]).astype(complex),
         np.diag([0.0, np.sqrt(1 / 3)]).astype(complex))
    )


def random_channel(gen, d, n_kraus, tp=True):
    ops = [gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d)) for _ in range(n_kraus)]
    total = sum(a.conj().T @ a for a in ops)
    w, v = np.linalg.eigh(total)
    norm = (v / np.sqrt(w)) @ v.conj().T
    ops = [a @ norm for a in ops]
    if not tp:
        k = (v * gen.uniform(0.3, 0.95, size=d)) @ v.conj().T
        ops = [a @ k for a in ops]
    return KrausChannel(tuple(ops))


def random_density(gen, d):
    a = gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d))
    m = a @ a.conj().T
    return DensityMatrix(m / np.trace(m).real)


def random_full_schmidt(gen, d):
    for _ in range(100):
        amp = gen.standard_normal(d * d) + 1j * gen.standard_normal(d * d)
        state = BipartitePureState(amp / np.linalg.norm(amp), d, d)
        if state.coefficients[-1] > 1e-3:
            return state
    raise AssertionError("could not draw a full-Schmidt state")


class TestDensityMatrix:
    def test_validation(self):
        DensityMatrix(np.eye(2) / 2)
        with pytest.raises(ValueError):
            DensityMatrix(np.eye(2))  # trace 2
        with pytest.raises(Exception):
            DensityMatrix(np.diag([1.5, -0.5]))

    def test_stacks_and_non_square_rejected(self):
        with pytest.raises(DimensionError):
            DensityMatrix(np.stack([np.eye(2) / 2] * 3))
        with pytest.raises(DimensionError):
            DensityMatrix(np.eye(2)[None] / 2)
        with pytest.raises(DimensionError):
            DensityMatrix(np.zeros((2, 3)))

    def test_sub_unit(self):
        s = DensityMatrix(np.diag([0.5, 0.25]).astype(complex), sub_unit=True)
        assert abs(s.trace - 0.75) < 1e-12
        with pytest.raises(ValueError):
            DensityMatrix(np.zeros((2, 2)), sub_unit=True)

    @pytest.mark.parametrize("sub_unit,scale", [(False, 1.0), (True, 0.7)])
    def test_trace_is_the_validated_read_only_value(self, sub_unit, scale):
        gen = SeededRng(160, int(sub_unit)).generator()
        for d in (2, 3, 8):
            m = scale * random_density(gen, d).mat
            rho = DensityMatrix(m, sub_unit=sub_unit)
            assert type(rho.trace) is float
            assert rho.trace == float(np.trace(rho.mat).real)
            assert rho.trace == float(np.trace(m).real)
            with pytest.raises(dataclasses.FrozenInstanceError):
                rho.trace = 1.0
        with pytest.raises(TypeError):
            DensityMatrix(m, sub_unit, trace=1.0)


class TestPovm:
    def test_completeness_enforced(self):
        with pytest.raises(ValueError):
            Povm((np.eye(2) / 2, np.eye(2) / 3))

    def test_psd_enforced(self):
        with pytest.raises(Exception):
            Povm((np.diag([1.5, 1.0]), np.diag([-0.5, 0.0])))

    def test_elements_are_one_read_only_stack(self):
        p0, p1 = np.diag([1.0, 0.25]), np.diag([0.0, 0.75])
        povm = Povm((p0, p1))
        assert isinstance(povm.elements, np.ndarray)
        assert povm.elements.shape == (2, 2, 2) and povm.elements.dtype == complex
        with pytest.raises(ValueError):
            povm.elements[0, 0, 0] = 0.5
        # indexing, iteration, unpacking and sum() see the elements in order
        e0, e1 = povm.elements
        assert np.array_equal(e0, p0) and np.array_equal(povm.elements[1], p1)
        assert len(povm) == 2 and povm.dim == 2
        assert np.array_equal(sum(povm.elements), np.eye(2))

    def test_unequal_or_missing_elements_rejected(self):
        with pytest.raises(DimensionError):
            Povm((np.eye(2) / 2, np.eye(3) / 2))
        with pytest.raises(ValueError, match="at least one"):
            Povm(())
        with pytest.raises(ValueError, match="at least one"):
            Povm(np.zeros((0, 2, 2)))

    def test_vectors_and_non_square_elements_rejected(self):
        with pytest.raises(DimensionError):
            Povm((np.array([0.5, 0.5]), np.array([0.5, 0.5])))
        with pytest.raises(DimensionError):
            Povm(np.eye(2))
        with pytest.raises(DimensionError):
            Povm(np.zeros((2, 2, 3)))

    def test_completeness_dev_is_the_validated_read_only_deviation(self):
        u = haar_unitary(3, SeededRng(42).generator())
        povm = Povm(tuple(np.outer(u[:, j], u[:, j].conj()) for j in range(3)))
        want = float(np.max(np.abs(sum(povm.elements) - np.eye(3))))
        assert povm.completeness_dev == want and 0.0 < want < 1e-14
        exact = Povm((np.diag([1.0, 0.25]), np.diag([0.0, 0.75])))
        assert exact.completeness_dev == 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            povm.completeness_dev = 0.0


class TestKrausToProcess:
    def test_identity_channel(self):
        d = 3
        x = kraus_to_process(KrausChannel((np.eye(d, dtype=complex),))).x
        probe = maximally_entangled_input(d)
        expected = d * np.outer(probe.amplitudes, probe.amplitudes.conj())
        assert np.allclose(x, expected, atol=1e-12)
        assert abs(np.trace(x).real - d) < 1e-12
        assert np.allclose(partial_trace_1(x, d, d), np.eye(d), atol=1e-12)

    def test_hadamard_rank_one(self):
        pm = kraus_to_process(KrausChannel((HADAMARD,)))
        w = np.linalg.eigvalsh(pm.x)
        assert np.sum(w > 1e-10) == 1
        assert pm.trace_preserving
        from aqtomo.fidelity import fidelity, process_scenario

        assert fidelity(pm.x, pm.x, process_scenario(2)) == 1.0

    def test_phase_damping_0989(self):
        pm = kraus_to_process(phase_damping(0.989))
        w = np.linalg.eigvalsh(pm.x)
        assert np.sum(w > 1e-10) == 2
        assert pm.trace_preserving

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(DimensionError):
            KrausChannel((np.eye(2, dtype=complex), np.eye(3, dtype=complex)))


class TestApplyChannel:
    def test_identity(self):
        gen = SeededRng(21).generator()
        rho = random_density(gen, 4)
        out = apply_channel(KrausChannel((np.eye(4, dtype=complex),)), rho)
        assert np.allclose(out.mat, rho.mat, atol=1e-12)

    def test_full_dephasing_kills_coherence(self):
        plus = pure_state(np.array([1.0, 1.0]))
        out = apply_channel(phase_damping(1.0), plus)
        assert np.allclose(out.mat, np.diag([0.5, 0.5]), atol=1e-12)

    def test_lossy_dephasing_on_mixed(self):
        out = apply_channel(lossy_dephasing(), DensityMatrix(np.eye(2) / 2))
        assert np.allclose(out.mat, np.diag([0.5, 1 / 3]), atol=1e-12)
        assert out.sub_unit and abs(out.trace - 5 / 6) < 1e-12

    def test_kraus_and_process_paths_agree(self):
        gen = SeededRng(22).generator()
        for tp in (True, False):
            ch = random_channel(gen, 3, 2, tp=tp)
            pm = kraus_to_process(ch)
            rho = random_density(gen, 3)
            assert np.allclose(
                apply_channel(ch, rho).mat,
                apply_process_matrix(pm, rho).mat,
                atol=1e-9,
            )


class TestExtendedChannel:
    def test_identity(self):
        gen = SeededRng(23).generator()
        sigma = random_density(gen, 4)
        out = apply_extended_channel(KrausChannel((np.eye(2, dtype=complex),)), sigma)
        assert np.allclose(out.mat, sigma.mat, atol=1e-12)

    def test_operator_schmidt_inversion(self):
        # Tr_B[(I (x) B_m^dag) sigma_out] / s_m recovers E(A_m) for every
        # operator-Schmidt component of a full-Schmidt input
        gen = SeededRng(24).generator()
        d = 2
        ch = random_channel(gen, d, 2)
        state = random_full_schmidt(gen, d)
        sigma_in = state.density().mat
        sigma_out = apply_extended_channel(ch, state.density()).mat
        # operator-Schmidt decomposition via realignment SVD:
        # sigma_in = sum_m s_m A_m (x) B_m with orthonormal operator bases
        r = sigma_in.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)
        u, s, vh = np.linalg.svd(r)
        assert np.sum(s > 1e-10) == d * d  # full operator-Schmidt number
        for m in range(d * d):
            a_m = u[:, m].reshape(d, d)
            b_m = vh[m].reshape(d, d)
            lhs = partial_trace_2(kron(np.eye(d), b_m.conj().T) @ sigma_out, d, d)
            rhs = s[m] * sum(k @ a_m @ k.conj().T for k in ch.operators)
            assert np.allclose(lhs, rhs, atol=1e-9)


class TestChoiState:
    def test_identity_gives_bell(self):
        rho_e = choi_state(KrausChannel((np.eye(2, dtype=complex),)))
        bell = pure_state(np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2))
        assert np.allclose(rho_e.mat, bell.mat, atol=1e-12)

    def test_scaled_choi_equals_process(self):
        gen = SeededRng(25).generator()
        for _ in range(25):
            d = int(gen.integers(2, 4))
            ch = random_channel(gen, d, int(gen.integers(1, 4)), tp=bool(gen.integers(2)))
            assert np.allclose(
                d * choi_state(ch).mat, kraus_to_process(ch).x, atol=1e-9
            )

    def test_lossy_dephasing_trace(self):
        # Tr(rho_E) = sum_i ||A_i||_F^2 / d = (4/3 + 1/3) / 2
        rho_e = choi_state(lossy_dephasing())
        assert abs(rho_e.trace - 5 / 6) < 1e-12


class TestSchmidt:
    def test_maximally_entangled(self):
        state = maximally_entangled_input(3)
        assert np.allclose(state.coefficients, np.ones(3) / np.sqrt(3))

    def test_product_state(self):
        h, _, _ = schmidt_decompose(np.array([1.0, 0, 0, 0]), 2, 2)
        assert np.allclose(h, [1.0, 0.0])

    def test_reconstruction(self):
        gen = SeededRng(26).generator()
        for _ in range(10):
            psi = gen.standard_normal(9) + 1j * gen.standard_normal(9)
            psi /= np.linalg.norm(psi)
            h, u, v = schmidt_decompose(psi, 3, 3)
            rebuilt = sum(
                h[i] * kron(u[:, i : i + 1], v[:, i : i + 1]).ravel() for i in range(3)
            )
            assert np.linalg.norm(rebuilt - psi) < 1e-8
            assert abs(np.sum(h**2) - 1.0) < 1e-9

    def test_norm_enforced(self):
        with pytest.raises(ValueError):
            schmidt_decompose(np.array([1.0, 1.0, 0, 0]), 2, 2)


class TestProbeInverse:
    """``I (x) U* H^-1 V^dag``, which undoes the entangled input of AAPT."""

    def test_equals_the_formula_once_and_read_only(self):
        gen = SeededRng(31).generator()
        psi = gen.standard_normal(9) + 1j * gen.standard_normal(9)
        state = BipartitePureState(psi / np.linalg.norm(psi), 3, 3)
        h, u, v = state.coefficients, state.basis_a, state.basis_b
        k = u.conj() @ np.diag(1.0 / h) @ v.conj().T
        inverse = state.probe_inverse
        assert np.array_equal(inverse, np.kron(np.eye(3, dtype=complex), k))
        assert state.probe_inverse is inverse
        assert not inverse.flags.writeable
        with pytest.raises(ValueError):
            inverse[0, 0] = 1.0

    def test_adjoint_is_cached_read_only(self):
        state = maximally_entangled_input(3)
        adjoint = state.probe_inverse_adjoint
        assert np.array_equal(adjoint, dagger(state.probe_inverse))
        assert state.probe_inverse_adjoint is adjoint
        assert not adjoint.flags.writeable

    def test_product_state_rejected(self):
        state = BipartitePureState(np.array([1.0, 0, 0, 0]), 2, 2)
        with pytest.raises(DegenerateInputError):
            state.probe_inverse


class TestBornProbabilities:
    def test_z_basis_on_ground_state(self):
        povm = cube_povm(1)[2]  # z setting
        p = born_probabilities(pure_state(np.array([1.0, 0.0])), povm)
        assert np.allclose(p, [1.0, 0.0], atol=1e-12)

    def test_maximally_mixed(self):
        gen = SeededRng(27).generator()
        rho = DensityMatrix(np.eye(4) / 4)
        for povm in cube_povm(2)[:3]:
            p = born_probabilities(rho, povm)
            expected = [np.trace(e).real / 4 for e in povm.elements]
            assert np.allclose(p, expected, atol=1e-12)

    def test_sums_to_trace(self):
        gen = SeededRng(28).generator()
        rho = random_density(gen, 4)
        for povm in cube_povm(2):
            assert abs(born_probabilities(rho, povm).sum() - 1.0) < 1e-8
        sub = DensityMatrix(0.6 * rho.mat, sub_unit=True)
        p = born_probabilities(sub, cube_povm(2)[0])
        assert abs(p.sum() - 0.6) < 1e-8

    def test_three_valued_detector_complete_on_random_pure_state(self):
        from aqtomo.experiments.targets import builtin_target

        detector = builtin_target("qdt-three-valued").povm
        psi = haar_unitary(4, SeededRng(30).generator())[:, 0]
        p = born_probabilities(pure_state(psi), detector)
        assert abs(p.sum() - 1.0) < 1e-8


class TestMaximallyEntangledInput:
    def test_bell_properties(self):
        state = maximally_entangled_input(2)
        assert state.operator_schmidt_number() == 4
        assert state.schmidt_number == 2
        assert abs(state.density().trace - 1.0) < 1e-12

    def test_full_schmidt_pure_is_entangled(self):
        state = maximally_entangled_input(2)
        # reduced state of an entangled pure state is mixed
        red = partial_trace_2(state.density().mat, 2, 2)
        assert np.linalg.eigvalsh(red)[0] > 0.4


class TestTracePreservation:
    def test_tp_iff_partial_trace_identity(self):
        gen = SeededRng(29).generator()
        for _ in range(10):
            tp = bool(gen.integers(2))
            ch = random_channel(gen, 2, 2, tp=tp)
            q = partial_trace_1(kraus_to_process(ch).x, 2, 2)
            if ch.tp_flag:
                assert np.max(np.abs(q - np.eye(2))) <= 1e-8
            else:
                w = np.linalg.eigvalsh(q)
                assert w[-1] <= 1.0 + 1e-8 and w[0] < 1.0 - 1e-6


class TestIdentitySemantics:
    """Value objects hold arrays, so they compare and hash by identity."""

    @staticmethod
    def _twins():
        eye = np.eye(2, dtype=complex)
        bell = np.array([1, 0, 0, 1]) / np.sqrt(2)
        return {
            "DensityMatrix": lambda: DensityMatrix(eye / 2),
            "Povm": lambda: Povm((eye / 2, eye / 2)),
            "KrausChannel": lambda: KrausChannel((HADAMARD,)),
            "ProcessMatrix": lambda: kraus_to_process(KrausChannel((HADAMARD,))),
            "BipartitePureState": lambda: BipartitePureState(bell, 2, 2),
        }

    @pytest.mark.parametrize(
        "cls",
        ["DensityMatrix", "Povm", "KrausChannel", "ProcessMatrix", "BipartitePureState"],
    )
    def test_equal_content_compares_unequal_without_raising(self, cls):
        make = self._twins()[cls]
        a, b = make(), make()
        assert type(a).__name__ == cls
        assert a == a and not a != a
        assert a != b and not a == b
        assert hash(a) == hash(a) and len({a, b}) == 2

    @pytest.mark.parametrize(
        "name", ["qst-rank1-8d", "qdt-three-valued", "aapt-damping-third"]
    )
    def test_targets_hash(self, name):
        from aqtomo.experiments import builtin_target

        target = builtin_target(name)
        assert hash(target) == hash(target) and target == target


class TestValidatedSpectrum:
    """Validation keeps the ascending spectrum of the array it stores."""

    def test_spectrum_equals_eigvalsh_of_the_stored_array(self):
        gen = SeededRng(140).generator()
        a = gen.standard_normal((4, 4)) + 1j * gen.standard_normal((4, 4))
        rho = DensityMatrix(a @ a.conj().T / np.trace(a @ a.conj().T).real)
        povm = Povm((np.diag([0.2, 0.0, 0.5, 1.0]), np.diag([0.8, 1.0, 0.5, 0.0])))
        process = kraus_to_process(KrausChannel((HADAMARD,)))
        for value, mat in ((rho, rho.mat), (povm, povm.elements), (process, process.x)):
            assert np.array_equal(value.eigenvalues, np.linalg.eigvalsh(mat))
        assert povm.eigenvalues.shape == (2, 4)
        assert np.all(np.diff(povm.eigenvalues, axis=-1) >= 0.0)

    def test_process_keeps_its_partial_trace(self):
        process = kraus_to_process(lossy_dephasing())
        q = process.partial_trace
        assert np.array_equal(q, partial_trace_1(process.x, 2, 2))
        assert not q.flags.writeable
        assert np.array_equal(process.partial_trace_eigenvalues, np.linalg.eigvalsh(q))
        assert not process.trace_preserving
        assert kraus_to_process(KrausChannel((HADAMARD,))).trace_preserving
