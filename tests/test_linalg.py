import itertools

import numpy as np
import pytest

from aqtomo import linalg
from aqtomo.linalg import (
    DimensionError,
    NotHermitianError,
    NotPSDError,
    eig_reconstruct,
    haar_unitary,
    hermitian_part,
    inv_sqrt,
    kron,
    matrix_sqrt,
    partial_trace_1,
    partial_trace_2,
    project_psd,
    unvec,
    vec,
)
from aqtomo.measurement import SeededRng


def rand_complex(gen, d, m=None):
    return gen.standard_normal((d, m or d)) + 1j * gen.standard_normal((d, m or d))


def rand_hermitian(gen, d):
    a = rand_complex(gen, d)
    return (a + a.conj().T) / 2


def rand_psd(gen, d):
    a = rand_complex(gen, d)
    return a @ a.conj().T


class TestHermitianEig:
    def test_diagonal(self):
        w, v = linalg._eigh(np.diag([1.0, 3.0, 2.0]).astype(complex))
        assert np.allclose(w, [3.0, 2.0, 1.0])
        # eigenvectors are a permutation of the identity columns
        assert np.allclose(np.abs(v), np.eye(3)[:, [1, 2, 0]])

    def test_identity_degenerate(self):
        w, v = linalg._eigh(np.eye(4, dtype=complex))
        assert np.allclose(w, np.ones(4))
        assert np.allclose(v.conj().T @ v, np.eye(4), atol=1e-9)

    def test_reconstruction_random(self):
        gen = SeededRng(42).generator()
        for _ in range(20):
            h = rand_hermitian(gen, 8)
            w, v = linalg._eigh(h)
            assert np.all(np.diff(w) <= 1e-12)
            assert np.allclose(v.conj().T @ v, np.eye(8), atol=1e-9)
            err = np.linalg.norm((v * w) @ v.conj().T - h)
            assert err <= 1e-9 * max(np.linalg.norm(h), 1.0)

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            linalg._eigh(np.ones((2, 3)))

    def test_non_hermitian_rejected(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(NotHermitianError):
            linalg._eigh(m)


class TestMatrixSqrt:
    def test_diagonal(self):
        assert np.allclose(matrix_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))

    def test_identity(self):
        assert np.allclose(matrix_sqrt(np.eye(5)), np.eye(5))

    def test_squaring_oracle(self):
        gen = SeededRng(7).generator()
        for _ in range(10):
            p = rand_psd(gen, 6)
            r = matrix_sqrt(p)
            assert np.linalg.norm(r @ r - p) <= 1e-8 * np.linalg.norm(p)

    def test_not_psd_rejected(self):
        with pytest.raises(NotPSDError):
            matrix_sqrt(np.diag([1.0, -0.5]))


class TestInvSqrt:
    def test_diagonal(self):
        assert np.allclose(inv_sqrt(np.diag([4.0, 1.0])), np.diag([0.5, 1.0]))

    def test_identity(self):
        assert np.allclose(inv_sqrt(np.eye(3)), np.eye(3))

    def test_singular_matrix_raises(self):
        # the smallest eigenvalue at or below INV_SQRT_FLOOR * d is singular
        floor = linalg.INV_SQRT_FLOOR * 2
        for smallest in (0.0, -1e-16, floor):
            with pytest.raises(np.linalg.LinAlgError, match="inv_sqrt: eigenvalue"):
                inv_sqrt(np.diag([1.0, smallest]))

    def test_just_above_the_floor_is_inverted(self):
        smallest = 2.0 * linalg.INV_SQRT_FLOOR * 2
        out = inv_sqrt(np.diag([1.0, smallest]))
        assert np.allclose(out, np.diag([1.0, 1.0 / np.sqrt(smallest)]), rtol=1e-12)

    def test_inverse_property(self):
        gen = SeededRng(8).generator()
        p = rand_psd(gen, 5) + 0.5 * np.eye(5)
        r = inv_sqrt(p)
        assert np.linalg.norm(r @ p @ r - np.eye(5)) <= 1e-8

    def test_well_conditioned_stack_is_inverted_matrix_by_matrix(self):
        gen = SeededRng(9).generator()
        stack = np.stack([rand_psd(gen, 4) + 0.5 * np.eye(4) for _ in range(3)])
        out = inv_sqrt(stack)
        for m, r in zip(stack, out):
            assert np.linalg.norm(r @ m @ r - np.eye(4)) <= 1e-8
            assert np.array_equal(r, inv_sqrt(m))

    def test_singular_stage2_correction_raises(self):
        from aqtomo.estimators import qpt_stage2_tp

        # Tr_1 of diag(1, 0, 0, 0) is diag(1, 0): no rescaling makes it I
        g = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
        with pytest.raises(np.linalg.LinAlgError):
            qpt_stage2_tp(g)


class TestPartialTrace:
    def test_tensor_identities(self):
        gen = SeededRng(9).generator()
        a, b = rand_complex(gen, 3), rand_complex(gen, 4)
        ab = kron(a, b)
        assert np.allclose(partial_trace_1(ab, 3, 4), np.trace(a) * b, atol=1e-9)
        assert np.allclose(partial_trace_2(ab, 3, 4), np.trace(b) * a, atol=1e-9)

    def test_vec_outer_identity(self):
        gen = SeededRng(10).generator()
        a, b = rand_complex(gen, 4), rand_complex(gen, 4)
        outer = np.outer(vec(a), vec(b).conj())
        assert np.allclose(partial_trace_1(outer, 4, 4), a @ b.conj().T, atol=1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            partial_trace_1(np.eye(6), 2, 2)


class TestVec:
    def test_column_stacking(self):
        m = np.array([[1, 2], [3, 4]], dtype=complex)
        assert np.allclose(vec(m), [1, 3, 2, 4])

    def test_abc_identity(self):
        gen = SeededRng(11).generator()
        for _ in range(10):
            a, b, c = (rand_complex(gen, 3) for _ in range(3))
            assert np.allclose(vec(a @ b @ c), kron(c.T, a) @ vec(b), atol=1e-9)

    def test_unvec_roundtrip(self):
        assert np.allclose(unvec(vec(np.eye(3)), 3), np.eye(3))
        gen = SeededRng(12).generator()
        m = rand_complex(gen, 5)
        assert np.allclose(unvec(vec(m), 5), m)

    def test_unvec_length_mismatch(self):
        with pytest.raises(DimensionError):
            unvec(np.ones(5), 2)


class TestKron:
    def test_identity(self):
        assert np.allclose(kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_partial_trace_recovery(self):
        gen = SeededRng(13).generator()
        a, b = rand_complex(gen, 2), rand_complex(gen, 3)
        assert np.allclose(partial_trace_2(kron(a, b), 2, 3), np.trace(b) * a)

    def test_mixed_product(self):
        gen = SeededRng(14).generator()
        a, b, c, d = (rand_complex(gen, 2) for _ in range(4))
        assert np.allclose(kron(a, b) @ kron(c, d), kron(a @ c, b @ d), atol=1e-9)

    def test_equals_numpy_kron_bit_for_bit(self):
        gen = SeededRng(15).generator()
        pairs = [
            (gen.standard_normal((3, 3)), gen.standard_normal((2, 2))),
            (rand_complex(gen, 2), rand_complex(gen, 4)),
            (np.eye(3), rand_complex(gen, 2)),
            (rand_complex(gen, 2), np.eye(2)),
            (rand_complex(gen, 2, 3), gen.standard_normal((4, 1))),
            (np.array([[-1.0, 0.0]]), np.array([[-0.0], [-2.0]])),
        ]
        for a, b in pairs:
            got = kron(a, b)
            want = np.kron(np.asarray(a, complex), np.asarray(b, complex))
            assert got.dtype == want.dtype and np.array_equal(got, want)
            for part in (np.real, np.imag):
                assert np.array_equal(np.signbit(part(got)), np.signbit(part(want)))

    @pytest.mark.parametrize("shape", [(4,), (2, 2, 2)])
    def test_only_matrices(self, shape):
        with pytest.raises(DimensionError):
            kron(np.ones(shape), np.eye(2))
        with pytest.raises(DimensionError):
            kron(np.eye(2), np.ones(shape))


class TestHaarUnitary:
    def test_scalar(self):
        u = haar_unitary(1, SeededRng(1).generator())
        assert abs(abs(u[0, 0]) - 1.0) < 1e-12

    def test_unitarity(self):
        gen = SeededRng(2).generator()
        for d in (2, 3, 8):
            u = haar_unitary(d, gen)
            assert np.linalg.norm(u.conj().T @ u - np.eye(d)) < 1e-9

    def test_first_moment(self):
        # E|U_11|^2 = 1/d for Haar; check within 3 standard errors
        d, samples = 3, 10_000
        gen = SeededRng(3).generator()
        vals = np.array([abs(haar_unitary(d, gen)[0, 0]) ** 2 for _ in range(samples)])
        var = 2.0 / (d * (d + 1)) - 1.0 / d**2
        assert abs(vals.mean() - 1.0 / d) < 3.0 * np.sqrt(var / samples)


def nearest_psd_oracle(h):
    """Best PSD matrix over all subsets of eigenvalues clamped to zero."""
    w, v = np.linalg.eigh(h)
    best, best_dist = None, np.inf
    for pattern in itertools.product([0, 1], repeat=len(w)):
        lam = np.where(np.array(pattern, bool), np.maximum(w, 0.0), 0.0)
        cand = (v * lam) @ v.conj().T
        dist = np.linalg.norm(cand - h)
        if dist < best_dist:
            best, best_dist = cand, dist
    return best


class TestProjectPsd:
    def test_diagonal(self):
        assert np.allclose(project_psd(np.diag([1.0, -0.5])), np.diag([1.0, 0.0]))

    def test_psd_unchanged(self):
        gen = SeededRng(4).generator()
        p = rand_psd(gen, 4)
        assert np.allclose(project_psd(p), p, atol=1e-10)

    def test_nearest_psd_oracle(self):
        gen = SeededRng(5).generator()
        for _ in range(50):
            h = rand_hermitian(gen, 4)
            assert np.allclose(project_psd(h), nearest_psd_oracle(h), atol=1e-9)

    def test_idempotent_and_contractive(self):
        gen = SeededRng(6).generator()
        for _ in range(20):
            h = rand_hermitian(gen, 5)
            p = project_psd(h)
            assert np.allclose(project_psd(p), p, atol=1e-10)
            q = rand_psd(gen, 5)
            assert np.linalg.norm(p - q) <= np.linalg.norm(h - q) + 1e-9


def hermitian_stack(gen, d, k=3):
    return np.stack([rand_hermitian(gen, d) for _ in range(k)])


class TestStackedKernel:
    """A stack goes through one solve and equals per-matrix calls bit for bit."""

    @pytest.mark.parametrize("d", [2, 4, 8, 16])
    def test_eigensolver(self, d):
        stack = hermitian_stack(SeededRng(110, d).generator(), d)
        w, v = linalg._eigh(stack)
        assert w.shape == (3, d) and v.shape == (3, d, d)
        for m, wk, vk in zip(stack, w, v):
            w_one, v_one = linalg._eigh(m)
            assert w_one.ndim == 1
            assert np.array_equal(w_one, wk)
            assert np.array_equal(v_one, vk)

    @pytest.mark.parametrize("d", [2, 4, 8, 16])
    def test_eig_reconstruct(self, d):
        gen = SeededRng(111, d).generator()
        w = gen.standard_normal((3, d))
        v = np.stack([haar_unitary(d, gen) for _ in range(3)])
        stacked = eig_reconstruct(w, v)
        for out, wk, vk in zip(stacked, w, v):
            assert np.array_equal(out, eig_reconstruct(wk, vk))

    @pytest.mark.parametrize("d", [2, 4, 8, 16])
    def test_project_psd(self, d):
        stack = hermitian_stack(SeededRng(112, d).generator(), d)
        stacked = project_psd(stack)
        for out, m in zip(stacked, stack):
            assert np.array_equal(out, project_psd(m))

    @pytest.mark.parametrize("d", [2, 4, 8, 16])
    def test_matrix_sqrt(self, d):
        gen = SeededRng(113, d).generator()
        stack = np.stack([rand_psd(gen, d) for _ in range(3)])
        for out, m in zip(matrix_sqrt(stack), stack):
            assert np.array_equal(out, matrix_sqrt(m))

    def test_one_non_hermitian_matrix_fails_the_stack(self):
        stack = hermitian_stack(SeededRng(114).generator(), 4)
        stack[1, 0, 1] += 0.5
        with pytest.raises(NotHermitianError):
            hermitian_part(stack)
        with pytest.raises(NotHermitianError):
            linalg._eigh(stack)
        with pytest.raises(NotHermitianError):
            project_psd(stack)
        # the check is per matrix: a large neighbour does not hide it
        stack[0] *= 1e9
        with pytest.raises(NotHermitianError):
            hermitian_part(stack)

    @pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf, complex(0.0, np.inf)])
    @pytest.mark.parametrize("where", [(1, 1), (0, 2)], ids=["diagonal", "off-diagonal"])
    def test_one_non_finite_matrix_fails_the_stack(self, entry, where):
        # the finiteness test runs only once the Hermiticity test fails, which
        # any NaN or inf entry forces
        stack = hermitian_stack(SeededRng(116).generator(), 4)
        stack[1][where] = entry
        for m in (stack[1], stack):
            with pytest.raises(ValueError, match="non-finite"):
                hermitian_part(m)
            with pytest.raises(ValueError, match="non-finite"):
                linalg._eigh(m)

    def test_one_non_psd_matrix_fails_the_stack(self):
        gen = SeededRng(115).generator()
        stack = np.stack([rand_psd(gen, 4) for _ in range(3)])
        stack[2] = np.diag([1.0, 0.5, 0.0, -0.1])
        with pytest.raises(NotPSDError):
            matrix_sqrt(stack)


class TestSpectralPerturbationBounds:
    def test_eigenvalue_bounds(self):
        # sorted eigenvalues are 1-Lipschitz in Frobenius norm, elementwise
        # and in l2 (Weyl / Hoffman-Wielandt style bounds)
        gen = SeededRng(15).generator()
        for _ in range(50):
            x, y = rand_hermitian(gen, 6), rand_hermitian(gen, 6)
            wx, wy = np.linalg.eigvalsh(x), np.linalg.eigvalsh(y)
            dist = np.linalg.norm(x - y)
            assert np.max(np.abs(wx - wy)) <= dist + 1e-12
            assert np.sum((wx - wy) ** 2) <= dist**2 + 1e-12


class TestEntangledConjugationIdentity:
    def test_both_sides_agree(self):
        # sum_ij A B|i><j| D^+ C^+ (x) |i><j|
        #   == sum_ij A|i><j|C^+ (x) B^T|i><j|D^*  for all A, B, C, D
        gen = SeededRng(16).generator()
        d = 3
        basis = [
            np.outer(np.eye(d)[:, i], np.eye(d)[:, j]) for i in range(d) for j in range(d)
        ]
        for _ in range(10):
            a, b, c, dd = (rand_complex(gen, d) for _ in range(4))
            lhs = sum(
                kron(a @ b @ e @ dd.conj().T @ c.conj().T, e) for e in basis
            )
            rhs = sum(
                kron(a @ e @ c.conj().T, b.T @ e @ dd.conj()) for e in basis
            )
            assert np.allclose(lhs, rhs, atol=1e-9)
