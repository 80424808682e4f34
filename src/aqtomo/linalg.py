"""Dense complex-matrix kernel used by every tomography routine.

All matrices are plain ``numpy.ndarray`` objects with ``complex128`` entries
in row-major (C) order.  Composite systems use the flat-index convention
``|i>_1 (x) |j>_2  <->  i * d2 + j``, which matches both ``numpy.kron`` and
row-major ``reshape``; every tensor operation below assumes it.
"""

from __future__ import annotations

import math

import numpy as np

# Relative tolerance below which an input is accepted as Hermitian / PSD, and
# the larger threshold beyond which we refuse to silently repair it.
HERMITICITY_FAIL_RTOL = 1e-6
PSD_FAIL_RTOL = 1e-6
# Per unit of dimension, the eigenvalue at or below which inv_sqrt raises.
INV_SQRT_FLOOR = 1e-12


class DimensionError(ValueError):
    """Matrix or vector dimensions do not match the operation."""


class NotHermitianError(ValueError):
    """Input deviates from Hermiticity beyond the repairable tolerance."""


class NotPSDError(ValueError):
    """Input has an eigenvalue too negative to be treated as numerical noise."""


def as_generator(rng) -> np.random.Generator:
    """Accept a Generator or anything with ``.generator()``; a list maps to a list."""
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, list):
        return [as_generator(r) for r in rng]
    if hasattr(rng, "generator"):
        return rng.generator()
    raise TypeError(f"expected a Generator or SeededRng, got {type(rng)!r}")


def dagger(m: np.ndarray) -> np.ndarray:
    return m.conj().swapaxes(-1, -2)


def _require_square(m: np.ndarray, stack: bool = False) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or (m.ndim > 2 and not stack) or m.shape[-1] != m.shape[-2]:
        raise DimensionError(f"expected a square matrix, got shape {m.shape}")
    return m


def _system_dim(size: int) -> int:
    """The d of a d^2 x d^2 operator on two d-dimensional systems."""
    d = math.isqrt(size)
    if d * d != size:
        raise DimensionError(f"size {size} is not the square of a dimension")
    return d


def _sq_norms(m: np.ndarray):
    """Squared Frobenius norm of a matrix or of each of a stack, for thresholds."""
    return np.square(np.abs(m)).sum(axis=(-2, -1))


def hermitian_part(m: np.ndarray, check: bool = True) -> np.ndarray:
    """Return (m + m^dag)/2, refusing inputs that are badly non-Hermitian.

    Asymmetry up to ``HERMITICITY_FAIL_RTOL * ||m||`` is treated as numerical
    noise and symmetrized away; anything larger raises
    :class:`NotHermitianError`, and any entry that is not finite
    ``ValueError``.  The Hermiticity test is one norm over the whole input, and
    a NaN or inf entry always fails it, so finiteness is read only after it
    fails.  ``m`` may also be a stack ``(..., d, d)``, each of whose matrices
    is checked on its own.
    """
    m = _require_square(m, stack=True)
    if not check:
        return _symmetrize(m)
    with np.errstate(invalid="ignore"):  # an inf entry's inf - inf; caught below
        sym = _symmetrize(m)
        diff = m - sym
    # fails if ||m - sym||^2 > tol^2 max(||m||^2, 1); the stack's total bounds
    # each.  Any NaN or inf entry leaves a NaN in diff, so the total fails too,
    # and only then is m read for finiteness
    tol2 = HERMITICITY_FAIL_RTOL**2
    if not np.vdot(diff, diff).real <= tol2:
        if not np.isfinite(m).all():  # NaN fails every comparison below
            raise ValueError("matrix has a non-finite entry")
        off = _sq_norms(diff)
        if np.any((off > tol2 * _sq_norms(m)) & (off > tol2)):
            raise NotHermitianError("matrix is not Hermitian within tolerance")
    return sym


def _symmetrize(m: np.ndarray) -> np.ndarray:
    sym = m + dagger(m)
    sym /= 2.0
    return sym


def _eigh(m: np.ndarray):
    """Eigendecomposition ``(w, v)`` of a Hermitian matrix, or of each of a
    stack ``(..., d, d)`` in one solve, eigenvalues ``w`` non-increasing.

    Column ``v[..., :, j]`` pairs with ``w[..., j]``; ``v`` is unitary and
    ``v diag(w) v^dag`` reconstructs the input.  Each matrix is symmetrized
    and checked by :func:`hermitian_part`; the result equals per-matrix
    solves bit for bit.  Degenerate eigenspaces come back with an arbitrary
    orthonormal basis (callers must not rely on a particular one).
    """
    w, v = np.linalg.eigh(hermitian_part(m))
    return w[..., ::-1].copy(), v[..., ::-1].copy()


def _eig_product(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``v diag(w) v^dag`` before :func:`eig_reconstruct` symmetrizes it."""
    return (v * w[..., None, :]) @ dagger(v)


def eig_reconstruct(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Assemble ``v diag(w) v^dag``, symmetrized, for one matrix or a stack."""
    return hermitian_part(_eig_product(w, v), check=False)


def inv_sqrt(m: np.ndarray) -> np.ndarray:
    """Inverse square root of a positive-definite Hermitian matrix, or stack.

    A matrix whose smallest eigenvalue is at or below ``INV_SQRT_FLOOR * d``
    is singular here and raises :class:`numpy.linalg.LinAlgError`.
    """
    m = _require_square(m, stack=True)
    floor = INV_SQRT_FLOOR * m.shape[-1]
    w, v = _eigh(m)
    if (low := np.min(w[..., -1])) <= floor:
        raise np.linalg.LinAlgError(f"inv_sqrt: eigenvalue {low:.3e} <= {floor:.3e}")
    return eig_reconstruct(1.0 / np.sqrt(w), v)


def partial_trace_1(m: np.ndarray, d1: int, d2: int) -> np.ndarray:
    """Trace out system 1 of ``m`` (or each of a stack) on H_1 (x) H_2: d2 x d2."""
    m = _require_square(m, stack=True)
    if m.shape[-1] != d1 * d2:
        raise DimensionError(f"matrix of size {m.shape[-1]} is not {d1}*{d2}")
    return np.einsum("...ijik->...jk", m.reshape(m.shape[:-2] + (d1, d2, d1, d2)))


def partial_trace_2(m: np.ndarray, d1: int, d2: int) -> np.ndarray:
    """Trace out system 2 of ``m`` on H_1 (x) H_2, returning a d1 x d1 matrix."""
    m = _require_square(m)
    if m.shape[0] != d1 * d2:
        raise DimensionError(f"matrix of size {m.shape[0]} is not {d1}*{d2}")
    return np.einsum("ijkj->ik", m.reshape(d1, d2, d1, d2))


def vec(m: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization: vec([[a,b],[c,d]]) = (a, c, b, d)."""
    return np.asarray(m, dtype=complex).flatten(order="F")


def unvec(v: np.ndarray, d: int) -> np.ndarray:
    """Inverse of :func:`vec` onto a d x d matrix."""
    v = np.asarray(v, dtype=complex).ravel()
    if v.size != d * d:
        raise DimensionError(f"vector of length {v.size} is not {d}^2")
    return v.reshape(d, d, order="F")


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two matrices, equal to ``numpy.kron`` bit for bit."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    if a.ndim != 2 or b.ndim != 2:
        raise DimensionError(f"expected two matrices, got shapes {a.shape}, {b.shape}")
    return _kron(a, b)


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """:func:`kron` of a matrix with each matrix of a stack ``(..., p, q)``."""
    (m, n), (p, q) = a.shape, b.shape[-2:]
    prod = a[:, None, :, None] * b[..., None, :, None, :]
    return prod.reshape(b.shape[:-2] + (m * p, n * q))


def haar_unitary(d: int, rng) -> np.ndarray:
    """Haar-random d x d unitary via QR of a complex Ginibre matrix.

    The phases of R's diagonal are absorbed into Q, which makes the
    distribution exactly Haar.  Deterministic for a fixed generator state.
    """
    if d < 1:
        raise DimensionError("dimension must be >= 1")
    gen = as_generator(rng)
    z = (gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r).copy()
    diag[diag == 0] = 1.0
    return q * (diag / np.abs(diag))


def project_psd(m: np.ndarray) -> np.ndarray:
    """Frobenius-nearest PSD matrix, or stack: clamp negative eigenvalues to zero."""
    w, v = _eigh(np.asarray(m, dtype=complex))
    return eig_reconstruct(np.maximum(w, 0.0), v)
