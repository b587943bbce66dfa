"""Dense complex linear algebra primitives.

Everything operates on square complex numpy arrays.  The inner product
convention throughout the library is linear in the first argument:
``inner(x, y) = sum_a x[a] * conj(y[a])``.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .errors import (
    DimensionError,
    NotFiniteError,
    NotHermitianError,
    NotNormalizedError,
    NotPSDError,
    NotUnitaryError,
    ParameterError,
)

HERMITIAN_RTOL = 1e-12
UNITARY_TOL = 1e-10


def inner(x: np.ndarray, y: np.ndarray) -> complex:
    """Inner product linear in the first argument."""
    return complex(np.vdot(y, x))


def dagger(x: np.ndarray) -> np.ndarray:
    return x.conj().T


def op_norm(x: np.ndarray) -> float:
    """Largest singular value; 0.0 without an SVD when x is all zeros, as
    it is for an empty x.  The singular values alone, as
    ``np.linalg.norm(x, 2)`` takes them, bit for bit, without its wrapper."""
    x = np.asarray(x, dtype=complex)
    if not x.any():
        return 0.0
    return float(np.linalg.svd(x, compute_uv=False)[0])


def norm_at_most(x: np.ndarray, tol: float) -> bool:
    """``op_norm(x) <= tol``, without the SVD when a cheap upper bound on the
    operator norm already decides it: the Frobenius norm, or the Schur test
    sqrt(||x||_1 ||x||_inf), the largest column sum times the largest row
    sum of |x|, which is exact for a diagonal x.  The SVD decides only what
    neither bound accepts; like it, each bound is exact up to rounding of
    the order of dim 2^-52 of the norm."""
    x = np.asarray(x)
    if np.linalg.norm(x) <= tol:
        return True
    a = np.abs(x)
    if np.sqrt(np.max(a.sum(axis=0)) * np.max(a.sum(axis=1))) <= tol:
        return True
    return op_norm(x) <= tol


def check_square(x: np.ndarray) -> np.ndarray:
    x = np.ascontiguousarray(x, dtype=complex)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {x.shape}")
    if not np.all(np.isfinite(x.view(float))):
        raise NotFiniteError("matrix has non-finite entries")
    return x


def check_hermitian(h: np.ndarray, rtol: float = HERMITIAN_RTOL) -> np.ndarray:
    """Validate adjoint symmetry up to ``rtol * ||h||`` and return h."""
    h = check_square(h)
    scale = op_norm(h)
    if op_norm(h - dagger(h)) > max(rtol * scale, 1e-14):
        raise NotHermitianError("matrix is not Hermitian within tolerance")
    return h


def check_unitary(u: np.ndarray, tol: float = UNITARY_TOL) -> np.ndarray:
    """Validate ||u^* u - 1|| <= tol and return u.  For square u this is
    also ||u u^* - 1|| (``check_isometry``)."""
    return check_isometry(check_square(u), tol)


def check_isometry(v: np.ndarray, tol: float = UNITARY_TOL) -> np.ndarray:
    """Validate that v has orthonormal columns, at most as many as rows,
    and return v: ||v^* v - 1|| <= tol.  The Frobenius norm of v^* v - 1,
    one product, bounds it from above and accepts first; otherwise
    ||v^* v - 1|| = max |s_i^2 - 1| over the singular values, so one SVD
    decides what the Frobenius norm cannot."""
    v = np.ascontiguousarray(v, dtype=complex)
    if v.ndim != 2 or v.shape[1] > v.shape[0]:
        raise DimensionError(f"expected at most as many columns as rows, got {v.shape}")
    if not np.all(np.isfinite(v.view(float))):
        raise NotFiniteError("matrix has non-finite entries")
    if np.linalg.norm(dagger(v) @ v - np.eye(v.shape[1])) <= tol:
        return v
    s = np.linalg.svd(v, compute_uv=False)
    if s.size and np.max(np.abs((s - 1.0) * (s + 1.0))) > tol:
        raise NotUnitaryError("matrix is not unitary within tolerance")
    return v


def check_operators(xs, dim: int) -> None:
    """Raise ``DimensionError`` unless every x in xs is dim x dim."""
    for x in xs:
        if np.shape(x) != (dim, dim):
            raise DimensionError(f"expected {dim} x {dim} operators, got shape {np.shape(x)}")


def _check_tolerance(eps: float) -> None:
    """Raise ``ParameterError`` unless the tolerance eps is finite and > 0."""
    if not (np.isfinite(eps) and eps > 0):
        raise ParameterError(f"tolerance must be finite and > 0, got {eps}")


def check_state(xi: np.ndarray, tol: float = 1e-12, dim: int | None = None) -> np.ndarray:
    """xi as a flat unit vector, of length ``dim`` when that is given."""
    xi = np.ascontiguousarray(xi, dtype=complex).reshape(-1)
    if dim is not None and xi.size != dim:
        raise DimensionError(f"state of length {xi.size} in dimension {dim}")
    if abs(np.linalg.norm(xi) - 1.0) > tol:
        raise NotNormalizedError("state vector is not normalized")
    return xi


def eig_hermitian(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns (eigenvalues ascending, unitary of eigenvectors as columns).
    """
    h = check_hermitian(h)
    w, v = np.linalg.eigh((h + dagger(h)) / 2)
    return w, v


def psd_sqrt(x: np.ndarray) -> np.ndarray:
    """Square root of a PSD Hermitian matrix, computed spectrally.

    Eigenvalues in [-1e-12, 0) are clamped to zero; eigenvalues below
    -1e-8 * ||x|| are rejected.
    """
    w, v = eig_hermitian(x)
    scale = max(abs(w[0]), abs(w[-1])) if w.size else 0.0
    if w.size and w[0] < -max(1e-8 * scale, 1e-12):
        raise NotPSDError(f"matrix has negative eigenvalue {w[0]:.3e}")
    w = np.clip(w, 0.0, None)
    r = (v * np.sqrt(w)) @ dagger(v)
    return (r + dagger(r)) / 2


def expm_skew(h: np.ndarray, t: float = 1.0) -> np.ndarray:
    """exp(i t h) for Hermitian h, via eigendecomposition."""
    return _expm_skew(check_hermitian(h), t)


def _expm_skew(h: np.ndarray, t: float = 1.0) -> np.ndarray:
    """exp(i t h) for a library-built Hermitian h, without validation: the
    exponential v diag(e^{i t w}) v^* of the eigenpairs (w, v) of the
    symmetrised (h + h^*) / 2."""
    w, v = np.linalg.eigh((h + dagger(h)) / 2)
    return (v * np.exp(1j * t * w)) @ dagger(v)


def unitary_eig(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Spectral decomposition of a unitary via complex Schur form.

    Returns (eigenvalues on the unit circle, unitary of eigenvectors).
    A unitary is normal, so its Schur form is diagonal.
    """
    return _unitary_eig(check_unitary(u))


def _unitary_eig(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``unitary_eig`` for a library-built or already checked unitary."""
    t, q = scipy.linalg.schur(u, output="complex")
    return np.diag(t), q

