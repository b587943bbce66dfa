"""Dense complex linear algebra primitives.

Everything operates on square complex numpy arrays.  The inner product
convention throughout the library is linear in the first argument:
``inner(x, y) = sum_a x[a] * conj(y[a])``.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .errors import (
    BranchCutError,
    DimensionError,
    NotFiniteError,
    NotHermitianError,
    NotNormalizedError,
    NotPSDError,
    NotUnitaryError,
    SingularMatrixError,
)

HERMITIAN_RTOL = 1e-12
UNITARY_TOL = 1e-10
LOG_BRANCH_MARGIN = 1e-6


def inner(x: np.ndarray, y: np.ndarray) -> complex:
    """Inner product linear in the first argument."""
    return complex(np.vdot(y, x))


def dagger(x: np.ndarray) -> np.ndarray:
    return x.conj().T


def op_norm(x: np.ndarray) -> float:
    """Largest singular value."""
    x = np.asarray(x, dtype=complex)
    if x.size == 0:
        return 0.0
    return float(np.linalg.norm(x, 2))


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
    u = check_square(u)
    eye = np.eye(u.shape[0])
    if op_norm(dagger(u) @ u - eye) > tol or op_norm(u @ dagger(u) - eye) > tol:
        raise NotUnitaryError("matrix is not unitary within tolerance")
    return u


def check_state(xi: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    xi = np.ascontiguousarray(xi, dtype=complex).reshape(-1)
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


def polar_unitary(z: np.ndarray) -> np.ndarray:
    """Unitary factor z |z|^-1 of an invertible matrix."""
    z = check_square(z)
    u, s, vh = np.linalg.svd(z)
    if s[-1] <= 1e-10:
        raise SingularMatrixError(f"smallest singular value {s[-1]:.3e} too small")
    return u @ vh


def expm_skew(h: np.ndarray, t: float = 1.0) -> np.ndarray:
    """exp(i t h) for Hermitian h, via eigendecomposition."""
    return _expm_skew(check_hermitian(h), t)


def _expm_skew(h: np.ndarray, t: float = 1.0) -> np.ndarray:
    """exp(i t h) for a library-built Hermitian h, without validation: the
    exponential of the symmetrised (h + h^*) / 2."""
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


def logm_unitary(u: np.ndarray) -> np.ndarray:
    """Principal logarithm: Hermitian h with exp(i h) = u, spectrum in (-pi, pi).

    Rejects unitaries whose spectrum comes within an angular margin of -1.
    """
    lam, q = unitary_eig(u)
    angles = np.angle(lam)
    if np.any(np.pi - np.abs(angles) < LOG_BRANCH_MARGIN):
        raise BranchCutError("spectrum touches -1; principal branch undefined")
    h = (q * angles) @ dagger(q)
    return (h + dagger(h)) / 2


def project_unitary_angles(u: np.ndarray) -> np.ndarray:
    """Hermitian generator with angles in (-pi, pi], no branch margin check.

    Used where the construction tolerates an eigenvalue at -1 (norm <= pi
    generators of commutant corner paths).  ``u`` is library-built and is
    not re-checked for unitarity.
    """
    lam, q = _unitary_eig(u)
    h = (q * np.angle(lam)) @ dagger(q)
    return (h + dagger(h)) / 2


def orthonormal_extension(columns: np.ndarray, total: int) -> np.ndarray:
    """Orthonormal basis (as columns) of a ``total``-dimensional subspace
    containing the column span of ``columns``.

    The first columns span range(columns); the remainder is filled from the
    orthogonal complement.  Deterministic via SVD.
    """
    dim = columns.shape[0]
    if total > dim:
        raise ValueError("cannot extend beyond the ambient dimension")
    if columns.size == 0:
        return np.eye(dim, dtype=complex)[:, :total]
    u, s, _ = np.linalg.svd(columns, full_matrices=True)
    rank = int(np.sum(s > 1e-12 * max(1.0, s[0] if s.size else 0.0)))
    if rank > total:
        raise ValueError("column rank exceeds requested dimension")
    return u[:, :total]


def map_families_unitary(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Unitary U with U src[i] = dst[i] for families with equal Gram matrices.

    ``src`` and ``dst`` are (n, dim) arrays of row vectors.  Equality of the
    Gram matrices guarantees existence; the kernel directions are matched by
    a canonical SVD completion.
    """
    src = np.atleast_2d(np.asarray(src, dtype=complex))
    dst = np.atleast_2d(np.asarray(dst, dtype=complex))
    dim = src.shape[1]
    xc = src.T  # columns
    zc = dst.T
    u, s, vh = np.linalg.svd(xc, full_matrices=True)
    scale = s[0] if s.size and s[0] > 0 else 1.0
    rank = int(np.sum(s > 1e-13 * scale))
    # Orthonormal basis of range(xc) expressed as xc @ coeff.
    coeff = vh.conj().T[:, :rank] / s[:rank]
    bx = u[:, :rank]
    bz = zc @ coeff  # isometric image basis (Gram equality)
    # Re-orthonormalize bz to absorb rounding.
    qz, rz = np.linalg.qr(bz)
    bz = qz * np.sign(np.diag(rz).real + (np.diag(rz).real == 0))
    umap = bz @ dagger(bx)
    # Complete on the orthogonal complements with the minimal rotation:
    # the polar factor of the cross-Gram keeps the map near the identity
    # when the two families nearly coincide.
    nx = u[:, rank:]
    uz, sz, _ = np.linalg.svd(np.eye(dim) - bz @ dagger(bz))
    nz = uz[:, : dim - rank]
    if rank < dim:
        cross = dagger(nz) @ nx
        cu, cs, cvh = np.linalg.svd(cross)
        if cs.size and cs[-1] > 1e-10:
            umap = umap + nz @ (cu @ cvh) @ dagger(nx)
        else:
            umap = umap + nz @ dagger(nx)
    return polar_unitary(umap)
