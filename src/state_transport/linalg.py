"""Dense complex linear algebra primitives.

Everything operates on square complex numpy arrays.  The inner product
convention throughout the library is linear in the first argument:
``inner(x, y) = sum_a x[a] * conj(y[a])``.
"""

from __future__ import annotations

import cmath
import functools
import importlib.util
import math
import numbers
import sys

import numpy as np

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
STATE_TOL = 1e-12
# The generic unit rho of ``_normal_eigenbasis``: Re(rho lambda) tells apart
# the two halves of every conjugate pair lambda, conj(lambda) off the axis.
_TILT = cmath.exp(1j * (math.sqrt(5.0) - 1.0))


def _lazy_module(name: str):
    """The module ``name`` as ``import`` would give it, but executed only at
    its first attribute lookup (the ``importlib.util.LazyLoader`` recipe);
    a module already in ``sys.modules`` is returned as it is."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    parent, _, child = name.rpartition(".")
    setattr(sys.modules[parent], child, module)
    return module


# The library calls nothing in scipy.linalg, so it never executes the module;
# it stays registered for the tools that read ``sys.modules["scipy.linalg"]``,
# such as perfbench's tracer, which wraps its ``schur``.
_scipy_linalg = _lazy_module("scipy.linalg")


def inner(x: np.ndarray, y: np.ndarray) -> complex:
    """Inner product linear in the first argument."""
    return complex(np.vdot(y, x))


def dagger(x: np.ndarray) -> np.ndarray:
    return x.conj().T


def _transpose(x: np.ndarray) -> np.ndarray:
    """x with its last two axes swapped, for a stack of matrices (NumPy 1.x
    has no ``ndarray.mT``)."""
    return x.swapaxes(-1, -2)


def _adjoint(x: np.ndarray) -> np.ndarray:
    """``dagger`` of each matrix in a stack, over the last two axes."""
    return x.conj().swapaxes(-1, -2)


def _matmul_vecdot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return (x.conj()[..., None, :] @ y[..., :, None])[..., 0, 0]


# sum_j conj(x_j) y_j over the last axis, broadcasting over the others:
# ``np.vecdot`` where NumPy has it (2.0 on), else the same sums by matmul.
_vecdot = getattr(np, "vecdot", _matmul_vecdot)


def op_norm(x: np.ndarray) -> float:
    """Largest singular value; 0.0 without an SVD when x is all zeros, as
    it is for an empty x.  The singular values alone, as
    ``np.linalg.norm(x, 2)`` takes them, bit for bit, without its wrapper."""
    x = np.asarray(x, dtype=complex)
    if not x.any():
        return 0.0
    return float(np.linalg.svd(x, compute_uv=False)[0])


def norm_at_most(x: np.ndarray, tol: float) -> bool:
    """``op_norm(x) <= tol``, without the SVD when the Frobenius norm, or
    else ``_norm_upper``, already accepts; the SVD decides only what the
    cheap bound cannot."""
    x = np.asarray(x)
    return bool(np.linalg.norm(x) <= tol or _norm_upper(x) <= tol or op_norm(x) <= tol)


def _norm_upper(x: np.ndarray) -> float:
    """A certified upper bound on the operator norm of x with no SVD: the
    least of the Frobenius norm and the Schur test sqrt(||x||_1 ||x||_inf),
    the largest column sum times the largest row sum of |x|, which is exact
    for a diagonal x.  Like the SVD, each bound is exact up to rounding of
    the order of dim 2^-52 of the norm; 0.0 for an empty x."""
    x = np.asarray(x)
    if not x.size:
        return 0.0
    a = np.abs(x)
    return float(min(np.linalg.norm(x), np.sqrt(np.max(a.sum(axis=0)) * np.max(a.sum(axis=1)))))


def check_square(x: np.ndarray) -> np.ndarray:
    x = np.ascontiguousarray(x, dtype=complex)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {x.shape}")
    if not np.all(np.isfinite(x.view(float))):
        raise NotFiniteError("matrix has non-finite entries")
    return x


def check_hermitian(h: np.ndarray) -> np.ndarray:
    """Validate adjoint symmetry up to ``HERMITIAN_RTOL * ||h||`` and return h."""
    h = check_square(h)
    scale = op_norm(h)
    if op_norm(h - dagger(h)) > max(HERMITIAN_RTOL * scale, 1e-14):
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
    """Raise ``ParameterError`` unless the tolerance eps is a real number,
    finite and > 0."""
    if not (isinstance(eps, numbers.Real) and math.isfinite(eps) and eps > 0):
        raise ParameterError(f"tolerance must be a real number, finite and > 0, got {eps!r}")


def check_state(xi: np.ndarray, dim: int | None = None) -> np.ndarray:
    """xi as a flat unit vector, its norm within ``STATE_TOL`` of 1, of
    length ``dim`` when that is given; a NaN or infinite entry raises
    ``NotFiniteError``."""
    xi = np.ascontiguousarray(xi, dtype=complex).reshape(-1)
    if dim is not None and xi.size != dim:
        raise DimensionError(f"state of length {xi.size} in dimension {dim}")
    if not abs(np.linalg.norm(xi) - 1.0) <= STATE_TOL:
        if not np.all(np.isfinite(xi.view(float))):
            raise NotFiniteError("state vector has non-finite entries")
        raise NotNormalizedError("state vector is not normalized")
    return xi


def psd_sqrt(x: np.ndarray) -> np.ndarray:
    """Square root of a PSD Hermitian matrix, computed spectrally.

    Eigenvalues in [-1e-12, 0) are clamped to zero; eigenvalues below
    -1e-8 * ||x|| are rejected.
    """
    x = check_hermitian(x)
    w, v = np.linalg.eigh((x + dagger(x)) / 2)
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
    """Spectral decomposition of a unitary, by ``_normal_eigenbasis``.

    Returns (eigenvalues, unitary of eigenvectors as columns).  For a
    p x p u unitary up to rounding, Q diag(eigenvalues) Q^* is u within
    4 p^2 eps (eps the machine epsilon) plus rounding; for a u that
    ``check_unitary`` accepts but that is normal only within its
    tolerance, within u's departure from normality, at most about
    ``UNITARY_TOL``.
    """
    return _unitary_eig(check_unitary(u))


def _unitary_eig(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``unitary_eig`` for library-built or already checked unitaries of
    shape (..., p, p), over any leading axes: the diagonal of each
    T = Q^* u Q and the basis Q of ``_normal_eigenbasis`` for N = u alone,
    whose runs hold the entries of T above the rounding level 4 p eps.  A
    pair whose Re(rho lambda) lie a small gap g apart leaves entries of
    about eps / g in the first basis; a coarser level would drop them, and
    Q diag(lambda) Q^* would miss u by as much."""
    q, (t,) = _normal_eigenbasis([u], 4 * max(u.shape[-1], 1) * np.finfo(float).eps)
    return np.diagonal(t, axis1=-2, axis2=-1).copy(), q


def _normal_eigenbasis(ns: list[np.ndarray],
                       tol: float) -> tuple[np.ndarray, list[np.ndarray]]:
    """Unitary Q and the T_k = Q^* N_k Q for commuting normal N_k of shape
    (..., dim, dim), broadcasting over the leading axes: Q diagonalises
    N = sum_k c_k N_k (``_combine``), and with it every N_k unless two joint
    eigenvalue tuples satisfy a linear relation with the weights c_k
    (transcendental, so no algebraic eigenvalues do).  Where the N_k are
    diagonal already, Q is the identity and T_k = N_k.

    Q starts as the ``eigh`` basis of the Hermitian part of rho N for the
    fixed generic unit rho = ``_TILT``, one stacked ``eigh``: its
    eigenspaces are sums of N's, and the tilt keeps the conjugate pairs of
    a real matrix's spectrum, which the Hermitian part of N itself would
    merge, apart.  ``eigh`` mixes only columns of near-equal eigenvalues,
    which it keeps adjacent, so in T = Q^* N Q every off-diagonal entry
    above ``tol`` lies inside a run of adjacent columns (``_coupled_runs``);
    with no such entry Q is done, and T is off-diagonal by at most dim tol
    in Frobenius norm.  Only the items left coupled have their runs rotated,
    one at a time (``_rotate_runs``); the items diagonal already keep the
    identity.
    """
    off = ~np.eye(ns[0].shape[-1], dtype=bool)
    diagonal = ~(functools.reduce(np.logical_or, [a != 0 for a in ns]) & off).any(axis=(-2, -1))
    count = np.count_nonzero(diagonal)
    if count == diagonal.size:
        return np.broadcast_to(~off, ns[0].shape) + 0j, [np.asarray(a, dtype=complex) for a in ns]
    tilted = _TILT * _combine(ns)
    q = np.linalg.eigh((tilted + _adjoint(tilted)) / 2)[1]
    ts = [_adjoint(q) @ a @ q for a in ns]
    t = _combine(ts)
    coupled = (np.abs(t) > tol) & off
    if coupled.any():
        for i in map(tuple, np.argwhere(coupled.any(axis=(-2, -1)))):
            _rotate_runs(q[i], [a[i] for a in ts], t[i], coupled[i])
    if count:
        q[diagonal] = ~off
        for a, n in zip(ts, ns):
            a[diagonal] = n[diagonal]
    return q, ts


def _rotate_runs(q: np.ndarray, ts: list[np.ndarray], t: np.ndarray,
                 coupled: np.ndarray) -> None:
    """The run rotations of ``_normal_eigenbasis`` for one item, applied in
    place to its Q and T_k = Q^* N_k Q, given T = ``_combine`` (T_k) and
    the mask of its off-diagonal entries above the level, both as the
    caller formed them.  Each run of T (``_coupled_runs``) is rotated by
    the ``eigh`` basis of the Hermitian matrix
    (rho B - (rho B)^*) / 2i of its block B, which tells apart the
    eigenvalues mirrored about the tilt, equal in Re(rho lambda) but not in
    Im(rho lambda), unless the first basis leaves a smaller off-diagonal
    entry: a run can also hold a pair that the first ``eigh`` told apart but
    whose Im(rho lambda) agree, which the skew basis mixes.  For normal N a
    run is then diagonal up to rounding.  No unitary removes the
    off-diagonal part of a block that is normal only within a tolerance,
    such as a double eigenvalue with a nilpotent part: T keeps it, up to the
    input's departure from normality, and for generators that do not
    commute it stays of their commutator's order."""
    # Each run's block of T is untouched by the rotations of the runs before.
    for lo, hi in _coupled_runs(*np.nonzero(coupled)):
        block = _TILT * t[lo:hi, lo:hi]
        _, z = np.linalg.eigh((block - dagger(block)) / 2j)
        if _largest_off_diagonal(dagger(z) @ block @ z) > _largest_off_diagonal(block):
            continue
        q[:, lo:hi] = q[:, lo:hi] @ z
        for a in ts:
            a[lo:hi] = dagger(z) @ a[lo:hi]
            a[:, lo:hi] = a[:, lo:hi] @ z


def _largest_off_diagonal(b: np.ndarray) -> float:
    return float(np.max(np.abs(b - np.diag(np.diagonal(b)))))


def _combine(ms: list[np.ndarray]) -> np.ndarray:
    """N = sum_k c_k M_k with the fixed generic weights
    c_k = exp(i sqrt(2) k) / sqrt(1 + k); M_0 itself when it is alone."""
    if len(ms) == 1:
        return ms[0]
    k = np.arange(len(ms))
    return sum(c * m for c, m in zip(np.exp(1j * np.sqrt(2.0) * k) / np.sqrt(1.0 + k), ms))


def _coupled_runs(a: np.ndarray, b: np.ndarray) -> list[tuple[int, int]]:
    """The maximal runs [lo, hi) of two or more adjacent columns that hold
    every coupled entry (a_k, b_k), off the diagonal, of which there is at
    least one: a run ends at column e when no such entry couples a column
    <= e with one beyond it.  The columns past the last coupled one are in
    no run, so they are not scanned."""
    index = np.arange(max(a.max(), b.max()) + 1)
    reach = index.copy()
    np.maximum.at(reach, np.minimum(a, b), np.maximum(a, b))
    ends = np.flatnonzero(np.maximum.accumulate(reach) == index) + 1
    starts = np.append(0, ends[:-1])
    return [(int(lo), int(hi)) for lo, hi in zip(starts, ends) if hi - lo > 1]
