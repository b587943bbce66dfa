"""Gram-matrix completion and unitary alignment of vector families."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionError,
    HypothesisError,
    InvalidTargetError,
    NotPSDError,
    ParameterError,
)
from .linalg import _adjoint, _transpose, _unitary_eig, _vecdot, dagger, psd_sqrt

NORMALIZED_FAMILY_TOL = 1e-12
# Singular values of the aligned src rows below this fraction of the largest
# count as zero: those directions get the minimal-rotation completion.
SRC_RANK_RTOL = 1e-13


@dataclass
class VectorFamily:
    """A finite family of vectors in C^dim, stored as rows of ``vectors``."""

    dim: int
    vectors: np.ndarray

    def __post_init__(self):
        self.vectors = np.atleast_2d(np.asarray(self.vectors, dtype=complex))
        if self.vectors.shape[1] != self.dim:
            raise ParameterError("vector length does not match dim")

    @property
    def size(self) -> int:
        return self.vectors.shape[0]

    def total_weight(self) -> float:
        return float(np.sum(np.abs(self.vectors) ** 2))

    def require_normalized(self):
        _check_weight(self.total_weight())


def _check_weight(weight: float) -> None:
    if weight > 1.0 + NORMALIZED_FAMILY_TOL:
        raise HypothesisError("family weight sum exceeds 1", measured_gap=float(weight) - 1.0)


@dataclass
class GramTarget:
    """Prescribed n x n PSD Gram matrix."""

    n: int
    c: np.ndarray

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=complex)
        if self.c.shape != (self.n, self.n):
            raise ParameterError("target shape does not match n")
        w = np.linalg.eigvalsh((self.c + dagger(self.c)) / 2)
        if w.size and w[0] < -1e-10:
            raise InvalidTargetError(f"target has negative eigenvalue {w[0]:.3e}")


def gram_matrix(fam: VectorFamily) -> np.ndarray:
    """Matrix of pairwise inner products, d[i, j] = <xi_i, xi_j>."""
    return _gram(fam.vectors)


def _gram(x: np.ndarray) -> np.ndarray:
    """``gram_matrix`` of each family in a stack of rows (..., n, dim),
    symmetrised: one product per family, so an item of a stack gets the
    bits it gets alone."""
    g = x @ _adjoint(x)
    return (g + _adjoint(g)) / 2


def gram_complete(fam: VectorFamily, target: GramTarget) -> VectorFamily:
    """Vectors eta with <eta_i, eta_j> = c[i, j] and the minimal displacement
    ||eta_i - xi_i||^2 = ((c^1/2 - d^1/2)^2)_ii.

    With x = A S B^* the thin SVD of the family's rows, Omega = A B^* is a
    co-isometry with x = d^1/2 Omega, and eta = c^1/2 Omega.  For singular d
    Omega is one of several polar factors; each satisfies both identities.
    """
    n = target.n
    if fam.size != n:
        raise ParameterError("family size does not match target size")
    if fam.dim < n:
        raise DimensionError(f"need ambient dimension >= {n}, got {fam.dim}")
    fam.require_normalized()
    try:
        c_half = psd_sqrt(target.c)
    except NotPSDError as exc:
        raise InvalidTargetError(str(exc)) from exc
    a, _, bh = np.linalg.svd(fam.vectors, full_matrices=False)
    return VectorFamily(dim=fam.dim, vectors=c_half @ (a @ bh))


def greedy_pivot_select(fam: VectorFamily, m: int) -> list[int]:
    """Pivot indices by iterated maximal residual norm.

    Each step picks the vector with the largest norm after projecting out the
    span of the already-chosen vectors; ties break to the lowest index.  The
    stacked selection (``_greedy_pivots``) on the family alone.
    """
    if m > fam.size:
        raise ParameterError("cannot select more pivots than family members")
    return _greedy_pivots(fam.vectors, m).tolist()


def _greedy_pivots(x: np.ndarray, m: int) -> np.ndarray:
    """``greedy_pivot_select`` of each family in a stack of rows
    (..., n, dim): the pivots as (..., m), every family stepped at once.  A
    chosen row of norm at most 1e-14 is not projected out."""
    residual = x.reshape((-1,) + x.shape[-2:])
    items = np.arange(len(residual))
    chosen = np.zeros(residual.shape[:-1], dtype=bool)
    pivots = np.empty((len(residual), m), dtype=np.intp)
    for step in range(m):
        norms = np.sqrt(_vecdot(residual, residual).real)
        norms[chosen] = -1.0
        best = pivots[:, step] = np.argmax(norms, axis=-1)  # the first maximum
        chosen[items, best] = True
        nv = norms[items, best]
        nv[nv <= 1e-14] = np.inf
        v = residual[items, best] / nv[:, None]
        residual = residual - (residual @ v.conj()[:, :, None]) * v[:, None]
    return pivots.reshape(x.shape[:-2] + (m,))


@dataclass
class AlignmentResult:
    """Unitary U = 1 + V diag(e^{i angles} - 1) V^* aligning two families,
    held as its rotation's eigenpairs, V = ``vectors`` with at most 2k
    orthonormal columns; its certified residual bound, and ``gap``, the
    Gram gap its gate measured below delta."""

    angles: np.ndarray
    vectors: np.ndarray
    residuals: np.ndarray
    bound: float
    full_rank: bool
    gap: float
    pivots: list[int] = field(default_factory=list)

    @property
    def max_residual(self) -> float:
        return float(np.max(self.residuals)) if self.residuals.size else 0.0

    @property
    def unitary(self) -> np.ndarray:
        """The dense U, built on demand."""
        eye = np.eye(len(self.vectors))
        return eye + self.turn(eye).T

    def turn(self, rows: np.ndarray) -> np.ndarray:
        """rows (U - 1)^T: U - 1 applied to each row, through V alone."""
        return _turn(rows, self.angles, self.vectors)


def _turn(rows: np.ndarray, angles: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    return ((rows @ vectors.conj()) * (np.exp(1j * angles) - 1.0)) @ vectors.T


def alignment_bound(n: int, dim: int, delta: float) -> float:
    """Certified residual bound for families of size n at Gram gap delta.

    Full-rank case: sqrt(n * delta) via the square-root modulus of the
    completion step.  Rank-deficient case (dim < n): m * eps + (m+1)^2 * delta
    with m = dim pivots and eps = sqrt(m * delta).  A delta that is NaN or
    negative raises ``ParameterError``.
    """
    if not delta >= 0:
        raise ParameterError(f"Gram gap delta must be >= 0, got {delta}")
    if dim >= n:
        return float(np.sqrt(n * delta))
    m = dim
    eps = float(np.sqrt(m * delta))
    return m * eps + (m + 1) ** 2 * delta


def alignment_gate(src: VectorFamily, dst: VectorFamily, delta: float) -> float:
    """The Gram gap max |<xi_i, xi_j> - <eta_i, eta_j>| of two families of
    one size and dimension, each of total weight at most 1, when it is
    below delta; ``HypothesisError`` carrying the excess weight or the gap
    otherwise.  The weights and the gap are ``_gate_measures``'s."""
    if src.dim != dst.dim or src.size != dst.size:
        raise ParameterError("families must share dimension and size")
    weights, gap = _gate_measures(np.stack([src.vectors, dst.vectors]))
    return _check_gate(*weights, gap, delta)


def _gate_measures(f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The family weights sum |f_ij|^2, shape (2, ...), and the Gram gap,
    shape (...), of the pairs of families f = [x, y] of shape
    (2, ..., n, dim), over the leading axes; the gap of empty families is
    0.0.  Each pair gets the bits it gets alone, and the weights are
    ``VectorFamily.total_weight``'s."""
    g = _gram(f)
    gap = np.abs(g[0] - g[1]).max(axis=(-2, -1), initial=0.0)
    return np.sum(np.abs(f) ** 2, axis=(-2, -1)), gap


def _check_gate(weight_x: float, weight_y: float, gap: float, delta: float) -> float:
    """The gate of ``alignment_gate`` on one pair's measures: the gap when
    both weights are at most 1 and the gap is below delta, else the
    ``HypothesisError`` of the first that is not."""
    _check_weight(weight_x)
    _check_weight(weight_y)
    gap = float(gap)
    if gap >= delta:
        raise HypothesisError(
            f"Gram gap {gap:.3e} is not below delta={delta:.3e}", measured_gap=gap
        )
    return gap


def align_unitary(src: VectorFamily, dst: VectorFamily, delta: float) -> AlignmentResult:
    """Unitary U with U xi_i close to eta_i, given Gram matrices within delta.

    One construction for both regimes; only the aligned rows differ: all of
    them when dim >= n, the ``greedy_pivot_select`` pivots when dim < n.  With
    x = A S B^* the thin SVD of the chosen src rows and Omega_x, Omega_y the
    row-polar factors of the src and dst rows, the frames F = (A_k^* Omega)^T
    span the src rows' range (k its numerical rank) and its image in the
    Gram completion of dst.  Then U = polar(F_y F_x^* + (1 - P_y)(1 - P_x))
    with P = F F^*: it maps F_x onto F_y, so every chosen src row onto the
    completion, and is the minimal rotation between the complements.  The
    remaining residuals obey ``alignment_bound``.

    That M is the identity off span(F_x, F_y), which M and M^* keep; so with
    Q from one reduced QR of [F_x, F_y], polar(M) = 1 + Q (polar(C) - 1) Q^*
    for C = Q^* M Q, at most 2k x 2k, whose eigenpairs (lam, z) give
    ``angles`` = angle lam and ``vectors`` = Q z.  The rotation is the
    stacked core ``_alignment_rotation`` on one pair, with no leading axis.
    """
    gap = alignment_gate(src, dst, delta)
    angles, vectors, pivots = _alignment_rotation(src.vectors, dst.vectors)
    moved = src.vectors + _turn(src.vectors, angles, vectors)
    return AlignmentResult(
        angles=angles,
        vectors=vectors,
        residuals=np.linalg.norm(moved - dst.vectors, axis=1),
        bound=alignment_bound(src.size, src.dim, delta),
        full_rank=src.dim >= src.size,
        gap=gap,
        pivots=[] if pivots is None else pivots.tolist(),
    )


def _alignment_rotation(x: np.ndarray, y: np.ndarray) -> tuple:
    """The rotations of ``align_unitary`` for a stack of families x, y of
    shape (..., n, dim) whose gates have passed: their angles (..., p) and
    vectors (..., dim, p) from ``_polar_alignment`` of the aligned rows,
    and those rows' pivots (..., dim) from one stacked greedy selection
    (``_greedy_pivots``) when dim < n, None when dim >= n."""
    n, dim = x.shape[-2:]
    if dim >= n:
        return *_polar_alignment(x, y), None
    pivots = _greedy_pivots(x, dim)
    # Each item's pivot rows: its leading indices, broadcast against pivots.
    rows = (*np.indices(pivots.shape[:-1] + (1,), sparse=True)[:-1], pivots)
    return *_polar_alignment(x[rows], y[rows]), pivots


def _polar_alignment(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rotation of ``align_unitary`` for aligned src rows x and dst rows
    y of shape (..., rows, dim), broadcasting over the leading axes: its
    angles, shape (..., p), and vectors, shape (..., dim, p), with
    p = min(dim, 2k) for k the largest numerical rank of the src rows in the
    stack.  Each item's frames are zero beyond its own rank k_i, so the
    QR and C act as the identity on the 2 (k - k_i) extra directions, whose
    angles are 0 up to rounding: every item gets its own rotation, an item
    of rank 0 the identity."""
    a, s, bh = np.linalg.svd(x, full_matrices=False)
    ay, _, byh = np.linalg.svd(y, full_matrices=False)
    own = s > SRC_RANK_RTOL * s[..., :1]
    k = int(own.sum(axis=-1).max())
    fx = _transpose(bh[..., :k, :]) * own[..., None, :k]  # = (A_k^* Omega_x)^T
    fy = _transpose(_adjoint(a[..., :k]) @ ay @ byh) * own[..., None, :k]
    q, rq = np.linalg.qr(np.concatenate([fx, fy], axis=-1))
    gx, gy = rq[..., :k], rq[..., k:]  # = Q^* F_x, Q^* F_y
    eye = np.eye(q.shape[-1])
    c = gy @ _adjoint(gx) + (eye - gy @ _adjoint(gy)) @ (eye - gx @ _adjoint(gx))
    uc, _, vch = np.linalg.svd(c)
    lam, z = _unitary_eig(uc @ vch)
    return np.angle(lam), q @ z
