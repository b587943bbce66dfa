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
from .linalg import _adjoint, _transpose, _unitary_eigs, dagger, psd_sqrt

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
        if self.total_weight() > 1.0 + NORMALIZED_FAMILY_TOL:
            raise HypothesisError(
                "family weight sum exceeds 1", measured_gap=self.total_weight() - 1.0
            )


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
    x = fam.vectors
    g = x @ dagger(x)
    return (g + dagger(g)) / 2


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
    span of the already-chosen vectors; ties break to the lowest index.
    """
    if m > fam.size:
        raise ParameterError("cannot select more pivots than family members")
    x = fam.vectors.copy()
    residual = x.copy()
    chosen: list[int] = []
    for _ in range(m):
        norms = np.linalg.norm(residual, axis=1)
        norms[chosen] = -1.0
        best = int(np.argmax(norms))  # argmax takes the first maximum
        chosen.append(best)
        v = residual[best]
        nv = np.linalg.norm(v)
        if nv > 1e-14:
            v = v / nv
            residual = residual - np.outer(residual @ v.conj(), v)
    return chosen


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
    below delta; ``HypothesisError`` carrying it otherwise."""
    if src.dim != dst.dim or src.size != dst.size:
        raise ParameterError("families must share dimension and size")
    src.require_normalized()
    dst.require_normalized()
    gap = float(np.max(np.abs(gram_matrix(src) - gram_matrix(dst)))) if src.size else 0.0
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
    ``angles`` = angle lam and ``vectors`` = Q z: ``_polar_alignment``, on a
    stack of one.
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
        pivots=pivots,
    )


def _alignment_rotation(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """The rotation of ``align_unitary`` for families x, y of shape
    (n, dim) whose gate has passed: its angles and vectors, and the
    aligned rows' pivots, none when dim >= n."""
    n, dim = x.shape
    pivots = [] if dim >= n else greedy_pivot_select(VectorFamily(dim, x), dim)
    rows = slice(None) if dim >= n else pivots
    angles, vectors, _ = _polar_alignment(x[rows], y[rows])
    return angles, vectors, pivots


def _polar_alignment(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rotation of ``align_unitary`` for aligned src rows x and dst rows
    y of shape (..., rows, dim), broadcasting over the leading axes: its
    angles, shape (..., p), and vectors, shape (..., dim, p), with p <= 2k
    for k the largest numerical rank of the src rows in the stack; and a
    mask of the items whose own rank falls short of k, whose rotation this
    is not.  A single item, with no leading axis, is never short."""
    a, s, bh = np.linalg.svd(x, full_matrices=False)
    ay, _, byh = np.linalg.svd(y, full_matrices=False)
    ranks = np.sum(s > SRC_RANK_RTOL * s[..., :1], axis=-1)
    k = int(ranks.max())
    fx = _transpose(bh[..., :k, :])  # = (A_k^* Omega_x)^T
    fy = _transpose(_adjoint(a[..., :k]) @ ay @ byh)
    q, rq = np.linalg.qr(np.concatenate([fx, fy], axis=-1))
    gx, gy = rq[..., :k], rq[..., k:]  # = Q^* F_x, Q^* F_y
    eye = np.eye(q.shape[-1])
    c = gy @ _adjoint(gx) + (eye - gy @ _adjoint(gy)) @ (eye - gx @ _adjoint(gx))
    uc, _, vch = np.linalg.svd(c)
    lam, z = _unitary_eigs(uc @ vch)
    return np.angle(lam), q @ z, ranks < k
