"""Matrix units and block algebras embedded in an ambient full matrix algebra,
and the tensor split that bounds commutators between a level M_s (x) 1_q
and its commutant 1_s (x) M_q."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .linalg import dagger, op_norm


@dataclass
class MatrixUnits:
    """A system (e_ij), i,j < n, of matrix units inside an ambient algebra,
    held in isometry form: e_ij = V (E_ij (x) 1_r) V^*.

    V is ambient x (n r) with orthonormal columns, and block i is
    V_i = V[:, i r:(i+1) r], so e_ij = V_i V_j^* and sum_i e_ii = V V^* is
    the block identity, a projection in the ambient space.  Memory is
    ambient * n r, and every operation is one or two matrix products.
    """

    n: int
    isometry: np.ndarray  # shape (ambient_dim, n * multiplicity)

    def __post_init__(self):
        self.isometry = np.asarray(self.isometry, dtype=complex)
        if self.isometry.ndim != 2 or self.isometry.shape[1] % self.n:
            raise DimensionError(
                f"isometry of shape {self.isometry.shape} has no n = {self.n} blocks"
            )

    @property
    def ambient_dim(self) -> int:
        return self.isometry.shape[0]

    @property
    def multiplicity(self) -> int:
        return self.isometry.shape[1] // self.n

    def _blocks(self) -> np.ndarray:
        """V as a stack of ambient rows, each n x r: [d, i, s] = V_i[d, s]."""
        return self.isometry.reshape(len(self.isometry), self.n, -1)

    def unit(self, i: int, j: int) -> np.ndarray:
        v = self._blocks()
        return v[:, i] @ dagger(v[:, j])

    def block_identity(self) -> np.ndarray:
        return self.isometry @ dagger(self.isometry)

    def embed(self, a: np.ndarray) -> np.ndarray:
        """Ambient element sum_ij a[i, j] e_ij = V (a (x) 1_r) V^* for an n x n
        coefficient matrix."""
        cols = np.asarray(a, dtype=complex).T @ self._blocks()
        return cols.reshape(self.ambient_dim, -1) @ dagger(self.isometry)

    def coefficients_of_state(self, xi: np.ndarray) -> np.ndarray:
        """Matrix of statistics s[i, j] = <e_ij xi, xi> = conj(X) X^T."""
        x = self.corner_families(xi)
        return x.conj() @ x.T

    def corner_families(self, xi: np.ndarray) -> np.ndarray:
        """The n x r rows X = reshape(V^* xi): row j is V_0^* e_1j xi, the
        coordinates of e_1j xi in the corner."""
        return (dagger(self.isometry) @ xi).reshape(self.n, -1)

    def lift_columns(self, q: np.ndarray) -> np.ndarray:
        """V (1_n (x) q), block i of columns V_i q, for an r x k corner matrix
        q: the lift sum_i e_i1 (V_0 h V_0^*) e_1i of h = q d q^* is
        V (1_n (x) q d q^*) V^*, which commutes with every e_ij."""
        return (self._blocks() @ q).reshape(self.ambient_dim, -1)


def full_matrix_units(n: int, multiplicity: int = 1, ambient_dim: int | None = None,
                      offset: int = 0) -> MatrixUnits:
    """Matrix units of M_n acting as M_n (x) 1_multiplicity on a contiguous
    coordinate window starting at ``offset`` of the ambient space."""
    span = n * multiplicity
    if ambient_dim is None:
        ambient_dim = offset + span
    if offset + span > ambient_dim:
        raise DimensionError("block does not fit in the ambient dimension")
    return MatrixUnits(n, np.eye(ambient_dim, span, -offset, dtype=complex))


def conjugated_units(mu: MatrixUnits, u: np.ndarray) -> MatrixUnits:
    """Matrix units u e_ij u^* for a fixed ambient unitary u."""
    return MatrixUnits(mu.n, u @ mu.isometry)


@dataclass
class BlockAlgebra:
    """A direct sum of matrix-unit blocks with pairwise-orthogonal identities."""

    ambient_dim: int
    blocks: list[MatrixUnits]

    def __post_init__(self):
        for b in self.blocks:
            if b.ambient_dim != self.ambient_dim:
                raise DimensionError("block ambient dimension mismatch")


def direct_sum_algebra(sizes: list[int], multiplicities: list[int] | None = None) -> BlockAlgebra:
    """Block algebra (+)_b M_{n_b} (x) 1_{r_b} on consecutive coordinate windows."""
    if multiplicities is None:
        multiplicities = [1] * len(sizes)
    ambient = sum(n * r for n, r in zip(sizes, multiplicities))
    blocks = []
    offset = 0
    for n, r in zip(sizes, multiplicities):
        blocks.append(full_matrix_units(n, r, ambient_dim=ambient, offset=offset))
        offset += n * r
    return BlockAlgebra(ambient_dim=ambient, blocks=blocks)


@dataclass(frozen=True)
class TensorSplit:
    """An element of M_s (x) M_q split as F (x) 1_q + r, its level part and
    the rest, kept as the two norms that bound its commutators with the
    commutant: ``factor`` >= ||F|| and ``rest`` = ||r||_F."""

    factor: float
    rest: float


def _level_part(x: np.ndarray, s: int) -> tuple[np.ndarray, float]:
    """A = Tr_q x / q and ||x - A (x) 1_q||_F: A (x) 1_q is the
    trace-preserving conditional expectation E(x) onto M_s (x) 1_q, which
    touches only the diagonals of x's q x q blocks, so A is subtracted there."""
    q = len(x) // s
    a = np.einsum("iaja->ij", x.reshape(s, q, s, q)) / q
    rest = x.astype(np.result_type(a, float)).reshape(s, q, s, q)
    diagonal = np.arange(q)
    rest[:, diagonal, :, diagonal] -= a
    return a, float(np.linalg.norm(rest))


def level_split(x: np.ndarray, s: int) -> TensorSplit:
    """x = A (x) 1_q + b with A = Tr_q x / q, so ``rest`` is ||x - E(x)||_F,
    the distance of x from the level M_s (x) 1_q; ||A|| is an SVD of the
    s x s factor."""
    a, rest = _level_part(x, s)
    return TensorSplit(op_norm(a), rest)


def commutator_bound(c: float, x: TensorSplit, dim: int) -> float:
    """Certified upper bound on ||[1_s (x) C, x]|| for c >= ||C|| and
    x = A (x) 1_q + b split at the same level s of M_dim.

    [1 (x) C, A (x) 1] = 0 leaves [1 (x) C, b], at most 2 ||C|| ||b||, and
    ||.|| <= ||.||_F: 2 c ||b||_F.  The allowance, dim 2^-52 (||A|| + ||b||_F)
    for each of the two dense products that form [1 (x) C, x], covers their
    rounding and that of the norms that form the bound."""
    return 2.0 * c * x.rest + 2.0 * dim * np.finfo(float).eps * (x.factor + x.rest)
