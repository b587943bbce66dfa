"""Matrix units and block algebras embedded in an ambient full matrix algebra,
and the level distances that bound commutators between a level M_s (x) 1_q
and its commutant 1_s (x) M_q."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ParameterError
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
    """Block algebra (+)_b M_{n_b} (x) 1_{r_b} on consecutive coordinate windows.
    A size or multiplicity below 1, or one multiplicity per size missing,
    raises ``ParameterError``."""
    if multiplicities is None:
        multiplicities = [1] * len(sizes)
    if len(multiplicities) != len(sizes) or not all(
            k >= 1 for k in (*sizes, *multiplicities)):
        raise ParameterError(
            f"block sizes {sizes} and multiplicities {multiplicities} must be >= 1, "
            "one multiplicity per size")
    ambient = sum(n * r for n, r in zip(sizes, multiplicities))
    blocks = []
    offset = 0
    for n, r in zip(sizes, multiplicities):
        blocks.append(full_matrix_units(n, r, ambient_dim=ambient, offset=offset))
        offset += n * r
    return BlockAlgebra(ambient_dim=ambient, blocks=blocks)


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


def level_distances(x: np.ndarray, sizes: list[int]) -> tuple[list[float], float]:
    """The distances d_n = ||x - E_n x||_F of a D x D x from the levels
    M_{s_n} (x) 1 of the nested sizes s_1 | s_2 | ... | D, and
    norm = ||A_1|| + d_1 >= ||E_1 x|| + ||x - E_1 x|| >= ||x||, where
    E_1 x = A_1 (x) 1 and ||A_1|| is one SVD of the s_1 x s_1 factor.

    One ``_level_part`` pass over x at the deepest level s_hi gives A_hi
    and d_hi; each lower level s_lo then takes one pass over the small
    factor, (A_lo, step) = ``_level_part(A_hi, s_lo)``.  The levels nest,
    so E_lo E_hi = E_lo and E_hi is the Hilbert-Schmidt orthogonal
    projection onto its level: x - E_hi x is orthogonal to
    E_hi x - E_lo x = (A_hi - A_lo (x) 1) (x) 1_{D / s_hi}, and
    d_lo^2 = d_hi^2 + (D / s_hi) step^2 exactly.

    Rounding: each entry of A_lo averages, stage by stage, the entries of
    x that the direct pass ``_level_part(x, s_lo)`` sums at once, and each
    of the at most log2 D - 1 Pythagoras steps moves d by about 3 2^-52 d.
    With d <= d_1 <= norm, that moves 2 c d in ``commutator_bound`` by at
    most 6 c (log2 D - 1) 2^-52 norm, below its allowance 2 D 2^-52 norm
    for every D and of the order of the rounding that allowance already
    takes for each norm that forms the bound."""
    a, distances = _level_chain(x, sizes)
    return distances, op_norm(a) + distances[0]


def _level_chain(x: np.ndarray, sizes: list[int]) -> tuple[np.ndarray, list[float]]:
    """A_1 and the distances d_n of ``level_distances``, by its chain."""
    a, d = _level_part(x, sizes[-1])
    distances = [d]
    for hi, lo in zip(sizes[:0:-1], sizes[-2::-1]):
        a, step = _level_part(a, lo)
        distances.insert(0, float(np.sqrt(distances[0] ** 2 + len(x) // hi * step**2)))
    return a, distances


def factor_level_distances(g: np.ndarray, sizes: list[int],
                           dim: int) -> tuple[list[float], float]:
    """``level_distances`` of x = g (x) 1_{dim / m} for an m x m factor g,
    from g alone: no D x D pass.  m nests with the sizes, each of which
    divides m or is a multiple of it, as every level of one tower does.

    x lies in every level s_n that m divides, so d_n = 0 there.  Below m,
    E_n x = E_n g (x) 1_{dim / m}, so d_n = sqrt(dim / m) ||g - E_n g||_F,
    the chain of ``level_distances`` over g, and
    norm = ||A_1|| + d_1 with A_1 the factor of E_1 g, or g itself when it
    lies in level s_1.  The table is the dense one within the rounding
    ``level_distances`` allows its own chain.  For g in level s_1 the
    distances are 0.0, where the dense pass leaves at most the rounding of
    its averages of equal entries, and the norm is ||g||."""
    below = [s for s in sizes if s < len(g)]
    distances = [0.0] * (len(sizes) - len(below))
    if not below:
        return distances, op_norm(g)
    a, chain = _level_chain(g, below)
    scale = np.sqrt(dim // len(g))
    distances[:0] = [float(scale * d) for d in chain]
    return distances, op_norm(a) + distances[0]


def commutator_bound(c: float, distance: float, norm: float, dim: int) -> float:
    """Certified upper bound on ||[1_s (x) C, x]|| for c >= ||C|| and an x
    of M_dim at ``distance`` = ||x - E_s x||_F from the level M_s (x) 1_q,
    with norm >= ||x||.

    [1 (x) C, E_s x] = 0 leaves [1 (x) C, x - E_s x], at most
    2 ||C|| ||x - E_s x||, and ||.|| <= ||.||_F: 2 c distance.  The
    allowance, dim 2^-52 norm for each of the two dense products that form
    [1 (x) C, x], covers their rounding and that of the norms that form the
    bound."""
    return 2.0 * c * distance + 2.0 * dim * np.finfo(float).eps * norm
