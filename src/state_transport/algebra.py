"""Matrix units and block algebras embedded in an ambient full matrix algebra."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionError
from .linalg import dagger, op_norm

UNIT_RELATION_TOL = 1e-10


@dataclass
class MatrixUnits:
    """A system (e_ij), i,j < n, of matrix units inside an ambient algebra.

    e_ij e_kl = delta_jk e_il and sum_i e_ii is the block identity, a
    projection in the ambient space (the identity itself when the block
    spans the ambient algebra's unit).
    """

    n: int
    units: np.ndarray  # shape (n, n, ambient_dim, ambient_dim)

    def __post_init__(self):
        self.units = np.asarray(self.units, dtype=complex)
        if self.units.shape[:2] != (self.n, self.n):
            raise ValueError("units array must be n x n")

    @property
    def ambient_dim(self) -> int:
        return self.units.shape[2]

    def unit(self, i: int, j: int) -> np.ndarray:
        return self.units[i, j]

    def block_identity(self) -> np.ndarray:
        return np.einsum("iikl->kl", self.units)

    def relation_defect(self) -> float:
        """Largest violation of the multiplication relations."""
        worst = 0.0
        n = self.n
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    for l in range(n):
                        prod = self.units[i, j] @ self.units[k, l]
                        expect = self.units[i, l] if j == k else 0.0
                        worst = max(worst, op_norm(prod - expect))
        return worst

    def embed(self, a: np.ndarray) -> np.ndarray:
        """Ambient element sum_ij a[i, j] e_ij for an n x n coefficient matrix."""
        return np.einsum("ij,ijkl->kl", np.asarray(a, dtype=complex), self.units)

    def coefficients_of_state(self, xi: np.ndarray) -> np.ndarray:
        """Matrix of statistics s[i, j] = <e_ij xi, xi>."""
        n = self.n
        s = np.empty((n, n), dtype=complex)
        for i in range(n):
            for j in range(n):
                s[i, j] = np.vdot(xi, self.units[i, j] @ xi)
        return s

    @cached_property
    def _corner(self) -> np.ndarray:
        e11 = self.unit(0, 0)
        w, v = np.linalg.eigh((e11 + dagger(e11)) / 2)
        return v[:, w > 0.5]

    def corner_basis(self) -> np.ndarray:
        """Orthonormal basis V (ambient x r, as columns) of the range of e_11."""
        return self._corner

    def corner_families(self, xi: np.ndarray) -> np.ndarray:
        """The n x r rows V^* e_1j xi: the coordinates of e_1j xi in the corner."""
        corner = self._corner
        return np.array(
            [dagger(corner) @ (self.unit(0, j) @ xi) for j in range(self.n)]
        )

    def lift_corner(self, h: np.ndarray) -> np.ndarray:
        """sum_i e_i1 (V h V^*) e_1i for an r x r corner matrix h; the lift
        commutes with every e_ij."""
        corner = self._corner
        h_corner = corner @ h @ dagger(corner)
        gen = np.zeros_like(h_corner)
        for i in range(self.n):
            gen = gen + self.unit(i, 0) @ h_corner @ self.unit(0, i)
        return gen


def full_matrix_units(n: int, multiplicity: int = 1, ambient_dim: int | None = None,
                      offset: int = 0) -> MatrixUnits:
    """Matrix units of M_n acting as M_n (x) 1_multiplicity on a contiguous
    coordinate window starting at ``offset`` of the ambient space."""
    span = n * multiplicity
    if ambient_dim is None:
        ambient_dim = offset + span
    if offset + span > ambient_dim:
        raise DimensionError("block does not fit in the ambient dimension")
    units = np.zeros((n, n, ambient_dim, ambient_dim), dtype=complex)
    for i in range(n):
        for j in range(n):
            for s in range(multiplicity):
                units[i, j, offset + i * multiplicity + s,
                      offset + j * multiplicity + s] = 1.0
    return MatrixUnits(n=n, units=units)


@dataclass
class KronUnits:
    """Matrix units of M_n acting as M_n (x) 1_r on a coordinate window,
    generated on demand instead of stored densely.

    Same interface as MatrixUnits; used for large blocks where the dense
    (n, n, ambient, ambient) array would not fit in memory.  The relations
    hold exactly by construction.
    """

    n: int
    multiplicity: int
    ambient_dim: int
    offset: int = 0

    def __post_init__(self):
        if self.offset + self.n * self.multiplicity > self.ambient_dim:
            raise DimensionError("block does not fit in the ambient dimension")

    def unit(self, i: int, j: int) -> np.ndarray:
        r = self.multiplicity
        out = np.zeros((self.ambient_dim, self.ambient_dim), dtype=complex)
        rows = self.offset + i * r + np.arange(r)
        cols = self.offset + j * r + np.arange(r)
        out[rows, cols] = 1.0
        return out

    def block_identity(self) -> np.ndarray:
        out = np.zeros((self.ambient_dim, self.ambient_dim), dtype=complex)
        idx = self.offset + np.arange(self.n * self.multiplicity)
        out[idx, idx] = 1.0
        return out

    def relation_defect(self) -> float:
        return 0.0

    def embed(self, a: np.ndarray) -> np.ndarray:
        out = np.zeros((self.ambient_dim, self.ambient_dim), dtype=complex)
        window = self._window()
        out[window, window] = np.kron(
            np.asarray(a, dtype=complex), np.eye(self.multiplicity)
        )
        return out

    def coefficients_of_state(self, xi: np.ndarray) -> np.ndarray:
        mat = self.corner_families(xi)
        return (mat @ mat.conj().T).T

    def _window(self) -> slice:
        return slice(self.offset, self.offset + self.n * self.multiplicity)

    def corner_basis(self) -> np.ndarray:
        """The range of e_11 is spanned by the coordinate vectors offset,
        ..., offset + r - 1, the eigenvectors ``MatrixUnits`` finds, in order."""
        return np.eye(self.ambient_dim, self.multiplicity, -self.offset, dtype=complex)

    def corner_families(self, xi: np.ndarray) -> np.ndarray:
        """Row j is the j-th r-block of the window: V^* e_1j xi."""
        part = np.array(xi, dtype=complex).reshape(-1)[self._window()]
        return part.reshape(self.n, self.multiplicity)

    def lift_corner(self, h: np.ndarray) -> np.ndarray:
        """sum_i e_i1 (V h V^*) e_1i = 1_n (x) h on the window, written as n
        copies of h on the diagonal blocks (``kron`` would add -0.0 entries)."""
        r = self.multiplicity
        out = np.zeros((self.ambient_dim, self.ambient_dim), dtype=complex)
        idx = self.offset + r * np.arange(self.n)[:, None] + np.arange(r)
        out[idx[:, :, None], idx[:, None, :]] = h
        return out


def conjugated_units(mu: MatrixUnits, u: np.ndarray) -> MatrixUnits:
    """Matrix units u e_ij u^* for a fixed ambient unitary u."""
    uh = u.conj().T
    units = np.einsum("ab,ijbc,cd->ijad", u, mu.units, uh)
    return MatrixUnits(n=mu.n, units=units)


@dataclass
class BlockAlgebra:
    """A direct sum of matrix-unit blocks with pairwise-orthogonal identities."""

    ambient_dim: int
    blocks: list[MatrixUnits]

    def __post_init__(self):
        for b in self.blocks:
            if b.ambient_dim != self.ambient_dim:
                raise DimensionError("block ambient dimension mismatch")

    def identity_projection(self) -> np.ndarray:
        p = np.zeros((self.ambient_dim, self.ambient_dim), dtype=complex)
        for b in self.blocks:
            p = p + b.block_identity()
        return p

    def orthogonality_defect(self) -> float:
        worst = 0.0
        ids = [b.block_identity() for b in self.blocks]
        for a in range(len(ids)):
            for b in range(a + 1, len(ids)):
                worst = max(worst, op_norm(ids[a] @ ids[b]))
        p = sum(ids)
        worst = max(worst, op_norm(p @ p - p))
        return worst

    def spanning_elements(self) -> list[np.ndarray]:
        """All matrix units of all blocks, a linear basis of the algebra."""
        out = []
        for blk in self.blocks:
            for i in range(blk.n):
                for j in range(blk.n):
                    out.append(blk.unit(i, j))
        return out


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
