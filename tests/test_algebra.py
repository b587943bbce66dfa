import numpy as np
import pytest

from state_transport.algebra import (
    BlockAlgebra,
    KronUnits,
    MatrixUnits,
    conjugated_units,
    direct_sum_algebra,
    full_matrix_units,
)
from state_transport.errors import DimensionError
from state_transport.linalg import dagger, op_norm
from state_transport.suites import random_state, random_unitary


def test_full_matrix_units_relations():
    mu = full_matrix_units(3, 2)
    assert mu.relation_defect() < 1e-14
    assert op_norm(mu.block_identity() - np.eye(6)) < 1e-14


def test_units_embed_multiplicative(rng):
    mu = full_matrix_units(2, 3)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    assert op_norm(mu.embed(a) @ mu.embed(b) - mu.embed(a @ b)) < 1e-12


def test_coefficients_of_state(rng):
    mu = full_matrix_units(2, 2)
    xi = random_state(rng, 4)
    s = mu.coefficients_of_state(xi)
    for i in range(2):
        for j in range(2):
            assert s[i, j] == pytest.approx(np.vdot(xi, mu.unit(i, j) @ xi))


def test_kron_units_match_dense(rng):
    dense = full_matrix_units(4, 2, ambient_dim=8)
    kron = KronUnits(n=4, multiplicity=2, ambient_dim=8)
    for i in range(4):
        for j in range(4):
            assert op_norm(dense.unit(i, j) - kron.unit(i, j)) == 0.0
    xi = random_state(rng, 8)
    assert np.max(np.abs(
        dense.coefficients_of_state(xi) - kron.coefficients_of_state(xi)
    )) < 1e-12
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    assert op_norm(dense.embed(a) - kron.embed(a)) < 1e-12


def test_kron_units_reject_overflow():
    with pytest.raises(DimensionError):
        KronUnits(n=4, multiplicity=3, ambient_dim=8)


def test_conjugated_units_keep_relations(rng):
    mu = full_matrix_units(2, 2)
    u = random_unitary(rng, 4)
    moved = conjugated_units(mu, u)
    assert moved.relation_defect() < 1e-12


def test_direct_sum_algebra_orthogonal():
    alg = direct_sum_algebra([2, 3], [2, 1])
    assert alg.ambient_dim == 7
    assert alg.orthogonality_defect() < 1e-14
    assert op_norm(alg.identity_projection() - np.eye(7)) < 1e-14
    assert len(alg.spanning_elements()) == 4 + 9


def test_block_algebra_dimension_mismatch():
    with pytest.raises(DimensionError):
        BlockAlgebra(ambient_dim=5, blocks=[full_matrix_units(2, 2)])


def _dense_corner_generator(mu, corner, h):
    """sum_i e_i1 (V h V^*) e_1i with the dense units of ``mu``."""
    h_corner = corner @ h @ dagger(corner)
    return sum(mu.unit(i, 0) @ h_corner @ mu.unit(0, i) for i in range(mu.n))


@pytest.mark.parametrize("n, r", [(2, 4), (4, 2), (3, 3), (8, 2), (2, 16)])
def test_kron_corner_methods_match_dense(rng, n, r):
    # On a full window (offset 0, n r = ambient, the shape of every tower
    # level) the closed forms reproduce the dense eigh construction bit for bit.
    dense = full_matrix_units(n, r)
    kron = KronUnits(n=n, multiplicity=r, ambient_dim=n * r)
    assert np.array_equal(kron.corner_basis(), dense.corner_basis())
    xi = random_state(rng, n * r)
    assert np.array_equal(kron.corner_families(xi), dense.corner_families(xi))
    h = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
    assert np.array_equal(kron.lift_corner(h), dense.lift_corner(h))


@pytest.mark.parametrize("n, r, offset, ambient",
                         [(2, 3, 1, 9), (3, 2, 2, 10), (2, 16, 3, 40), (4, 2, 5, 13)])
def test_kron_corner_methods_with_offset(rng, n, r, offset, ambient):
    # With a nonzero offset eigh may order the corner basis differently, so
    # compare the basis-independent objects exactly: the corner projection
    # e_11, the vectors e_1j xi, and the lift built from the dense units.
    dense = full_matrix_units(n, r, ambient_dim=ambient, offset=offset)
    kron = KronUnits(n=n, multiplicity=r, ambient_dim=ambient, offset=offset)
    corner = kron.corner_basis()
    assert corner.shape == (ambient, r)
    assert np.array_equal(corner @ dagger(corner), dense.unit(0, 0))
    xi = random_state(rng, ambient)
    fams = kron.corner_families(xi)
    dense_corner = dense.corner_basis()
    for j in range(n):
        assert np.array_equal(corner @ fams[j], dense.unit(0, j) @ xi)
        assert np.array_equal(dense_corner @ dense.corner_families(xi)[j],
                              dense.unit(0, j) @ xi)
    h = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
    assert np.array_equal(kron.lift_corner(h), _dense_corner_generator(dense, corner, h))
