import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from state_transport.algebra import (
    BlockAlgebra,
    MatrixUnits,
    _level_part,
    conjugated_units,
    direct_sum_algebra,
    full_matrix_units,
    level_distances,
)
from state_transport.errors import DimensionError
from state_transport.intertwine import AlgebraTower
from state_transport.linalg import dagger, op_norm
from state_transport.suites import random_state, random_unitary


def _relation_defect(mu):
    """d = ||V^* V - 1||; each relation e_ij e_kl = delta_jk e_il holds to
    within d (1 + d)."""
    v = mu.isometry
    return op_norm(dagger(v) @ v - np.eye(v.shape[1]))


def _dense_units(n, r, ambient, offset=0):
    """Oracle: the dense (n, n, ambient, ambient) array of E_ij (x) 1_r on the
    coordinate window starting at ``offset``."""
    units = np.zeros((n, n, ambient, ambient), dtype=complex)
    window = slice(offset, offset + n * r)
    for i in range(n):
        for j in range(n):
            e = np.zeros((n, n))
            e[i, j] = 1.0
            units[i, j, window, window] = np.kron(e, np.eye(r))
    return units


def _dense_lift(units, corner, h):
    """Oracle: sum_i e_i1 (V_0 h V_0^*) e_1i from the dense units."""
    h_corner = corner @ h @ dagger(corner)
    return sum(units[i, 0] @ h_corner @ units[0, i] for i in range(units.shape[0]))


def _check_against_oracle(mu, units, rng, tol):
    """Every operation of ``mu`` against the dense units, within ``tol``
    (0.0 asks for exact equality)."""
    n, ambient = units.shape[0], units.shape[2]
    r = mu.multiplicity

    def close(a, b):
        return np.max(np.abs(a - b), initial=0.0) <= tol

    assert mu.ambient_dim == ambient
    for i in range(n):
        for j in range(n):
            assert close(mu.unit(i, j), units[i, j])
    assert close(mu.block_identity(), units.trace(axis1=0, axis2=1))
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    assert close(mu.embed(a), np.einsum("ij,ijkl->kl", a, units))
    xi = random_state(rng, ambient)
    stats = np.array([[np.vdot(xi, units[i, j] @ xi) for j in range(n)]
                      for i in range(n)])
    # The oracle sums over the whole ambient space, in another order.
    assert np.max(np.abs(mu.coefficients_of_state(xi) - stats)) <= max(tol, 1e-15)
    corner = mu.isometry[:, :r]  # V_0, an orthonormal basis of the range of e_11
    assert close(corner @ dagger(corner), units[0, 0])
    fams = mu.corner_families(xi)
    for j in range(n):
        assert close(corner @ fams[j], units[0, j] @ xi)
    # A corner factor q with k <= r orthonormal columns lifts to the columns
    # e_i1 V_0 q of every block, and with them the generator q d q^*.
    q = random_unitary(rng, r)[:, :max(r - 1, 1)]
    cols = mu.lift_columns(q)
    assert close(cols, np.hstack([units[i, 0] @ corner @ q for i in range(n)]))
    d = rng.standard_normal(q.shape[1])
    lift = (cols * np.tile(d, n)) @ dagger(cols)
    assert np.max(np.abs(lift - _dense_lift(units, corner, (q * d) @ dagger(q)))) <= 1e-13
    assert _relation_defect(mu) < 1e-12


def test_full_matrix_units_relations():
    mu = full_matrix_units(3, 2)
    assert _relation_defect(mu) < 1e-14
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
    # A window padded at the end: the block identity is a proper projection.
    _check_against_oracle(full_matrix_units(4, 2, ambient_dim=11),
                          _dense_units(4, 2, 11), rng, 0.0)


def test_kron_units_reject_overflow():
    with pytest.raises(DimensionError):
        full_matrix_units(4, 3, ambient_dim=8)
    with pytest.raises(DimensionError):
        full_matrix_units(2, 2, ambient_dim=5, offset=2)
    # The isometry's columns must split into n blocks of r.
    with pytest.raises(DimensionError):
        MatrixUnits(3, np.eye(8))
    with pytest.raises(DimensionError):
        MatrixUnits(2, np.ones(4))


@pytest.mark.parametrize("n, r", [(2, 4), (4, 2), (3, 3), (8, 2), (2, 16)])
def test_kron_corner_methods_match_dense(rng, n, r):
    # A coordinate window, the shape of every tower level: the products of
    # 0/1 columns reproduce the dense units bit for bit.
    _check_against_oracle(full_matrix_units(n, r), _dense_units(n, r, n * r), rng, 0.0)


@pytest.mark.parametrize("n, r, offset, ambient",
                         [(2, 3, 1, 9), (3, 2, 2, 10), (2, 16, 3, 40), (4, 2, 5, 13)])
def test_kron_corner_methods_with_offset(rng, n, r, offset, ambient):
    mu = full_matrix_units(n, r, ambient_dim=ambient, offset=offset)
    _check_against_oracle(mu, _dense_units(n, r, ambient, offset), rng, 0.0)


@pytest.mark.parametrize("n, r, offset, ambient",
                         [(2, 2, 0, 4), (3, 2, 1, 8), (2, 5, 3, 14)])
def test_conjugated_units_match_dense(rng, n, r, offset, ambient):
    # u V is not a coordinate window, so the corner basis and the families
    # are rotated off the coordinate axes.
    u = random_unitary(rng, ambient)
    mu = conjugated_units(full_matrix_units(n, r, ambient, offset), u)
    units = np.einsum("ab,ijbc,cd->ijad", u, _dense_units(n, r, ambient, offset),
                      dagger(u))
    _check_against_oracle(mu, units, rng, 1e-12)


def test_conjugated_units_keep_relations(rng):
    mu = full_matrix_units(2, 2)
    u = random_unitary(rng, 4)
    moved = conjugated_units(mu, u)
    assert _relation_defect(moved) < 1e-12


def test_direct_sum_algebra_orthogonal():
    alg = direct_sum_algebra([2, 3], [2, 1])
    assert alg.ambient_dim == 7
    ids = [b.block_identity() for b in alg.blocks]
    total = sum(ids)
    assert op_norm(ids[0] @ ids[1]) < 1e-14
    assert op_norm(total @ total - total) < 1e-14
    assert op_norm(total - np.eye(7)) < 1e-14
    assert sum(blk.n ** 2 for blk in alg.blocks) == 4 + 9


def test_block_algebra_dimension_mismatch():
    with pytest.raises(DimensionError):
        BlockAlgebra(ambient_dim=5, blocks=[full_matrix_units(2, 2)])




@pytest.mark.parametrize("dim, s", [(16, 2), (256, 2), (256, 8), (64, 64), (64, 1)])
def test_level_part_distance_is_the_kron_difference_bit_for_bit(rng, dim, s):
    # _level_part subtracts A from the diagonal of each q x q block instead
    # of forming A (x) 1_q; the entries it leaves are x's own, so the
    # distance is the dense difference's norm exactly, for complex, real
    # and on-level x.
    q = dim // s
    on_level = np.kron(rng.standard_normal((s, s)), np.eye(q)) + 0j
    for x in (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)),
              rng.standard_normal((dim, dim)), on_level):
        a, distance = _level_part(x, s)
        assert np.array_equal(a, np.einsum("iaja->ij", x.reshape(s, q, s, q)) / q)
        assert distance == np.linalg.norm(x - np.kron(a, np.eye(q)))


@settings(max_examples=200, deadline=None)
@given(branchings=st.lists(st.integers(2, 4), min_size=1, max_size=4),
       above=st.integers(1, 4), kind=st.sampled_from(["level", "tail", "dense", "zero"]),
       level=st.integers(1, 4), c=st.floats(1e-3, 0.5), seed=st.integers(0, 2**32 - 1))
def test_level_distances_match_the_direct_pass_at_every_level(branchings, above, kind,
                                                              level, c, seed):
    # The table's distances, one pass over x and then Pythagoras over the
    # small factors, agree with the direct pass at each level, for elements
    # in a level, geometric tails sum_k c^{k-1} shift_k, dense elements and
    # 0; its norm is at least ||x||, up to the rounding of the SVDs on each
    # side, dim 2^-52 relatively: for x in level 1, ||A_1|| and ||x|| are the
    # same singular value, which the two SVDs can round 1 ulp apart.
    sizes = np.cumprod(branchings).tolist()
    dim = sizes[-1] * above
    assume(dim <= 256)
    tower = AlgebraTower(dim, sizes)
    rng = np.random.default_rng(seed)
    if kind == "level":
        s = sizes[min(level, len(sizes)) - 1]
        a = rng.standard_normal((s, s)) + 1j * rng.standard_normal((s, s))
        x = np.kron(a, np.eye(dim // s))
    elif kind == "tail":
        x = sum(c ** (k - 1) * tower.level_generators(k)[0]
                for k in range(1, len(sizes) + 1))
    elif kind == "dense":
        x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    else:
        x = np.zeros((dim, dim), dtype=complex)
    distances, norm = level_distances(x, sizes)
    assert len(distances) == len(sizes)
    for s, d in zip(sizes, distances):
        direct = _level_part(x, s)[1]
        assert abs(d - direct) <= 1e-12 * (np.linalg.norm(x) + direct)
    assert (1.0 + dim * np.finfo(float).eps) * norm >= op_norm(x)
