import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from state_transport.errors import (
    DimensionError,
    HypothesisError,
    InvalidTargetError,
    NotPSDError,
)
from state_transport.gram import (
    SRC_RANK_RTOL,
    GramTarget,
    VectorFamily,
    align_unitary,
    alignment_bound,
    gram_complete,
    _alignment_rotation,
    gram_matrix,
    greedy_pivot_select,
)
from state_transport.linalg import check_square, dagger, op_norm, psd_sqrt
from state_transport.suites import _subnormalized_family, random_unitary


def test_gram_matrix_convention(rng):
    fam = VectorFamily(3, np.array([[1.0, 0, 0], [0.5, 0.5j, 0]]))
    g = gram_matrix(fam)
    # g[i, j] = <xi_i, xi_j>, linear in the first argument
    assert g[1, 0] == pytest.approx(0.5)
    assert g[0, 1] == pytest.approx(0.5)
    assert g[1, 1] == pytest.approx(0.5)


def test_gram_complete_hits_target_exactly(rng):
    fam = _subnormalized_family(rng, 4, 7)
    other = _subnormalized_family(rng, 4, 7)
    target = GramTarget(4, gram_matrix(other))
    out = gram_complete(fam, target)
    assert np.max(np.abs(gram_matrix(out) - target.c)) < 1e-12


def test_gram_complete_displacement_identity(rng):
    fam = _subnormalized_family(rng, 3, 5)
    other = _subnormalized_family(rng, 3, 5)
    target = GramTarget(3, gram_matrix(other))
    out = gram_complete(fam, target)
    c_half = psd_sqrt(target.c)
    d_half = psd_sqrt(gram_matrix(fam))
    predicted = np.real(np.diag((c_half - d_half) @ (c_half - d_half)))
    measured = np.linalg.norm(out.vectors - fam.vectors, axis=1) ** 2
    assert np.max(np.abs(measured - predicted)) < 1e-10


def test_gram_complete_singular_input(rng):
    # one repeated vector: the input Gram is singular
    v = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    v = 0.4 * v / np.linalg.norm(v)
    fam = VectorFamily(6, np.array([v, v, 0 * v]))
    other = _subnormalized_family(rng, 3, 6)
    target = GramTarget(3, gram_matrix(other))
    out = gram_complete(fam, target)
    assert np.max(np.abs(gram_matrix(out) - target.c)) < 1e-12


def test_gram_target_rejects_indefinite():
    with pytest.raises(InvalidTargetError):
        GramTarget(2, np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_overweight_family_rejected(rng):
    vecs = 2.0 * np.eye(3)
    fam = VectorFamily(3, vecs)
    target = GramTarget(3, np.eye(3))
    with pytest.raises(HypothesisError):
        gram_complete(fam, target)


def test_greedy_pivot_order():
    vecs = np.array([
        [0.1, 0.0, 0.0],
        [0.0, 0.7, 0.0],
        [0.0, 0.0, 0.5],
    ])
    fam = VectorFamily(3, vecs)
    assert greedy_pivot_select(fam, 2) == [1, 2]


def test_expansion_coefficients_recover(rng):
    fam = _subnormalized_family(rng, 4, 3)
    pivots = greedy_pivot_select(fam, 3)
    # least-squares coefficients of every vector over the pivot vectors
    coeff = np.linalg.lstsq(fam.vectors[pivots].T, fam.vectors.T, rcond=None)[0].T
    rebuilt = coeff @ fam.vectors[pivots]
    assert np.max(np.abs(rebuilt - fam.vectors)) < 1e-8


def test_align_unitary_full_rank_within_bound(rng):
    src = _subnormalized_family(rng, 3, 6)
    u = random_unitary(rng, 6)
    dst = VectorFamily(6, src.vectors @ u.T + 1e-7 * rng.standard_normal((3, 6)))
    gap = np.max(np.abs(gram_matrix(src) - gram_matrix(dst)))
    delta = 2 * gap + 1e-14
    res = align_unitary(src, dst, delta)
    assert res.full_rank
    assert res.max_residual <= alignment_bound(3, 6, delta) + 1e-10


def test_align_unitary_rank_deficient_within_bound(rng):
    m, n = 3, 6
    src = _subnormalized_family(rng, n, m)
    u = random_unitary(rng, m)
    dst = VectorFamily(m, src.vectors @ u.T + 1e-8 * rng.standard_normal((n, m)))
    gap = np.max(np.abs(gram_matrix(src) - gram_matrix(dst)))
    delta = 2 * gap + 1e-14
    res = align_unitary(src, dst, delta)
    assert not res.full_rank
    assert len(res.pivots) == m
    assert res.max_residual <= alignment_bound(n, m, delta) + 1e-10


def test_align_unitary_rejects_large_gap(rng):
    src = _subnormalized_family(rng, 2, 4)
    dst = _subnormalized_family(rng, 2, 4)
    with pytest.raises(HypothesisError):
        align_unitary(src, dst, 1e-12)


def test_align_unitary_exact_for_equal_grams(rng):
    dim, n = 6, 3
    src = _subnormalized_family(rng, n, dim)
    dst = VectorFamily(dim, src.vectors @ random_unitary(rng, dim).T)
    res = align_unitary(src, dst, 1e-12)
    assert op_norm(dagger(res.unitary) @ res.unitary - np.eye(dim)) < 1e-10
    assert res.max_residual < 1e-9


def test_align_unitary_of_family_with_itself_is_identity(rng):
    # the complement completion must not introduce spurious rotation
    src = _subnormalized_family(rng, 2, 8)
    res = align_unitary(src, src, 1e-12)
    assert op_norm(res.unitary - np.eye(8)) < 1e-8


# The staged construction that align_unitary and gram_complete replaced,
# kept as the oracle: an SVD basis of a subspace holding the family, the
# polar factor of the family's coordinates in it, then a map of src onto
# the completion of dst, completed by the minimal rotation between the
# orthogonal complements and re-polarised.

def _polar_unitary(z):
    z = check_square(z)
    if z.size == 0:
        raise DimensionError("polar factor of an empty matrix")
    u, s, vh = np.linalg.svd(z)
    if s[-1] <= 1e-10:
        raise np.linalg.LinAlgError(f"smallest singular value {s[-1]:.3e} too small")
    return u @ vh


def _orthonormal_extension(columns, total):
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


def _map_families_unitary(src, dst):
    src = np.atleast_2d(np.asarray(src, dtype=complex))
    dst = np.atleast_2d(np.asarray(dst, dtype=complex))
    dim = src.shape[1]
    xc = src.T
    zc = dst.T
    u, s, vh = np.linalg.svd(xc, full_matrices=True)
    scale = s[0] if s.size and s[0] > 0 else 1.0
    rank = int(np.sum(s > 1e-13 * scale))
    coeff = vh.conj().T[:, :rank] / s[:rank]
    bx = u[:, :rank]
    bz = zc @ coeff
    qz, rz = np.linalg.qr(bz)
    bz = qz * np.sign(np.diag(rz).real + (np.diag(rz).real == 0))
    umap = bz @ dagger(bx)
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
    return _polar_unitary(umap)


def _staged_gram_complete(fam, target):
    n = target.n
    fam.require_normalized()
    q = _orthonormal_extension(fam.vectors.T, n)
    y = fam.vectors @ q.conj()
    a, s, bh = np.linalg.svd(y)
    u = a @ bh
    try:
        c_half = psd_sqrt(target.c)
    except NotPSDError as exc:
        raise InvalidTargetError(str(exc)) from exc
    return VectorFamily(dim=fam.dim, vectors=(c_half @ u) @ q.T)


def _staged_align(src, dst):
    rows = list(range(src.size))
    if src.dim < src.size:
        rows = greedy_pivot_select(src, src.dim)
    sub_src = VectorFamily(src.dim, src.vectors[rows])
    sub_dst = VectorFamily(dst.dim, dst.vectors[rows])
    zeta = _staged_gram_complete(sub_dst, GramTarget(len(rows), gram_matrix(sub_src)))
    u = _map_families_unitary(sub_src.vectors, zeta.vectors)
    return u, np.linalg.norm(src.vectors @ u.T - dst.vectors, axis=1)


# Commutant corner families of a 256-dimensional tower level: n rows in C^r.
TOWER_CORNERS = [(2, 128), (4, 64), (8, 32), (16, 16), (32, 8), (64, 4)]


@st.composite
def family_pairs(draw):
    """(src, dst, independent): a subnormalised family with full-rank, wide
    (more members than dimensions), repeated-row or zero-row structure, or a
    tower corner shape, and its image under a random unitary plus noise of
    size 0 or 1e-13 to 1e-7.  ``independent`` marks rows drawn at random in
    at least as many dimensions, so that the family is well conditioned."""
    kind = draw(st.sampled_from(["full", "wide", "repeat", "zero", "corner"]))
    if kind == "corner":
        n, dim = draw(st.sampled_from(TOWER_CORNERS))
    elif kind == "wide":
        dim = draw(st.integers(1, 6))
        n = draw(st.integers(dim + 1, 10))
    else:
        dim = draw(st.integers(1, 9))
        n = draw(st.integers(1, dim))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal((n, dim)) + 1j * rng.standard_normal((n, dim))
    if kind == "repeat" and n > 1:
        x[rng.integers(1, n)] = x[0]
    if kind == "zero":
        x[rng.integers(0, n)] = 0.0
    x *= np.sqrt(draw(st.floats(0.2, 0.9))) / max(np.linalg.norm(x), 1e-300)
    noise = draw(st.one_of(st.just(0.0), st.floats(-13.0, -7.0).map(lambda e: 10.0**e)))
    y = x @ random_unitary(rng, dim).T + noise * rng.standard_normal((n, dim))
    y /= max(1.0, np.linalg.norm(y))
    independent = kind == "full" or (kind == "corner" and n <= dim)
    return VectorFamily(dim, x), VectorFamily(dim, y), independent


@settings(max_examples=150, deadline=None)
@given(pair=family_pairs())
def test_align_unitary_matches_staged_oracle(pair):
    src, dst, independent = pair
    delta = 2 * float(np.max(np.abs(gram_matrix(src) - gram_matrix(dst)))) + 1e-14
    res = align_unitary(src, dst, delta)
    u_oracle, residuals_oracle = _staged_align(src, dst)
    # The rotation is held as at most 2k <= 2 min(n, dim) orthonormal
    # eigenvectors, and the dense unitary built from them is the oracle's.
    v = res.vectors
    assert res.angles.shape == (v.shape[1],) and len(v) == src.dim
    assert v.shape[1] <= 2 * min(src.size, src.dim)
    assert np.linalg.norm(dagger(v) @ v - np.eye(v.shape[1])) <= 1e-12
    assert op_norm(res.unitary - u_oracle) <= 1e-10
    assert np.max(np.abs(res.residuals - residuals_oracle)) <= 1e-12
    assert np.all(res.residuals <= res.bound)
    assert res.full_rank == (src.dim >= src.size)
    if independent:
        target = GramTarget(src.size, gram_matrix(src))
        completion = gram_complete(dst, target).vectors
        assert np.max(np.abs(completion - _staged_gram_complete(dst, target).vectors)) <= 1e-12


def _general_polar_alignment(x, y):
    """The rotation of ``_polar_alignment`` for one pair of aligned rows by
    its general route, whatever their rank: the QR of [F_x, F_y], the
    compressed C and the polar factor of C from its SVD."""
    a, s, bh = np.linalg.svd(x, full_matrices=False)
    ay, _, byh = np.linalg.svd(y, full_matrices=False)
    k = int(np.sum(s > SRC_RANK_RTOL * s[:1]))
    fx = bh[:k].T
    fy = (dagger(a[:, :k]) @ ay @ byh).T
    q, rq = np.linalg.qr(np.concatenate([fx, fy], axis=1))
    gx, gy = rq[:, :k], rq[:, k:]
    eye = np.eye(q.shape[1])
    c = gy @ dagger(gx) + (eye - gy @ dagger(gy)) @ (eye - gx @ dagger(gx))
    uc, _, vch = np.linalg.svd(c)
    return q @ uc @ vch @ dagger(q) + np.eye(len(q)) - q @ dagger(q)


def _rotation(angles, vectors):
    return np.eye(len(vectors)) + (vectors * (np.exp(1j * angles) - 1.0)) @ dagger(vectors)


@settings(max_examples=150, deadline=None)
@given(dim=st.integers(1, 8), extra=st.integers(0, 4), stack=st.integers(1, 4),
       short=st.sampled_from([None, "low", "zero"]),
       noise=st.one_of(st.just(0.0), st.floats(-13.0, -7.0).map(lambda e: 10.0**e)),
       seed=st.integers(0, 2**32 - 1))
def test_square_frames_rotate_in_closed_form(dim, extra, stack, short, noise, seed):
    # Square families (n = dim) and pivoted ones (n > dim, aligned on dim
    # pivot rows) in stacks whose items all have full rank, where the frames
    # are dim x dim unitaries and the rotation is the eigenpairs of
    # F_y F_x^*, or that mix in an item of rank dim - 1 or 0, which sends the
    # whole stack the general route.  Each item's rotation matches the
    # general route's on its own aligned rows and its own rotation alone,
    # and its residuals stay within alignment_bound.
    rng = np.random.default_rng(seed)
    n = dim + extra
    x = rng.standard_normal((stack, n, dim)) + 1j * rng.standard_normal((stack, n, dim))
    if short == "low" and dim > 1:
        keep = random_unitary(rng, dim)[:, 1:]
        x[0] = x[0] @ keep @ dagger(keep)
    elif short == "zero":
        x[0] = 0.0
    x /= np.maximum(np.linalg.norm(x, axis=(1, 2), keepdims=True), 1e-300) * 1.01
    y = np.stack([item @ random_unitary(rng, dim).T for item in x])
    y += noise * rng.standard_normal(y.shape)
    y /= np.maximum(np.linalg.norm(y, axis=(1, 2), keepdims=True) * 1.01, 1.0)
    angles, vectors, pivots = _alignment_rotation(x, y)
    tol = 1e-12 * dim
    for t in range(stack):
        stacked = _rotation(angles[t], vectors[t])
        alone_angles, alone_vectors, alone_pivots = _alignment_rotation(x[t], y[t])
        alone = _rotation(alone_angles, alone_vectors)
        assert np.max(np.abs(stacked - alone)) <= tol
        rows = slice(None) if pivots is None else pivots[t]
        if pivots is not None:
            assert np.array_equal(pivots[t], alone_pivots)
        general = _general_polar_alignment(x[t][rows], y[t][rows])
        assert np.max(np.abs(alone - general)) <= tol
        src, dst = VectorFamily(dim, x[t]), VectorFamily(dim, y[t])
        delta = 2 * float(np.max(np.abs(gram_matrix(src) - gram_matrix(dst)))) + 1e-14
        res = align_unitary(src, dst, delta)
        assert np.all(res.residuals <= res.bound)
        assert np.max(np.abs(res.unitary - alone)) <= tol


@pytest.mark.parametrize("n", [6, 9])
def test_square_frames_take_no_qr(rng, monkeypatch, n):
    # Full-rank src rows that fill C^dim, square or pivoted, are rotated by
    # the two frames' SVDs and one eigen-solve: no QR and no third SVD.
    dim = 6
    x = rng.standard_normal((n, dim)) + 1j * rng.standard_normal((n, dim))
    x /= np.linalg.norm(x) * 1.01
    y = x @ random_unitary(rng, dim).T
    calls = []
    for name in ("qr", "svd"):
        f = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda *a, f=f, name=name, **k: calls.append(name) or f(*a, **k))
    res = align_unitary(VectorFamily(dim, x), VectorFamily(dim, y), 1e-10)
    assert calls == ["svd", "svd"]
    assert res.vectors.shape == (dim, dim) and np.all(res.residuals <= res.bound)
