import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from state_transport import transport
from state_transport.algebra import (MatrixUnits, conjugated_units, direct_sum_algebra,
                                      full_matrix_units)
from state_transport.errors import (
    CertificateError,
    DimensionError,
    DisjointnessError,
    HypothesisError,
    NotFiniteError,
    StateTransportError,
)
from state_transport.gram import VectorFamily, _gate_measures, align_unitary, alignment_bound
from state_transport.linalg import dagger, inner, op_norm
from state_transport.path import PathSegment, UnitaryPath
from state_transport.suites import (
    commutant_instance,
    random_state,
    random_unitary,
)
from state_transport.transport import (
    _corner_rotations,
    _direction,
    commutant_transport,
    excise,
    excision_error,
    geodesic_lower_bound,
    geodesic_pair,
    invert_alignment_bound,
    multi_transport,
    projection_transport,
    spectrum_match,
)


def _units(alg):
    """Every matrix unit of every block, a linear basis of the algebra."""
    return [blk.unit(i, j) for blk in alg.blocks for i in range(blk.n) for j in range(blk.n)]


def _theta(xi, eta):
    return float(np.arccos(np.clip(inner(eta, xi).real, -1.0, 1.0)))


def test_geodesic_endpoint_and_length(rng):
    xi = random_state(rng, 5)
    eta = random_state(rng, 5)
    p = geodesic_pair(xi, eta)
    assert np.linalg.norm(p.end() @ xi - eta) < 1e-12
    assert p.length == pytest.approx(_theta(xi, eta), abs=1e-12)


def test_geodesic_acts_only_on_span(rng):
    xi = random_state(rng, 6)
    eta = random_state(rng, 6)
    p = geodesic_pair(xi, eta)
    # a vector orthogonal to span{xi, eta} is fixed along the whole path
    basis, _ = np.linalg.qr(np.column_stack([xi, eta]))
    v = random_state(rng, 6)
    v = v - basis @ (dagger(basis) @ v)
    v = v / np.linalg.norm(v)
    for t in (0.3, 1.0):
        assert np.linalg.norm(p.at(t) @ v - v) < 1e-8


def test_geodesic_colinear_phase(rng):
    xi = random_state(rng, 4)
    eta = np.exp(0.7j) * xi
    p = geodesic_pair(xi, eta)
    assert p.length == pytest.approx(0.7, abs=1e-12)
    assert np.linalg.norm(p.end() @ xi - eta) < 1e-12


def test_geodesic_same_state(rng):
    xi = random_state(rng, 3)
    p = geodesic_pair(xi, xi)
    assert p.length == 0.0


def test_geodesic_lower_bound_matches(rng):
    xi = random_state(rng, 4)
    eta = random_state(rng, 4)
    p = geodesic_pair(xi, eta)
    phi = geodesic_lower_bound(p, xi, eta)
    assert phi <= p.length + 1e-6
    assert phi == pytest.approx(_theta(xi, eta), abs=1e-6)


def test_geodesic_lower_bound_rejects_wrong_endpoint(rng):
    xi = random_state(rng, 4)
    eta = random_state(rng, 4)
    p = geodesic_pair(xi, eta)
    with pytest.raises(HypothesisError):
        geodesic_lower_bound(p, xi, random_state(rng, 4))


def test_geodesic_lower_bound_rejects_forged_length(rng):
    # A constant path parked at the geodesic endpoint reaches eta but claims
    # length 0, below the spectral lower bound.
    xi = random_state(rng, 4)
    eta = random_state(rng, 4)
    forged = UnitaryPath.constant(4, base=geodesic_pair(xi, eta).end())
    with pytest.raises(CertificateError) as info:
        geodesic_lower_bound(forged, xi, eta)
    assert isinstance(info.value, StateTransportError)


def test_spectrum_match_bound(rng):
    u = random_unitary(rng, 5)
    v = random_unitary(rng, 5)
    lam = np.linalg.eigvals(u)
    lam = lam / np.abs(lam)
    mu = spectrum_match(u, v, complex(lam[0]))
    assert abs(lam[0] - mu) <= op_norm(u - v) + 1e-8


def test_spectrum_match_rejects_foreign_point(rng):
    u = np.eye(3, dtype=complex)
    with pytest.raises(HypothesisError):
        spectrum_match(u, u, -1.0 + 0j)


def _counted_eigvals(monkeypatch):
    calls = []
    eigvals = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: calls.append(a.shape) or eigvals(a))
    return calls


def test_spectrum_match_solves_each_pair_once(rng, monkeypatch):
    # A loop over Spec(u) with one pair (u, v) takes the two spectra once;
    # each call still checks lam and its certificate, with the answers of
    # a pair solved anew.
    u, v = random_unitary(rng, 6), random_unitary(rng, 6)
    calls = _counted_eigvals(monkeypatch)
    lams = np.linalg.eigvals(u)
    calls.clear()
    mus = [spectrum_match(u, v, complex(lam)) for lam in lams]
    assert calls == [(6, 6), (6, 6)]
    spec_v = np.linalg.eigvals(v)
    for lam, mu in zip(lams, mus):
        assert mu == spec_v[np.argmin(np.abs(spec_v - lam))]
        assert abs(lam - mu) <= op_norm(u - v) + 1e-8
    with pytest.raises(HypothesisError):
        spectrum_match(u, v, -lams[0])


def test_spectrum_match_solves_a_pair_edited_in_place_anew(rng, monkeypatch):
    # The pair is matched by its bytes, so an in-place edit of u between two
    # calls is validated and solved again: the old spectrum would still hold
    # lam, the new one does not.
    u, v = random_unitary(rng, 4), random_unitary(rng, 4)
    lam = complex(np.linalg.eigvals(u)[0])
    calls = _counted_eigvals(monkeypatch)
    spectrum_match(u, v, lam)
    u *= -1.0
    with pytest.raises(HypothesisError):
        spectrum_match(u, v, lam)
    assert len(calls) == 4
    u[0, 0] = np.nan
    with pytest.raises(NotFiniteError):
        spectrum_match(u, v, lam)


def test_spectrum_match_rejects_mismatched_sizes(rng):
    u, v = random_unitary(rng, 3), random_unitary(rng, 4)
    for a, b in ((u, v), (v, u)):
        with pytest.raises(DimensionError):
            spectrum_match(a, b, complex(np.linalg.eigvals(a)[0]))


def test_projection_transport_properties(rng):
    dim, k = 6, 2
    q = random_unitary(rng, dim)
    e = q[:, :k] @ dagger(q[:, :k])
    xi = random_state(rng, dim)
    w = q @ scipy.linalg.block_diag(
        random_unitary(rng, k), random_unitary(rng, dim - k)
    ) @ dagger(q)
    eta = w @ xi
    p = projection_transport(e, xi, eta)
    assert p.length <= np.pi / 2 + 1e-8
    for t in p.sample_times(16):
        u = p.at(t)
        assert op_norm(u @ e - e @ u) < 1e-9
    moved = p.end() @ xi
    # endpoint is eta up to a single phase
    assert abs(abs(np.vdot(eta, moved)) - 1.0) < 1e-10


def test_projection_transport_rejects_mass_mismatch(rng):
    e = np.diag([1.0, 0.0]).astype(complex)
    xi = np.array([1.0, 0.0], dtype=complex)
    eta = np.array([0.0, 1.0], dtype=complex)
    with pytest.raises(HypothesisError):
        projection_transport(e, xi, eta)


def test_commutant_transport_small(rng):
    mu, xi, eta = commutant_instance(rng, 2, 2, 0.1)
    res = commutant_transport(mu, xi, eta, 0.1)
    assert res.terminal_error < 0.1
    for t in res.path.sample_times(8):
        u = res.path.at(t)
        for i in range(2):
            for j in range(2):
                e = mu.unit(i, j)
                assert op_norm(u @ e - e @ u) < 1e-9
    # the generator norm is at most pi, so the path length is too
    assert res.path.length <= np.pi + 1e-10


def test_commutant_transport_exact_repair(rng):
    mu, xi, eta = commutant_instance(rng, 3, 3, 0.1)
    res = commutant_transport(mu, xi, eta, 0.1, exact=True)
    assert res.terminal_error < 1e-12


def _in_window(rng, mu, xi, eta, offset, pad):
    """The instance on the coordinate window at ``offset`` of a larger space,
    both states with one common component outside the window."""
    outside = random_state(rng, offset + pad)

    def place(v):
        full = np.concatenate([outside[:offset], v, outside[offset:]])
        return full / np.linalg.norm(full)

    dim = mu.ambient_dim + offset + pad
    return full_matrix_units(mu.n, mu.multiplicity, dim, offset), place(xi), place(eta)


@pytest.mark.parametrize("n, r, units", [(2, 4, "identity"), (4, 8, "identity"),
                                         (2, 128, "identity"), (3, 3, "offset"),
                                         (2, 5, "offset"), (3, 3, "conjugated")])
def test_commutant_gate_is_the_alignment_gate(rng, n, r, units):
    # The transport's only admissibility test is its alignment's Gram gate:
    # measured_gap is align_unitary's gap on the same corner families, and a
    # delta at or below it raises HypothesisError carrying it.  The terminal
    # error, read from the corner families, is that of path.end().  The
    # statistics noise leaves a residual the repair geodesic can turn.
    mu, xi, eta = commutant_instance(rng, n, r, 0.1, stats_noise=1e-7)
    if units == "offset":
        mu, xi, eta = _in_window(rng, mu, xi, eta, offset=3, pad=4)
    elif units == "conjugated":
        c = random_unitary(rng, n * r)
        mu, xi, eta = conjugated_units(mu, c), c @ xi, c @ eta
    src = VectorFamily(r, mu.corner_families(xi))
    dst = VectorFamily(r, mu.corner_families(eta))
    for exact in (False, True):
        res = commutant_transport(mu, xi, eta, 0.1, exact=exact)
        assert res.measured_gap == align_unitary(src, dst, res.delta).gap
        assert 0.0 < res.measured_gap < res.delta
        assert len(res.path.segments) == 1 + exact
        end = res.path.end()
        assert abs(res.terminal_error - np.linalg.norm(end @ xi - eta)) <= 1e-15
        assert res.terminal_error < (1e-12 if exact else 1e-6)
    gap = res.measured_gap
    with pytest.raises(HypothesisError) as info:
        align_unitary(src, dst, gap)
    assert info.value.measured_gap == gap
    # Full rank (r >= n) the derived delta is (eps / n)^2, here gap / 4.
    eps = n * np.sqrt(gap) / 2
    assert invert_alignment_bound(n, r, eps / np.sqrt(n)) <= gap
    with pytest.raises(HypothesisError) as info:
        commutant_transport(mu, xi, eta, eps)
    assert info.value.measured_gap == gap


@pytest.mark.parametrize("n, r", [(2, 4), (4, 2), (3, 3)])
def test_commutant_generator_identical_for_kron_units(rng, n, r):
    mu, xi, eta = commutant_instance(rng, n, r, 0.1, stats_noise=1e-9)
    res = commutant_transport(mu, xi, eta, 0.1)
    seg = res.path.segments[0]
    gen = seg.generator
    # On a coordinate window the lift's factor is 1_n (x) q entry for entry,
    # with the corner angles repeated per block, so it commutes with every
    # unit without rounding.
    assert np.array_equal(seg.v, np.kron(np.eye(n), seg.v[:r, :r]))
    assert np.array_equal(seg.w, np.tile(seg.w[:r], n))
    # Rotating the units, the source and the target by one unitary rotates
    # the generator with them.
    u = random_unitary(rng, n * r)
    moved = commutant_transport(conjugated_units(mu, u), u @ xi, u @ eta, 0.1)
    assert op_norm(moved.path.segments[0].generator - u @ gen @ dagger(u)) < 1e-10
    assert abs(moved.terminal_error - res.terminal_error) < 1e-12


def _bisect_alignment_bound(n, dim, target):
    """The 200-step bisection the closed form replaced, kept as an oracle."""
    lo, hi = 0.0, 1.0
    if alignment_bound(n, dim, hi) <= target:
        return hi
    for _ in range(200):
        mid = (lo + hi) / 2
        if alignment_bound(n, dim, mid) <= target:
            lo = mid
        else:
            hi = mid
    return lo


@pytest.mark.parametrize("n", [1, 2, 3, 8, 64])
@pytest.mark.parametrize("dim", [1, 2, 4, 32, 128])
def test_invert_alignment_bound_closed_form(n, dim):
    for target in (0.0, 1e-14, 1e-9, 3e-6, 1e-3, 0.0125, 0.1, 0.7, 1.0, 5.0, 1e3):
        delta = invert_alignment_bound(n, dim, target)
        assert 0.0 <= delta <= 1.0
        assert alignment_bound(n, dim, delta) <= target
        oracle = _bisect_alignment_bound(n, dim, target)
        assert abs(delta - oracle) <= 1e-12 * oracle


def _aligned_path(mu, xi, eta, delta):
    """The lifted alignment path, as commutant_transport builds it for blocks
    with n >= 2 and r >= 2, and the alignment."""
    r = mu.multiplicity
    align = align_unitary(VectorFamily(r, mu.corner_families(xi)),
                          VectorFamily(r, mu.corner_families(eta)), delta)
    seg = PathSegment(0.0, 1.0, np.tile(align.angles, mu.n), mu.lift_columns(align.vectors),
                      np.eye(mu.ambient_dim, dtype=complex))
    return UnitaryPath([seg]), align


@settings(max_examples=150, deadline=None)
@given(one_unit=st.booleans(), size=st.integers(1, 10), pad=st.integers(0, 3),
       rotate=st.booleans(), noise=st.sampled_from([0.0, 1e-9, 1e-5, 1e-2, 0.3]),
       log_eps=st.floats(-3.0, 0.0), seed=st.integers(0, 2**32 - 1))
def test_closed_form_transports_match_the_alignment(one_unit, size, pad, rotate, noise,
                                                    log_eps, seed):
    # Blocks of one unit (n = 1) or multiplicity one (r = 1) take a closed
    # form instead of align_unitary.  The gate is the alignment's, the
    # terminal error no larger than the aligned path's, the path commutes
    # with every unit, and for n = 1 it is no longer.  With pad > 0 the
    # block does not cover the space, and both states have a part outside.
    rng = np.random.default_rng(seed)
    n, r = (1, size) if one_unit else (size, 1)
    ambient = n * r + pad
    mu = full_matrix_units(n, r, ambient, offset=pad // 2)
    if rotate:
        mu = conjugated_units(mu, random_unitary(rng, ambient))
    xi = random_state(rng, ambient)
    v = mu.isometry
    turn = v @ np.kron(np.eye(n), random_unitary(rng, r) - np.eye(r)) @ dagger(v)
    eta = xi + turn @ xi + noise * random_state(rng, ambient)
    eta = eta / np.linalg.norm(eta)
    eps = 10.0**log_eps
    delta = invert_alignment_bound(n, r, eps / np.sqrt(n))
    try:
        aligned, align = _aligned_path(mu, xi, eta, delta)
    except HypothesisError as exc:
        with pytest.raises(HypothesisError) as info:
            commutant_transport(mu, xi, eta, eps)
        assert info.value.measured_gap == exc.measured_gap
        return
    res = commutant_transport(mu, xi, eta, eps)
    assert res.measured_gap == align.gap
    assert len(res.path.segments) == 1
    outside = xi - eta - v @ (dagger(v) @ (xi - eta))
    limit = np.hypot(np.linalg.norm(outside), np.sqrt(n) * align.bound)
    assert res.terminal_error <= np.linalg.norm(aligned.end() @ xi - eta) + 1e-12
    assert res.terminal_error <= limit + 1e-12
    units = [mu.unit(i, j) for i in range(n) for j in range(n)]
    assert res.path.commutator_bound(units) <= 1e-9
    if n == 1:
        assert res.path.length <= aligned.length + 1e-12
    exact = commutant_transport(mu, xi, eta, eps, exact=True)
    assert exact.measured_gap == align.gap
    assert exact.terminal_error <= 1e-13


@pytest.mark.parametrize("zero_side", ["source", "target"])
def test_zero_corner_gives_the_constant_path(zero_side):
    # M_1 (x) 1_2 on the first two coordinates.  One state has no corner,
    # the other a corner of weight 1e-6 < delta = eps^2: the gate admits
    # the pair, and the transport takes no rotation; the repair then moves
    # the whole way.
    mu = full_matrix_units(1, 2, 4)
    xi = np.array([0.0, 0.0, 1.0, 0.0], dtype=complex)
    eta = np.array([1e-3, 0.0, 0.0, 1.0], dtype=complex)
    eta = eta / np.linalg.norm(eta)
    if zero_side == "target":
        xi, eta = eta, xi
    res = commutant_transport(mu, xi, eta, 0.1)
    assert res.measured_gap == pytest.approx(1e-6 / (1 + 1e-6), rel=1e-12)
    assert res.path.segments[0].w.size == 0 and res.path.length == 0.0
    assert res.terminal_error == np.linalg.norm(xi - eta)
    repaired = commutant_transport(mu, xi, eta, 0.1, exact=True)
    assert len(repaired.path.segments) == 2
    assert repaired.terminal_error < 1e-13


def test_commutant_transport_rejects_large_gap(rng):
    mu = full_matrix_units(2, 2)
    xi = np.array([1.0, 0, 0, 0], dtype=complex)
    eta = np.array([0, 0, 1.0, 0], dtype=complex)  # different block stats
    with pytest.raises(HypothesisError):
        commutant_transport(mu, xi, eta, 0.01)


def test_commutant_transport_rejects_wrong_length_states(rng):
    mu, xi, eta = commutant_instance(rng, 2, 3, 0.1)
    short = random_state(rng, 5)
    for a, b in ((short, eta), (xi, short), (np.append(xi, 0.0), eta)):
        with pytest.raises(DimensionError):
            commutant_transport(mu, a, b, 0.1)
    # multi_transport checks each pair before it looks for the pair's block
    alg = direct_sum_algebra([2, 2], [3, 1])
    with pytest.raises(DimensionError):
        multi_transport(alg, [(short, short)], [], 0.1)


def test_excise_product_state(rng):
    alg = direct_sum_algebra([3], [2])
    v = random_state(rng, 3)
    u = random_state(rng, 2)
    xi = np.kron(v, u)
    e = excise(xi, alg)
    assert op_norm(e @ e - e) < 1e-10
    assert np.linalg.norm(e @ xi - xi) < 1e-10
    assert excision_error(e, xi, _units(alg)) < 1e-10


def test_multi_transport_blocks(rng):
    alg = direct_sum_algebra([2, 2], [2, 2])
    xi1 = np.zeros(8, dtype=complex)
    xi1[:4] = random_state(rng, 4)
    eta1 = np.zeros(8, dtype=complex)
    eta1[:4] = np.kron(np.eye(2), random_unitary(rng, 2)) @ xi1[:4]
    xi2 = np.zeros(8, dtype=complex)
    xi2[4:] = random_state(rng, 4)
    eta2 = np.zeros(8, dtype=complex)
    eta2[4:] = np.kron(np.eye(2), random_unitary(rng, 2)) @ xi2[4:]
    res = multi_transport(alg, [(xi1, eta1), (xi2, eta2)],
                          _units(alg), 0.1)
    assert max(res.terminal_errors) < 1e-10
    assert res.commutator_sup < 1e-9


@settings(max_examples=20, deadline=None)
@given(shapes=st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)), min_size=1,
                       max_size=3),
       noise=st.sampled_from([0.0, 1e-7, 1e-5]), seed=st.integers(0, 2**32 - 1))
def test_multi_transport_commutator_sup_is_a_certified_bound(shapes, noise, seed):
    # Each block's target is a commutant unitary of its source, perturbed by
    # ``noise`` so that the exact-repair legs have length.
    rng = np.random.default_rng(seed)
    ns, rs = zip(*shapes)
    alg = direct_sum_algebra(list(ns), list(rs))
    pairs, offset = [], 0
    for n, r in shapes:
        xi = np.zeros(alg.ambient_dim, dtype=complex)
        eta = np.zeros(alg.ambient_dim, dtype=complex)
        xi[offset:offset + n * r] = random_state(rng, n * r)
        moved = np.kron(np.eye(n), random_unitary(rng, r)) @ xi[offset:offset + n * r]
        moved = moved + noise * random_state(rng, n * r)
        eta[offset:offset + n * r] = moved / np.linalg.norm(moved)
        pairs.append((xi, eta))
        offset += n * r
    family = _units(alg)
    res = multi_transport(alg, pairs, family, 0.1)
    dense = max(op_norm(u @ x - x @ u)
                for u in res.path.at_times(res.path.sample_times(257)) for x in family)
    # The lifts commute with every unit and a repair leg of length L moves a
    # unit by at most 2 L; 1e-9 is the unit-commutator tolerance of the CLI.
    limit = 2 * max(b.extras["repair_length"] for b in res.per_block) + 1e-9
    assert dense <= res.commutator_sup < limit


def test_multi_transport_rejects_shared_block(rng):
    alg = direct_sum_algebra([2], [2])
    xi = random_state(rng, 4)
    eta = np.kron(np.eye(2), random_unitary(rng, 2)) @ xi
    with pytest.raises(DisjointnessError):
        multi_transport(alg, [(xi, eta), (xi, eta)], [], 0.1)


def test_multi_transport_checks_each_state_once_and_forms_no_block_identity(rng, monkeypatch):
    # The states are checked where they enter, and each pair's block is found
    # by products with the block's isometry, not by its dense identity.
    alg = direct_sum_algebra([2, 2], [2, 2])
    pairs = []
    for lo in (0, 4):
        xi, eta = np.zeros((2, 8), dtype=complex)
        xi[lo:lo + 4] = random_state(rng, 4)
        eta[lo:lo + 4] = np.kron(np.eye(2), random_unitary(rng, 2)) @ xi[lo:lo + 4]
        pairs.append((xi, eta))
    checked = []
    check_state = transport.check_state

    def counted(xi, *args, **kwargs):
        checked.append(xi)
        return check_state(xi, *args, **kwargs)

    def refused(self):
        raise AssertionError("block_identity formed")

    monkeypatch.setattr(transport, "check_state", counted)
    monkeypatch.setattr(MatrixUnits, "block_identity", refused)
    res = multi_transport(alg, pairs, [], 0.1)
    assert len(checked) == 2 * len(pairs)
    assert max(res.terminal_errors) < 1e-10


def test_projection_transport_gates_a_projection_without_an_svd(rng, monkeypatch):
    # Gate residues ||e e - e||_F and ||e - e^*||_F below 1e-10 accept e by
    # norm_at_most, and nothing else in the transport takes an SVD.
    dim, k = 6, 2
    q = random_unitary(rng, dim)
    e = q[:, :k] @ dagger(q[:, :k])
    assert max(np.linalg.norm(e @ e - e), np.linalg.norm(e - dagger(e))) < 1e-10
    xi = random_state(rng, dim)
    turn = scipy.linalg.block_diag(random_unitary(rng, k), random_unitary(rng, dim - k))
    eta = q @ turn @ dagger(q) @ xi
    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(args)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    path = projection_transport(e, xi, eta)
    assert calls == []
    assert abs(abs(np.vdot(eta, path.apply(1.0, xi))) - 1.0) < 1e-10


_phases = st.one_of(st.floats(-1e-3, 1e-3), st.floats(np.pi - 1e-3, np.pi),
                    st.floats(-np.pi, -np.pi + 1e-3), st.floats(-np.pi, np.pi))


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rank=st.sampled_from([1, 3, 7]),
       log_b=st.one_of(st.just(None), st.floats(-17.0, -5.0)), phase=_phases)
def test_projection_transport_of_nearly_colinear_components(seed, rank, log_b, phase):
    # dim 8: the e-component of eta is e^{i phase} times that of xi turned
    # by b within e's range, b = 0 or log-uniform up to 1e-5; the other
    # component is turned by a random unitary.  Each rest direction is
    # projected into its component's range, so the two geodesics never
    # overlap and the path commutes with e.
    rng = np.random.default_rng(seed)
    dim = 8
    q = random_unitary(rng, dim)
    e = q[:, :rank] @ dagger(q[:, :rank])
    c = random_state(rng, dim)
    inside = c[:rank] / np.linalg.norm(c[:rank])
    turn = np.zeros(rank, dtype=complex)
    b = 0.0 if log_b is None or rank == 1 else 10.0**log_b
    if rank > 1:
        turn = random_state(rng, rank)
        turn = turn - np.vdot(inside, turn) * inside
        turn = turn / np.linalg.norm(turn)
    moved = np.exp(1j * phase) * (np.sqrt(1.0 - b * b) * inside + b * turn)
    xi = q @ c
    eta = q @ np.concatenate([moved * np.linalg.norm(c[:rank]),
                              random_unitary(rng, dim - rank) @ c[rank:]])
    path = projection_transport(e, xi, eta)
    assert path.length <= np.pi / 2 + 1e-8
    assert abs(abs(np.vdot(eta, path.apply(1.0, xi))) - 1.0) <= 1e-14
    for t in (0.5, 1.0):
        u = path.at(t)
        assert op_norm(u @ e - e @ u) <= 1e-13


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 4), r=st.integers(1, 5), stack=st.integers(1, 5),
       kind=st.sampled_from(["generic", "short", "cluster", "zero"]),
       seed=st.integers(0, 2**32 - 1))
@example(n=1, r=2, stack=2, kind="cluster", seed=106061609)
def test_corner_rotations_match_each_family_alone(n, r, stack, kind, seed):
    # The stacked rotations against each family's rotation alone: the
    # closed form for n = 1 or r = 1 (_closed_form_unitary), align_unitary
    # otherwise.  Item 0 is rank short (two equal rows),
    # turned by a clustered unitary (two equal eigenvalues), or zero.
    rng = np.random.default_rng(seed)
    fx = rng.standard_normal((stack, n, r)) + 1j * rng.standard_normal((stack, n, r))
    turns = np.array([random_unitary(rng, r) for _ in range(stack)])
    if kind == "short" and n > 1:
        fx[0, 1] = fx[0, 0]
    if kind == "cluster":
        w = random_unitary(rng, r)
        angles = rng.uniform(-np.pi, np.pi, r)
        angles[:2] = angles[0]
        turns[0] = (w * np.exp(1j * angles)) @ dagger(w)
    fx /= np.linalg.norm(fx, axis=(1, 2), keepdims=True) * 1.01
    if kind == "zero":
        fx[0] = 0.0
    fy = fx @ np.swapaxes(turns, 1, 2)
    delta = invert_alignment_bound(n, r, 0.1)
    angles, vectors = _corner_rotations(fx, fy, np.full(stack, r))
    for t in range(stack):
        alone = (_closed_form_unitary(fx[t], fy[t]) if n == 1 or r == 1
                 else align_unitary(VectorFamily(r, fx[t]), VectorFamily(r, fy[t]),
                                    delta).unitary)
        v = vectors[t]
        stacked = np.eye(r) + (v * (np.exp(1j * angles[t]) - 1.0)) @ dagger(v)
        assert np.max(np.abs(stacked - alone)) <= 1e-12


def _shape_items(rng, n):
    """Corner multiplicities r' and src families X (n, r') of every shape
    the corner rotations tell apart at n units: r' = 1 (the phase); for
    n = 1 a geodesic; for n >= 3 full rank (r' >= n), short numerical rank
    (two equal rows) in the same r' stack, and r' < n with r' >= 2
    (pivots); and a zero corner."""
    if n == 1:
        ranks = [1, int(rng.integers(2, 5)), int(rng.integers(2, 5))]
    else:
        wide = n + int(rng.integers(0, 2))
        ranks = [1, wide, wide, int(rng.integers(2, n)), int(rng.integers(2, 5))]
    xs = [rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r)) for r in ranks]
    if n > 1:
        xs[2][1] = xs[2][0]
    xs[-1][:] = 0.0
    return ranks, [x / (1.01 * max(np.linalg.norm(x), 1.0)) for x in xs]


@settings(max_examples=40, deadline=None)
@given(n=st.sampled_from([1, 3, 4]), noise=st.sampled_from([0.0, 1e-9, 1e-6]),
       eps=st.sampled_from([0.5, 1e-3]), seed=st.integers(0, 2**32 - 1))
def test_every_corner_shape_in_one_stack_matches_its_transport_alone(n, noise, eps, seed):
    # One _corner_rotations call over a stack that holds every shape, each
    # item zero beyond its own r', against commutant_transport of the item
    # alone: the same gate outcome and Gram gap, bit for bit, from the
    # gates' shared measures; and for each admitted item, orthonormal
    # vectors, a residual within alignment_bound and equal to the
    # transport's alone, and the transport's corner rotation.
    rng = np.random.default_rng(seed)
    ranks, xs = _shape_items(rng, n)
    width = max(ranks)
    fx, fy = np.zeros((2, len(ranks), n, width), dtype=complex)
    for t, (r, x) in enumerate(zip(ranks, xs)):
        y = x @ random_unitary(rng, r).T + noise * rng.standard_normal((n, r))
        fx[t, :, :r], fy[t, :, :r] = x, y / max(np.linalg.norm(y) * 1.01, 1.0)
    ranks = np.array(ranks)
    gaps = np.zeros(len(ranks))
    for r in set(ranks.tolist()):
        gaps[ranks == r] = _gate_measures(np.stack([fx, fy])[:, ranks == r, :, :r])[1]
    angles, vectors = _corner_rotations(fx, fy, ranks)
    for t, r in enumerate(ranks.tolist()):
        mu = full_matrix_units(n, r, n * r + 1)
        states = []
        for f in (fx[t, :, :r], fy[t, :, :r]):
            state = mu.isometry @ f.reshape(-1)
            state[-1] = np.sqrt(1.0 - np.linalg.norm(f) ** 2)
            states.append(state)
        delta = invert_alignment_bound(n, r, eps / np.sqrt(n))
        try:
            alone = commutant_transport(mu, *states, eps)
        except HypothesisError as exc:
            assert gaps[t] >= delta and exc.measured_gap == gaps[t]
            continue
        assert gaps[t] < delta and alone.measured_gap == gaps[t]
        assert not vectors[t, r:].any()
        keep = angles[t] != 0.0
        v = vectors[t, :r][:, keep]
        assert np.linalg.norm(dagger(v) @ v - np.eye(v.shape[1])) <= 1e-12
        u = np.eye(r) + (v * (np.exp(1j * angles[t, keep]) - 1.0)) @ dagger(v)
        residual = np.max(np.linalg.norm(fx[t, :, :r] @ u.T - fy[t, :, :r], axis=1))
        assert residual <= alignment_bound(n, r, delta)
        assert abs(residual - alone.extras["alignment_residual"]) <= 1e-12
        corner = (dagger(mu.isometry) @ alone.path.end() @ mu.isometry)[:r, :r]
        assert np.max(np.abs(u - corner)) <= 1e-12


def _closed_form_unitary(x, y):
    """The corner rotation of one family in closed form, as an r x r
    unitary: the phase arg <x, y> for r = 1; for n = 1 the geodesic between
    the corner vectors normalised by ``_direction``, as the stacked route
    normalises them, so both see the same rest off x; the identity when
    either is zero."""
    r = x.shape[1]
    if r == 1:
        return np.exp(1j * np.angle(np.vdot(x, y))) * np.eye(1)
    if not (x.any() and y.any()):
        return np.eye(r)
    return geodesic_pair(_direction(x[0]), _direction(y[0])).end()
