import itertools
import json

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from state_transport.algebra import direct_sum_algebra
from state_transport.circle import arc_transport
from state_transport.errors import CertificateError, StateTransportError
from state_transport.group import group_state_transport
from state_transport.intertwine import assemble_path, back_and_forth, make_schedule
from state_transport.linalg import dagger, op_norm
from state_transport.path import (
    JOINT_TOL,
    PathSegment,
    UnitaryPath,
    concat_paths,
    joined_segment,
    summed_path,
)
from state_transport.serialize import decode_path, encode_path
from state_transport.suites import (
    circle_instance,
    commutant_instance,
    group_instance,
    intertwine_instance,
    random_state,
    random_unitary,
)
from state_transport.transport import (
    commutant_transport,
    geodesic_pair,
    multi_transport,
    projection_transport,
)


def _segment(t0, t1, h, base):
    """The segment exp(i (t - t0) h) base, from one eigh of h."""
    w, v = np.linalg.eigh(h)
    return PathSegment(t0, t1, w, v, base)


def _rotation_path(h, t1=1.0):
    dim = h.shape[0]
    return UnitaryPath([_segment(0.0, t1, h, np.eye(dim, dtype=complex))])


def test_length_is_speed_times_duration(rng):
    h = np.diag([1.0, -0.5]).astype(complex)
    p = _rotation_path(h)
    assert p.length == pytest.approx(1.0)
    assert p.rescaled(0.0, 2.0).length == pytest.approx(1.0)


def test_chord_sum_below_length(rng):
    xi = random_state(rng, 4)
    eta = random_state(rng, 4)
    p = geodesic_pair(xi, eta)
    us = p.at_times(np.linspace(p.t_start, p.t_end, 65))
    chords = sum(op_norm(b - a) for a, b in itertools.pairwise(us))
    assert chords <= p.length + 1e-9


def test_concat_runs_first_then_second(rng):
    xi = random_state(rng, 4)
    mid = random_state(rng, 4)
    eta = random_state(rng, 4)
    a = geodesic_pair(xi, mid)
    b = geodesic_pair(mid, eta)
    c = concat_paths(a, b)
    assert c.is_based()
    assert np.linalg.norm(c.at(0.5) @ xi - mid) < 1e-10
    assert np.linalg.norm(c.end() @ xi - eta) < 1e-10
    assert c.length == pytest.approx(a.length + b.length)
    assert max(op_norm(prev.end() - nxt.at(nxt.t0))
               for prev, nxt in itertools.pairwise(c.segments)) < 1e-10


def _complementary_generators():
    h1 = np.zeros((4, 4), dtype=complex)
    h1[:2, :2] = np.array([[0.4, 0.1], [0.1, -0.2]])
    h2 = np.zeros((4, 4), dtype=complex)
    h2[2:, 2:] = np.array([[0.0, 0.3j], [-0.3j, 0.5]])
    return h1, h2


def test_merge_orthogonal_blocks(rng):
    # Generators on orthogonal blocks sum to one segment, the rotation of
    # their sum; repairs run after it, from its end.
    h1, h2 = _complementary_generators()
    merged = summed_path(4, [np.linalg.eigh(h1), np.linalg.eigh(h2)], [])
    for t in (0.0, 0.4, 1.0):
        expect = _rotation_path(h1 + h2).at(t)
        assert op_norm(merged.at(t) - expect) < 1e-12
    assert merged.length == pytest.approx(max(op_norm(h1), op_norm(h2)))
    repaired = summed_path(4, [np.linalg.eigh(h1)], [np.linalg.eigh(h2)])
    turn, repair = repaired.segments
    assert (turn.t0, turn.t1, repair.t0, repair.t1) == (0.0, 0.5, 0.5, 1.0)
    assert op_norm(repaired.at(0.5) - _rotation_path(h1).end()) < 1e-12
    assert op_norm(repaired.end() - _rotation_path(h1 + h2).end()) < 1e-12


def test_summed_path_without_turns_is_constant():
    # Nothing to sum is no motion, not an error: the constant path.
    path = summed_path(3, [], [])
    assert path.length == 0.0 and np.array_equal(path.end(), np.eye(3))


def test_merged_full_rank_rotations_round_trip():
    # each eigh-built factor has four columns, two with w = 0; the sum
    # drops those, so its v is 4 x 4 and the encoding decodes
    h1, h2 = _complementary_generators()
    merged = summed_path(4, [np.linalg.eigh(h1), np.linalg.eigh(h2)], [])
    (seg,) = merged.segments
    assert seg.v.shape == (4, 4) and np.all(seg.w != 0.0)
    (back,) = decode_path(json.loads(json.dumps(encode_path(merged)))).segments
    assert (back.t0, back.t1) == (seg.t0, seg.t1)
    for name in ("w", "v", "base"):
        assert np.array_equal(getattr(back, name), getattr(seg, name))


def test_merge_rejects_overlapping_paths(rng):
    xi, eta = random_state(rng, 4), random_state(rng, 4)
    (a,), (b,) = geodesic_pair(xi, eta).segments, geodesic_pair(eta, xi).segments
    overlapping = [(a.w, a.v), (b.w, b.v)]
    for turns, repairs in ((overlapping, []), (overlapping[:1], overlapping)):
        with pytest.raises(CertificateError):
            summed_path(4, turns, repairs)


def _pair(rng, dim, support, phase, turn):
    """A state on its first ``support`` coordinates (all of them with None)
    and e^{i phase} turn xi, a phase multiple of it for turn = 1."""
    xi = np.zeros(dim, dtype=complex)
    xi[:support] = random_state(rng, xi[:support].size)
    return xi, np.exp(1j * phase) * (turn @ xi)


def _summed_transport(kind, rng, support, phase, turned, noise):
    """The path of a transport built by ``summed_path``, and the
    ``multi_transport`` result for kind "multi" (None otherwise)."""
    if kind == "projection":
        rank = int(rng.integers(1, 4))
        e = np.diag([1.0] * rank + [0.0] * (4 - rank)).astype(complex)
        turn = np.eye(4)
        if turned:
            turn = scipy.linalg.block_diag(random_unitary(rng, rank),
                                           random_unitary(rng, 4 - rank))
        return projection_transport(e, *_pair(rng, 4, support, phase, turn)), None
    if kind == "multi":
        shapes = [(2, 2), (1, 3)]
        alg = direct_sum_algebra(*map(list, zip(*shapes)))
        pairs, offset = [], 0
        for n, r in shapes:
            turn = np.kron(np.eye(n), random_unitary(rng, r)) if turned else np.eye(n * r)
            x, y = _pair(rng, n * r, support, phase, turn)
            y = y + noise * random_state(rng, n * r)
            xi, eta = np.zeros((2, alg.ambient_dim), dtype=complex)
            xi[offset:offset + n * r], eta[offset:offset + n * r] = x, y / np.linalg.norm(y)
            pairs.append((xi, eta))
            offset += n * r
        res = multi_transport(alg, pairs, [], 0.1)
        return res.path, res
    block, model, xi, eta = circle_instance(rng, 1 if support == 1 else 2, 8)
    return arc_transport(block, model, xi, eta, [], 0.3).path, None


@settings(max_examples=80, deadline=None)
@given(kind=st.sampled_from(["projection", "multi", "arcs"]),
       seed=st.integers(0, 2**32 - 1), support=st.sampled_from([1, 2, None]),
       phase=st.one_of(st.floats(-1e-3, 1e-3), st.floats(np.pi - 1e-3, np.pi),
                       st.floats(-np.pi, np.pi)),
       turned=st.booleans(), noise=st.sampled_from([0.0, 1e-7]))
def test_summed_paths_keep_orthonormal_columns_and_a_unitary_end(kind, seed, support,
                                                                  phase, turned, noise):
    # Projection, block and arc transports, on draws that include phase
    # multiples on one or two coordinates: every summed segment's columns
    # are orthonormal to JOINT_TOL and the end is unitary.  A multi path is
    # the blocks' turns summed into one segment and, when a block took a
    # repair, their repairs summed into one second segment.
    rng = np.random.default_rng(seed)
    path, res = _summed_transport(kind, rng, support, phase, turned, noise)
    for seg in path.segments:
        assert np.linalg.norm(dagger(seg.v) @ seg.v - np.eye(seg.v.shape[1])) <= JOINT_TOL
    end = path.end()
    assert op_norm(dagger(end) @ end - np.eye(path.dim)) <= 1e-12
    if res is None:
        return
    turns = [b.path.segments[0] for b in res.per_block]
    repairs = [seg for b in res.per_block for seg in b.path.segments[1:]]
    assert len(path.segments) == 1 + bool(repairs)
    if repairs:
        assert [(s.t0, s.t1) for s in path.segments] == [(0.0, 0.5), (0.5, 1.0)]
    for seg, parts in zip(path.segments, (turns, repairs)):
        w = np.concatenate([s.w * s.duration for s in parts])
        assert np.array_equal(seg.w * seg.duration, w[w != 0.0])


def test_right_multiplied(rng):
    u = random_unitary(rng, 3)
    h = np.diag([0.2, -0.1, 0.0]).astype(complex)
    p = _rotation_path(h)
    assert op_norm(p.right_multiplied(u).at(0.6) - p.at(0.6) @ u) < 1e-12


def test_constant_path():
    p = UnitaryPath.constant(3)
    assert p.length == 0.0
    assert op_norm(p.at(0.5) - np.eye(3)) == 0.0


def test_segment_at_start_is_a_copy_of_base(rng):
    base = random_unitary(rng, 4)
    h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    seg = _segment(0.25, 1.0, (h + dagger(h)) / 2, base)
    start = seg.at(0.25)
    assert np.array_equal(start, base)
    assert start is not base
    start[0, 0] = 7.0
    assert base[0, 0] != 7.0


def test_length_is_generator_norm_without_eigh(rng):
    xi, mid, eta = (random_state(rng, 5) for _ in range(3))
    path = concat_paths(geodesic_pair(xi, mid), geodesic_pair(mid, eta))
    expect = sum(s.duration * op_norm(s.generator) for s in path.segments)
    with pytest.MonkeyPatch.context() as mp:
        calls = _count_eigh(mp)
        length = path.length
    assert abs(length - expect) <= 1e-14 * expect
    assert calls == []


def _tower_path(rng):
    """The assembled path of a 16-dimensional tower: two odd rounds, the
    second based at the first's unitary."""
    tower, xi, eta = intertwine_instance(rng, ambient=16, branchings=[2] * 4,
                                         commutant_level=3, twist=1e-7)
    return assemble_path(back_and_forth(tower, xi, eta, [], make_schedule(tower, 0.1, 3)))


def _multi_segment_path(kind, rng):
    """Paths with several segments, from each way the library builds them."""
    if kind == "tower":
        return _tower_path(rng)
    xi, mid, eta = (random_state(rng, 4) for _ in range(3))
    concat = concat_paths(geodesic_pair(xi, mid), geodesic_pair(mid, eta))
    if kind == "concatenated":
        return concat_paths(concat, geodesic_pair(eta, xi))
    if kind == "rescaled":
        return concat.rescaled(-0.5, 2.0)
    if kind == "constant":
        return UnitaryPath.constant(4, random_unitary(rng, 4))
    # merged: blocks cut at different times, joined over the three cuts
    pieces = []
    for block, cut in ((slice(0, 2), 0.3), (slice(2, 4), 0.6)):
        segs = []
        base = np.eye(4, dtype=complex)
        for t0, t1 in ((0.0, cut), (cut, 1.0)):
            h = np.zeros((4, 4), dtype=complex)
            a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            h[block, block] = a + dagger(a)
            segs.append(_segment(t0, t1, h, base))
            base = segs[-1].end()
        pieces.append(segs)
    (a1, a2), (b1, b2) = pieces
    return UnitaryPath([joined_segment(t0, t1, [a.w, b.w], [a.v, b.v], a.at(t0) @ b.at(t0))
                        for t0, t1, a, b in ((0.0, 0.3, a1, b1), (0.3, 0.6, a2, b1),
                                             (0.6, 1.0, a2, b2))])


PATH_KINDS = ("concatenated", "merged", "rescaled", "tower", "constant")


def _count_eigh(mp):
    """Record the shape of every ``eigh`` and ``eigvalsh`` call."""
    calls = []
    for name in ("eigh", "eigvalsh"):
        def counted(x, *args, _f=getattr(np.linalg, name), **kwargs):
            calls.append(x.shape)
            return _f(x, *args, **kwargs)

        mp.setattr(np.linalg, name, counted)
    return calls


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(PATH_KINDS), seed=st.integers(0, 2**32 - 1),
       data=st.data())
def test_at_times_equals_at_without_eigh(kind, seed, data):
    path = _multi_segment_path(kind, np.random.default_rng(seed))
    lo, hi = path.t_start, path.t_end
    special = [lo, hi, lo - 0.25, hi + 0.25] + [s.t1 for s in path.segments[:-1]]
    ts = data.draw(st.lists(
        st.one_of(st.sampled_from(special), st.floats(lo - 1.0, hi + 1.0)),
        min_size=1, max_size=12,
    ))
    with pytest.MonkeyPatch.context() as mp:
        calls = _count_eigh(mp)
        values = list(path.at_times(ts))
    assert calls == []
    assert len(values) == len(ts)
    for t, u in zip(ts, values):
        assert np.array_equal(u, path.at(t))
        assert all(u is not s.base for s in path.segments)


def test_segment_at_takes_no_eigh(rng):
    h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = (h + dagger(h)) / 2
    base = random_unitary(rng, 4)
    seg = _segment(0.0, 1.0, h, base)
    with pytest.MonkeyPatch.context() as mp:
        calls = _count_eigh(mp)
        values = [seg.at(t) for t in (0.25, 0.5, 0.25)] + [seg.end(), seg.end()]
    assert calls == []
    for t, u in zip((0.25, 0.5, 0.25, 1.0, 1.0), values):
        assert op_norm(u - scipy.linalg.expm(1j * t * h) @ base) <= 1e-12


def _commutator_oracle(path, elements, samples):
    sup = 0.0
    for t in path.sample_times(samples):
        u = path.at(t)
        for x in elements:
            sup = max(sup, op_norm(u @ x - x @ u))
    return sup


@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from(PATH_KINDS), seed=st.integers(0, 2**32 - 1))
def test_commutator_bound_dominates_sampled_sup(kind, seed):
    # random elements, and elements that commute with the whole path or
    # with its first segment's base, where only rounding is left
    rng = np.random.default_rng(seed)
    path = _multi_segment_path(kind, rng)
    dim = path.dim
    half = np.diag(np.arange(dim) < dim // 2).astype(complex)
    elements = [random_unitary(rng, dim), half, np.eye(dim, dtype=complex),
                path.segments[0].base]
    sampled = [_commutator_oracle(path, [x], 257) for x in elements]
    for x, sup in zip(elements, sampled):
        assert path.commutator_bound([x]) >= sup
    assert path.commutator_bound(elements) >= max(sampled)


def _geometric_tail(tower, c):
    """sum_k c^{k-1} shift_k over the tower's levels: the level-1 shift with
    a geometric tail off level 1."""
    return [sum(c ** (k - 1) * tower.level_generators(k)[0]
                for k in range(1, tower.depth + 1))]


TOWER_FIXED_SETS = {
    "level 1": lambda tower: tower.level_generators(1),
    "level 2": lambda tower: tower.level_generators(2),
    "level 3": lambda tower: tower.level_generators(3),
    "tail 0.02": lambda tower: _geometric_tail(tower, 0.02),
    "tail 0.1": lambda tower: _geometric_tail(tower, 0.1),
}


@settings(max_examples=20, deadline=None)
@given(name=st.sampled_from(sorted(TOWER_FIXED_SETS)), ambient=st.sampled_from([16, 64]),
       rounds=st.integers(1, 3), twist=st.sampled_from([0.0, 1e-9, 1e-7]),
       seed=st.integers(0, 2**32 - 1))
def test_commutator_bound_dominates_sampled_sup_on_tower_path(name, ambient, rounds,
                                                              twist, seed):
    # the tower path is 1_2 (x) its factor path with the limit 4 eps / 3, so
    # its bound reads the level-1 splits, and the dense terms for a pair
    # whose split bound reaches the limit (levels 2 and 3, and the tails at
    # 16 dims)
    rng = np.random.default_rng(seed)
    tower, xi, eta = intertwine_instance(rng, ambient=ambient,
                                         branchings=[2] * (ambient.bit_length() - 1),
                                         commutant_level=3, twist=twist)
    result = back_and_forth(tower, xi, eta, [], make_schedule(tower, 0.1, rounds))
    path = assemble_path(result)
    assert (path.level, path.limit) == (2, 4 * 0.1 / 3)
    fixed = TOWER_FIXED_SETS[name](tower)
    assert path.commutator_bound(fixed) >= _commutator_oracle(path, fixed, 257)


def test_commutator_bound_without_elements_is_zero(rng):
    path = _multi_segment_path("concatenated", rng)
    assert path.commutator_bound([]) == 0.0


def _path_failure(case):
    def still(t0, t1):
        return UnitaryPath([PathSegment(t0, t1, np.zeros(0), np.zeros((3, 0)),
                                        np.eye(3, dtype=complex))])

    if case == "empty path":
        return UnitaryPath([])
    if case == "degenerate interval":
        return still(0.5, 0.5).rescaled()
    twisted = UnitaryPath.constant(3, np.diag([1.0, 1.0, -1.0]).astype(complex))
    return concat_paths(UnitaryPath.constant(3), twisted)


@pytest.mark.parametrize("case", ["empty path", "degenerate interval",
                                  "unbased second path"])
def test_path_failures_are_typed(case):
    with pytest.raises(StateTransportError) as info:
        _path_failure(case)
    # still a ValueError for callers that catch those
    assert isinstance(info.value, ValueError)


def _library_path(kind, rng):
    """A path of the given kind, built by the library's own constructors
    and transforms."""
    xi, mid, eta = (random_state(rng, 4) for _ in range(3))
    if kind == "geodesic":
        return geodesic_pair(xi, eta)
    if kind == "colinear":
        return geodesic_pair(xi, np.exp(1j * rng.uniform(-np.pi, np.pi)) * xi)
    if kind in ("commutant", "repaired", "decoded"):
        mu, a, b = commutant_instance(rng, 2, 3, 0.1, stats_noise=1e-6)
        path = commutant_transport(mu, a, b, 0.1, exact=kind != "commutant").path
        if kind == "decoded":
            return decode_path(json.loads(json.dumps(encode_path(path))))
        return path
    if kind == "arcs":
        # merged arc lifts of commutant transports on compressed units
        block, model, a, b = circle_instance(rng, 2, 8)
        return arc_transport(block, model, a, b, [], 0.3).path
    if kind == "group":
        action, a, b = group_instance(rng, 3)
        return group_state_transport(action, a, b, [(1,), (-1,)], 0.3).path
    if kind == "tower":
        return _tower_path(rng)
    path = concat_paths(geodesic_pair(xi, mid), geodesic_pair(mid, eta))
    if kind == "right":
        return path.right_multiplied(random_unitary(rng, 4))
    return path.rescaled(-0.5, 2.0)


LIBRARY_KINDS = ("geodesic", "colinear", "commutant", "repaired", "arcs", "tower",
                 "right", "rescaled", "group", "decoded")


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(LIBRARY_KINDS), seed=st.integers(0, 2**32 - 1),
       fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3))
def test_segments_are_their_generators_exponentials(kind, seed, fractions):
    path = _library_path(kind, np.random.default_rng(seed))
    expect = sum(s.duration * op_norm(s.generator) for s in path.segments)
    assert abs(path.length - expect) <= 1e-14 * expect
    one = np.eye(path.dim)
    for seg in path.segments:
        h = seg.generator
        for f in fractions + [1.0]:
            t = seg.t0 + f * seg.duration
            u = seg.at(t)
            assert op_norm(dagger(u) @ u - one) <= 1e-12
            assert op_norm(u - scipy.linalg.expm(1j * (t - seg.t0) * h) @ seg.base) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(LIBRARY_KINDS), seed=st.integers(0, 2**32 - 1),
       fractions=st.lists(st.floats(-0.25, 1.25), min_size=1, max_size=4))
def test_apply_is_the_evaluated_path_times_the_vector(kind, seed, fractions):
    # u(t) x through the segment's (w, v, base) is at(t) @ x, at the ends,
    # at the segment joins and outside the interval, where both clamp t.
    rng = np.random.default_rng(seed)
    path = _library_path(kind, rng)
    x = random_state(rng, path.dim)
    lo, hi = path.t_start, path.t_end
    times = [lo + f * (hi - lo) for f in fractions] + [s.t1 for s in path.segments] + [lo]
    for t in times:
        assert np.linalg.norm(path.apply(t, x) - path.at(t) @ x) <= 1e-14
