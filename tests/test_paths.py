import numpy as np
import pytest

from state_transport.linalg import dagger, op_norm
from state_transport.path import (
    PathSegment,
    UnitaryPath,
    concat_paths,
    merge_orthogonal_paths,
)
from state_transport.transport import geodesic_pair
from state_transport.suites import random_state, random_unitary


def _rotation_path(h, t1=1.0):
    dim = h.shape[0]
    return UnitaryPath([PathSegment(0.0, t1, h, np.eye(dim, dtype=complex))])


def test_length_is_speed_times_duration(rng):
    h = np.diag([1.0, -0.5]).astype(complex)
    p = _rotation_path(h)
    assert p.length == pytest.approx(1.0)
    assert p.rescaled(0.0, 2.0).length == pytest.approx(1.0)


def test_chord_sum_below_length(rng):
    xi = random_state(rng, 4)
    eta = random_state(rng, 4)
    p = geodesic_pair(xi, eta)
    assert p.chord_sum(64) <= p.length + 1e-9


def test_adjoint_pointwise(rng):
    xi = random_state(rng, 3)
    eta = random_state(rng, 3)
    p = geodesic_pair(xi, eta)
    q = p.adjoint()
    for t in (0.0, 0.3, 0.77, 1.0):
        assert op_norm(q.at(t) - dagger(p.at(t))) < 1e-12


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
    assert c.joint_defect() < 1e-10


def test_merge_orthogonal_blocks(rng):
    h1 = np.zeros((4, 4), dtype=complex)
    h1[:2, :2] = np.array([[0.4, 0.1], [0.1, -0.2]])
    h2 = np.zeros((4, 4), dtype=complex)
    h2[2:, 2:] = np.array([[0.0, 0.3j], [-0.3j, 0.5]])
    merged = merge_orthogonal_paths([_rotation_path(h1), _rotation_path(h2)])
    for t in (0.0, 0.4, 1.0):
        expect = _rotation_path(h1 + h2).at(t)
        assert op_norm(merged.at(t) - expect) < 1e-12
    assert merged.length == pytest.approx(max(op_norm(h1), op_norm(h2)))


def test_left_right_multiplied(rng):
    u = random_unitary(rng, 3)
    h = np.diag([0.2, -0.1, 0.0]).astype(complex)
    p = _rotation_path(h)
    assert op_norm(p.left_multiplied(u).at(0.6) - u @ p.at(0.6)) < 1e-12
    assert op_norm(p.right_multiplied(u).at(0.6) - p.at(0.6) @ u) < 1e-12


def test_constant_path():
    p = UnitaryPath.constant(3)
    assert p.length == 0.0
    assert op_norm(p.at(0.5) - np.eye(3)) == 0.0


def test_segment_at_start_is_a_copy_of_base(rng):
    base = random_unitary(rng, 4)
    h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    seg = PathSegment(0.25, 1.0, (h + dagger(h)) / 2, base)
    start = seg.at(0.25)
    assert np.array_equal(start, base)
    assert start is not base
    start[0, 0] = 7.0
    assert base[0, 0] != 7.0


def test_length_is_cached_generator_norm(rng, monkeypatch):
    xi, mid, eta = (random_state(rng, 5) for _ in range(3))
    path = concat_paths(geodesic_pair(xi, mid), geodesic_pair(mid, eta))
    expect = sum(s.duration * op_norm(s.generator) for s in path.segments)
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(x):
        calls.append(x.shape)
        return eigvalsh(x)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    assert abs(path.length - expect) <= 1e-14 * max(1.0, expect)
    assert len(calls) == len(path.segments)
    for _ in range(3):
        assert path.length == path.length
    assert len(calls) == len(path.segments)
