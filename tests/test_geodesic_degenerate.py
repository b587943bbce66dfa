"""Geodesics between nearly colinear and nearly antipodal states.

eta = e^{i phase} sqrt(1 - s^2) xi + s w with w a unit vector orthogonal to
xi, for tiny s and phases near 0, at 0.7 and near +-pi: the regimes where
the length and endpoint bounds are hardest to meet.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from state_transport.linalg import dagger
from state_transport.suites import random_state
from state_transport.transport import (
    _corner_rotations,
    _geodesic,
    geodesic_angle,
    geodesic_lower_bound,
    geodesic_pair,
)

BOUND = 1e-8

phases = st.one_of(
    st.floats(-1e-3, 1e-3),
    st.just(0.7),
    st.floats(np.pi - 1e-3, np.pi),
    st.floats(-np.pi, -np.pi + 1e-3),
)


def degenerate_pair(seed, dim, phase, s, support=None):
    """(xi, eta, outside): xi and eta vanish exactly off ``support`` random
    coordinates, so the unit vectors at the ``outside`` coordinates are
    orthogonal to span{xi, eta} without rounding."""
    rng = np.random.default_rng(seed)
    coords = rng.permutation(dim)
    support = support or dim
    inside, outside = coords[:support], np.sort(coords[support:])
    xi = np.zeros(dim, dtype=complex)
    w = np.zeros(dim, dtype=complex)
    xi[inside] = random_state(rng, inside.size)
    w[inside] = random_state(rng, inside.size)
    w = w - np.vdot(xi, w) * xi
    w = w / np.linalg.norm(w)
    eta = np.exp(1j * phase) * np.sqrt(1.0 - s * s) * xi + s * w
    return xi, eta, outside


def check_geodesic(xi, eta):
    path = geodesic_pair(xi, eta)
    assert len(path.segments) == 1
    assert abs(path.length - geodesic_angle(xi, eta)) <= BOUND
    assert np.linalg.norm(path.end() @ xi - eta) <= BOUND
    return path


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(2, 16),
    support=st.integers(2, 16),
    phase=phases,
    log_s=st.floats(-8.0, -4.0),
)
def test_degenerate_pair_bounds(seed, dim, support, phase, log_s):
    xi, eta, outside = degenerate_pair(seed, dim, phase, 10.0**log_s,
                                       min(support, dim))
    path = check_geodesic(xi, eta)
    perp = np.eye(dim)[:, outside]
    for t in (0.5, 1.0):
        assert np.linalg.norm(path.at(t) @ perp - perp) <= BOUND
    geodesic_lower_bound(path, xi, eta)


@pytest.mark.parametrize("seed", range(40))
def test_nearly_colinear_phase_regression(seed):
    # At s = 1e-8 next to a phase 0.7 the frame construction used to divide
    # by a vanishing rate and fail on non-finite generators.
    dim = 2 + seed % 15
    xi, eta, _ = degenerate_pair(seed, dim, 0.7, 1e-8)
    path = check_geodesic(xi, eta)
    geodesic_lower_bound(path, xi, eta)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(2, 16),
    phase=phases,
    s=st.one_of(st.floats(1e-15, 1e-8), st.floats(1e-8, 1.0)),
)
def test_geodesic_length_is_the_angle_bit_for_bit(seed, dim, phase, s):
    # b down to 1e-15, nearly antipodal pairs (phase near pi) and generic
    # ones: every b > 0 takes the rank-2 segment, which holds
    # w = (-theta, theta) exactly.
    xi, eta, _ = degenerate_pair(seed, dim, phase, s)
    path = geodesic_pair(xi, eta)
    assert path.segments[0].w.size == 2
    assert path.length == geodesic_angle(xi, eta)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(2, 11),
    phase=st.floats(-np.pi, np.pi),
    log_b=st.floats(-17.0, -6.0),
)
def test_nearly_colinear_geodesic_reaches_the_target(seed, dim, phase, log_b):
    # However small b > 0 is, the rank-2 segment turns xi onto eta to
    # rounding; a phase rotation alone would leave an error of b.
    xi, eta, _ = degenerate_pair(seed, dim, phase, 10.0**log_b)
    path = geodesic_pair(xi, eta)
    assert np.linalg.norm(path.end() @ xi - eta) <= 1e-14
    assert np.linalg.norm(path.apply(1.0, xi) - eta) <= 1e-14


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(2, 16),
    alpha=st.floats(-np.pi + 1e-3, np.pi - 1e-3),
    s=st.one_of(st.just(0.0), st.floats(1e-12, 1e-6), st.floats(1e-3, 1.0)),
)
@example(seed=3, dim=5, alpha=-0.7, s=0.0)
@example(seed=3, dim=5, alpha=-2.5, s=0.0)
@example(seed=3, dim=5, alpha=3e-5, s=0.0)
@example(seed=3, dim=5, alpha=-1e-5, s=0.0)
def test_lower_bound_is_the_angle_for_either_phase_sign(seed, dim, alpha, s):
    # colinear pairs (xi, e^{i alpha} xi), whose u(1) has the eigenvalue
    # e^{i alpha} of either sign, and near-colinear and generic pairs: the
    # bound is the angle and at most the length.  A negative phase failed
    # a spectrum walk that started from e^{+i |alpha|}, and below about
    # 4.5e-5 a tolerance of 1e-9 on the cosine let the eigenvalue 1 be the
    # bound.
    xi, eta, _ = degenerate_pair(seed, dim, alpha, s)
    path = geodesic_pair(xi, eta)
    phi = geodesic_lower_bound(path, xi, eta)
    assert phi <= path.length + 1e-6
    assert abs(phi - geodesic_angle(xi, eta)) <= 1e-6



@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(2, 12),
    phases=st.lists(phases, min_size=1, max_size=6),
    log_bs=st.lists(st.one_of(st.none(), st.floats(-17.0, 0.0)), min_size=6, max_size=6),
)
def test_stacked_geodesic_matches_the_single_call(seed, dim, phases, log_bs):
    # A stack of pairs, b from 0 exactly (colinear rows) to 1: every row
    # takes the eigenpairs it takes alone.
    pairs = [degenerate_pair(seed + k, dim, phase, 0.0 if log_b is None else 10.0**log_b)
             for k, (phase, log_b) in enumerate(zip(phases, log_bs))]
    xs, ys = (np.array(vs) for vs in zip(*[(xi, eta) for xi, eta, _ in pairs]))
    w, v = _geodesic(xs, ys)
    for k, (xi, eta, _) in enumerate(pairs):
        w1, v1 = _geodesic(xi, eta)
        assert np.max(np.abs(w[k] - w1)) <= 1e-15
        assert np.max(np.abs(v[k] - v1)) <= 1e-15


@settings(max_examples=200, deadline=None)
@given(dim=st.integers(2, 8), support=st.sampled_from([1, 2]),
       phase=st.one_of(st.floats(-np.pi, np.pi), st.sampled_from([0.0, np.pi, -np.pi])),
       turn=st.one_of(st.floats(-np.pi, np.pi), st.sampled_from([0.0, np.pi, 1e-9])),
       seed=st.integers(0, 2**32 - 1))
def test_phase_multiple_on_few_coordinates_gives_a_unitary_path(dim, support, phase, turn,
                                                                seed):
    # xi a phase times a basis vector, or supported on two coordinates, and
    # eta a phase multiple of it: the rest eta - a xi is rounding along xi
    # itself, which counts as b = 0.  Both geodesic_pair and the n = 1
    # corner rotation give orthonormal columns and a unitary end.
    rng = np.random.default_rng(seed)
    xi = np.zeros(dim, dtype=complex)
    coords = rng.choice(dim, support, replace=False)
    xi[coords] = np.exp(1j * rng.uniform(-np.pi, np.pi, support)) * rng.uniform(0.1, 1.0, support)
    xi = np.exp(1j * phase) * xi / np.linalg.norm(xi)
    eta = np.exp(1j * turn) * xi
    segment = geodesic_pair(xi, eta).segments[0]
    u = segment.at(1.0)
    assert np.linalg.norm(dagger(segment.v) @ segment.v - np.eye(segment.v.shape[1])) <= 1e-12
    assert np.linalg.norm(dagger(u) @ u - np.eye(dim)) <= 1e-12
    assert np.linalg.norm(u @ xi - eta) <= 1e-12
    angles, vectors = _corner_rotations(xi[None, None], eta[None, None], np.array([dim]))
    keep = angles[0] != 0.0
    v = vectors[0][:, keep]
    u = np.eye(dim) + (v * (np.exp(1j * angles[0, keep]) - 1.0)) @ dagger(v)
    assert np.linalg.norm(dagger(v) @ v - np.eye(v.shape[1])) <= 1e-12
    assert np.linalg.norm(dagger(u) @ u - np.eye(dim)) <= 1e-12
    assert np.linalg.norm(u @ xi - eta) <= 1e-12
