import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from state_transport.errors import (
    DimensionError,
    FlipInconsistencyError,
    HypothesisError,
    NonCommutingGeneratorsError,
    UnsupportedGroupError,
)
from state_transport.gram import VectorFamily
from state_transport.group import (
    GroupAction,
    average_conjugates,
    finite_cyclic_action,
    flip_projection,
    folner_set,
    group_state_transport,
    integer_action,
)
from state_transport.linalg import dagger, op_norm
from state_transport.suites import group_instance, random_state, random_unitary


def test_finite_cyclic_action_multiplicative(rng):
    u = np.diag(np.exp(2j * np.pi * np.arange(4) / 4))
    action = finite_cyclic_action(4, u)
    samples = [(a, b) for a in range(4) for b in range(4)]
    assert action.multiplicativity_defect(samples) < 1e-10


def test_folner_finite_group_is_whole_group(rng):
    u = np.diag(np.exp(2j * np.pi * np.arange(3) / 3))
    action = finite_cyclic_action(3, u)
    fol = folner_set(action, [1], 0.5)
    assert sorted(fol.elements) == [0, 1, 2]
    assert fol.defect == 0.0


def test_folner_interval_defect_exact(rng):
    action = integer_action([random_unitary(rng, 4)])
    fol = folner_set(action, [(1,), (-1,)], 0.1)
    length = len(fol.elements)
    assert length >= 20
    assert fol.defect == 2.0 / length
    assert fol.defect < 0.1
    assert (0,) in fol.elements


def test_folner_z2_box(rng):
    u = random_unitary(rng, 3)
    action = integer_action([u, u @ u])
    fol = folner_set(action, [(1, 0), (0, 1)], 0.2)
    assert fol.defect < 0.2


def test_unsupported_group():
    with pytest.raises(UnsupportedGroupError):
        GroupAction(kind="free", dim=2)


def test_average_conjugates_commuting_h(rng):
    u = np.diag(np.exp(2j * np.pi * np.arange(4) / 4))
    action = integer_action([u])
    fol = folner_set(action, [(1,), (-1,)], 0.2)
    h = np.diag([0.5, -0.2, 0.1, 0.0]).astype(complex)  # commutes with u
    hbar = average_conjugates(h, fol, action)
    assert op_norm(hbar - h) < 1e-10


def test_average_conjugates_generator_bound(rng):
    action = integer_action([random_unitary(rng, 5)])
    fol = folner_set(action, [(1,), (-1,)], 0.1)
    h = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    h = (h + dagger(h)) / 2
    h = h / op_norm(h)
    hbar = average_conjugates(h, fol, action)
    assert op_norm(hbar) <= 1.0 + 1e-12
    g = action.rep((1,))
    assert op_norm(g @ hbar - hbar @ g) <= 2 * fol.defect + 1e-10


def test_average_conjugates_rejects_large_h(rng):
    action = integer_action([random_unitary(rng, 3)])
    fol = folner_set(action, [(1,)], 0.5)
    with pytest.raises(HypothesisError):
        average_conjugates(3.0 * np.eye(3, dtype=complex), fol, action)


def test_flip_projection_relations(rng):
    # orthonormal families in orthogonal subspaces of dim 8
    xis = np.zeros((2, 8), dtype=complex)
    xis[0, 0] = 1.0
    xis[1, 1] = 1.0
    zetas = np.zeros((2, 8), dtype=complex)
    zetas[0, 4] = 1.0
    zetas[1, 5] = 1.0
    e = flip_projection(VectorFamily(8, xis), VectorFamily(8, zetas))
    assert op_norm(e @ e - e) < 1e-10
    for x, z in zip(xis, zetas):
        assert np.linalg.norm(e @ (x + z)) < 1e-10
        assert np.linalg.norm(e @ (x - z) - (x - z)) < 1e-10


def test_flip_projection_single_pair(rng):
    xi = np.array([1.0, 0.0], dtype=complex)
    zeta = np.array([0.0, 1.0], dtype=complex)
    e = flip_projection(VectorFamily(2, [xi]), VectorFamily(2, [zeta]))
    assert np.linalg.norm(e @ (xi + zeta)) < 1e-12
    assert np.linalg.norm(e @ (xi - zeta) - (xi - zeta)) < 1e-12


def test_flip_projection_rejects_overlap(rng):
    v = random_state(rng, 4)
    fam = VectorFamily(4, [v])
    with pytest.raises(FlipInconsistencyError):
        flip_projection(fam, fam)


def test_group_state_transport_orthogonal(rng):
    action, xi, eta = group_instance(rng, 48)
    res = group_state_transport(action, xi, eta, [(1,), (-1,)], 0.1, t_samples=5)
    assert res.legs == 1
    assert res.terminal_error <= res.terminal_bound
    assert res.commutator_sup < res.commutator_bound
    assert res.path.length <= np.pi + 1e-10
    assert res.extras["flip_error"] <= res.extras["flip_bound"]


def test_group_state_transport_detour_with_hint(rng):
    # three orthogonal copies; source and target share the first copy's
    # orbit, the hint lives in the third
    d = 48
    u0 = random_unitary(rng, d)
    z = np.zeros((d, d))
    gen = np.block([[u0, z, z], [z, u0, z], [z, z, u0]])
    action = integer_action([gen])
    x = random_state(rng, d)
    xi = np.concatenate([x, np.zeros(2 * d)])
    eta = np.concatenate([np.exp(0.4j) * x, np.zeros(2 * d)])
    hint = np.concatenate([np.zeros(2 * d), x])
    res = group_state_transport(action, xi, eta, [(1,), (-1,)], 0.1,
                                detour_hint=hint, t_samples=3)
    assert res.legs == 2
    assert res.terminal_error <= res.terminal_bound + 1e-8


def _unitary_with_angles(rng, angles):
    q = random_unitary(rng, len(angles))
    return (q * np.exp(1j * np.asarray(angles))) @ dagger(q)


def _generators(kind, rng, dim):
    """Commuting generators: generic, every eigenvalue doubled (two copies),
    eigenvalues in pairs 1e-9 apart, or Z^2 with a degenerate first one."""
    if kind == "generic":
        return [random_unitary(rng, dim)]
    if kind == "doubled":
        u0 = random_unitary(rng, dim)
        z = np.zeros((dim, dim))
        return [np.block([[u0, z], [z, u0]])]
    angles = rng.uniform(-np.pi, np.pi, dim)
    if kind == "clustered":
        angles[1::2] = angles[::2][: dim // 2] + 1e-9
        return [_unitary_with_angles(rng, angles)]
    q = random_unitary(rng, dim)
    first = np.where(np.arange(dim) % 2 == 0, 0.3, -2.1)
    return [(q * np.exp(1j * a)) @ dagger(q) for a in (first, angles)]


def _rep_oracle(gens, g):
    out = np.eye(gens[0].shape[0], dtype=complex)
    for u, k in zip(gens, g):
        out = out @ np.linalg.matrix_power(u, k)
    return out


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["generic", "doubled", "clustered", "z2_degenerate"]),
       seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 6),
       eps=st.floats(0.3, 0.9))
def test_average_conjugates_matches_box_mean(kind, seed, dim, eps):
    rng = np.random.default_rng(seed)
    gens = _generators(kind, rng, dim)
    action = integer_action(gens)
    shifts = [tuple(int(i == k) for i in range(len(gens))) for k in range(len(gens))]
    fol = folner_set(action, shifts, eps)
    n = action.dim
    h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = (h + dagger(h)) / 2
    h = h / op_norm(h)
    oracle = sum(dagger(_rep_oracle(gens, g)) @ h @ _rep_oracle(gens, g)
                 for g in fol.elements) / len(fol.elements)
    oracle = (oracle + dagger(oracle)) / 2
    assert op_norm(average_conjugates(h, fol, action) - oracle) < 1e-12


@pytest.mark.parametrize("kind", ["generic", "doubled", "clustered", "z2_degenerate"])
def test_rep_matches_matrix_power(rng, kind):
    gens = _generators(kind, rng, 6)
    action = integer_action(gens)
    for k in range(-20, 21):
        g = (k,) if len(gens) == 1 else (k, 20 - abs(k))
        assert op_norm(action.rep(g) - _rep_oracle(gens, g)) < 1e-11


def test_noncommuting_generators_rejected(rng):
    with pytest.raises(NonCommutingGeneratorsError):
        integer_action([random_unitary(rng, 3), random_unitary(rng, 3)])
    with pytest.raises(DimensionError):
        integer_action([random_unitary(rng, 3), random_unitary(rng, 4)])
