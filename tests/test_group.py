import itertools
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from state_transport.errors import (
    DetourFailureError,
    DimensionError,
    FlipInconsistencyError,
    HypothesisError,
    NonCommutingGeneratorsError,
    NotUnitaryError,
    ParameterError,
    StateTransportError,
    UnsupportedGroupError,
)
from state_transport.gram import VectorFamily
from state_transport.group import (
    EXP_SERIES_CONSTANT,
    FLIP_TOL,
    OVERLAP_TOL,
    GroupAction,
    _correlations,
    _difference_set,
    _find_detour,
    _graph_factors,
    _joint_eigenbasis,
    _orbit,
    average_conjugates,
    finite_cyclic_action,
    flip_projection,
    folner_set,
    group_state_transport,
    integer_action,
)
from state_transport import linalg
from state_transport.linalg import (_TILT, UNITARY_TOL, _normal_eigenbasis, check_unitary,
                                    dagger, op_norm)
from state_transport.suites import group_instance, random_state, random_unitary


def test_finite_cyclic_action_multiplicative(rng):
    u = np.diag(np.exp(2j * np.pi * np.arange(4) / 4))
    action = finite_cyclic_action(4, u)
    samples = [(a, b) for a in range(4) for b in range(4)]
    assert max(op_norm(action.rep(int(action.table[g][h])) - action.rep(g) @ action.rep(h))
               for g, h in samples) < 1e-10


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


def _set_based_defect(box, g):
    """The translation defect |F ^ (F + g)| / |F|, counted on the sets."""
    shifted = {tuple(a + b for a, b in zip(p, g)) for p in box}
    return len(set(box) ^ shifted) / len(box)


@pytest.mark.parametrize("eps, gens", [
    (0.1, [(1,), (-1,), (3,)]),
    (100.0, [(5,)]),  # the box of side 3 misses its own translate
    (0.3, [(1, 0), (0, 1), (2, -1), (-3, 3)]),
    (50.0, [(7, 0), (1, 1)]),
    (0.9, [(1, 0, 0), (0, -1, 1), (2, 1, -2)]),
])
def test_folner_defect_matches_set_count(rng, eps, gens):
    u = random_unitary(rng, 3)
    action = integer_action([np.linalg.matrix_power(u, k + 1)
                             for k in range(len(gens[0]))])
    fol = folner_set(action, gens, eps)
    assert fol.defect == max(_set_based_defect(fol.elements, g) for g in gens)


def test_unsupported_group():
    with pytest.raises(UnsupportedGroupError):
        GroupAction(kind="free", dim=2)


_STATE, _SHORT = np.eye(4, dtype=complex)[0], np.eye(3, dtype=complex)[0]


@pytest.mark.parametrize("call, error", [
    pytest.param(lambda a, f: integer_action([]), UnsupportedGroupError,
                 id="integer_action of no generator"),
    pytest.param(lambda a, f: folner_set(a, [(1,)], 0.0), ParameterError, id="folner eps 0"),
    pytest.param(lambda a, f: folner_set(a, [(1,)], -1.0), ParameterError, id="folner eps -1"),
    pytest.param(lambda a, f: folner_set(a, [(1,)], float("nan")), ParameterError,
                 id="folner eps nan"),
    pytest.param(lambda a, f: group_state_transport(a, _SHORT, _STATE, [(1,)], 0.1),
                 DimensionError, id="transport of a short xi"),
    pytest.param(lambda a, f: group_state_transport(a, _STATE, _SHORT, [(1,)], 0.1),
                 DimensionError, id="transport to a short eta"),
    pytest.param(lambda a, f: average_conjugates(np.eye(3) / 2, f, a), DimensionError,
                 id="average of a 3 x 3 h"),
    pytest.param(lambda a, f: average_conjugates(np.eye(4, 3) / 2, f, a), DimensionError,
                 id="average of a 4 x 3 h"),
])
def test_group_entry_points_raise_typed_errors(call, error):
    # Each raised IndexError, ZeroDivisionError or numpy's ValueError before
    # the boundary checks; each typed error is a StateTransportError.
    action = integer_action([np.diag(np.exp(2j * np.pi * np.arange(4) / 4))])
    with pytest.raises(error) as info:
        call(action, folner_set(action, [(1,)], 0.5))
    assert isinstance(info.value, StateTransportError)


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
    res = group_state_transport(action, xi, eta, [(1,), (-1,)], 0.1)
    assert res.legs == 1
    assert res.terminal_error <= res.terminal_bound
    assert res.commutator_sup < res.commutator_bound
    assert res.path.length <= np.pi + 1e-10
    assert res.extras["flip_error"] <= res.extras["flip_bound"]


def _three_copy_detour(rng, d):
    """Z acting identically on three orthogonal copies of C^d; source and
    target share the first copy's orbit, so their orbits overlap."""
    u0 = random_unitary(rng, d)
    z = np.zeros((d, d))
    gen = np.block([[u0, z, z], [z, u0, z], [z, z, u0]])
    x = random_state(rng, d)
    xi = np.concatenate([x, np.zeros(2 * d)])
    eta = np.concatenate([np.exp(0.4j) * x, np.zeros(2 * d)])
    return integer_action([gen]), xi, eta


def test_group_state_transport_detour_with_hint(rng):
    action, xi, eta = _three_copy_detour(rng, 48)
    res = group_state_transport(action, xi, eta, [(1,), (-1,)], 0.1)
    assert res.legs == 2
    assert res.terminal_error <= res.terminal_bound + 1e-8


@pytest.mark.parametrize("d", [16, 24, 32, 40, 48])
def test_detour_without_hint_at_every_copy_dimension(rng, d):
    # |F| = 41, so the orbit families are rank deficient for d <= 40
    action, xi, eta = _three_copy_detour(rng, d)
    res = group_state_transport(action, xi, eta, [(1,), (-1,)], 0.1)
    assert res.legs == 2
    assert res.terminal_error <= res.terminal_bound
    assert max(res.extras["leg_errors"]) < 1e-12
    assert res.commutator_sup < res.commutator_bound
    assert res.path.length <= 2 * np.pi + 1e-10


@settings(max_examples=15, deadline=None)
@given(detour=st.booleans(), d=st.integers(4, 24), eps=st.sampled_from([0.1, 0.2, 0.3]),
       seed=st.integers(0, 2**32 - 1))
def test_commutator_sup_is_a_certified_bound(detour, d, eps, seed):
    # one leg, or the two-leg detour (which needs copies of dimension >= 16)
    rng = np.random.default_rng(seed)
    action, xi, eta = _three_copy_detour(rng, max(d, 16)) if detour else \
        group_instance(rng, d)
    res = group_state_transport(action, xi, eta, [(1,), (-1,)], eps)
    assert res.legs == (2 if detour else 1)
    reps = [action.rep(g) for g in [(1,), (-1,)]]
    dense = max(op_norm(u @ x - x @ u)
                for u in res.path.at_times(res.path.sample_times(257)) for x in reps)
    assert dense <= res.commutator_sup < res.commutator_bound


def test_finite_group_overlap_is_unsupported():
    u = np.diag(np.exp(2j * np.pi * np.arange(4) / 4))
    action = finite_cyclic_action(4, u)
    xi = np.full(4, 0.5, dtype=complex)
    with pytest.raises(UnsupportedGroupError):
        group_state_transport(action, xi, np.exp(0.3j) * xi, [1], 0.5)


def _clustered_action(rng, mults, rank, spread):
    """Z^rank action whose joint eigenangle tuples form one cluster of the
    given multiplicity per entry of ``mults``, members at most ``spread``
    apart, cluster centres well separated.  Returns the action, its
    generators, their eigenbasis and the cluster label of every column."""
    k = len(mults)
    centres = 2 * np.pi * (np.arange(k) / k + rng.uniform(0, 0.5 / k, (rank, k)))
    labels = np.repeat(np.arange(k), mults)
    angles = centres[:, labels] + rng.uniform(0, spread, (rank, labels.size))
    q = random_unitary(rng, labels.size)
    gens = [(q * np.exp(1j * a)) @ dagger(q) for a in angles]
    return integer_action(gens), gens, q, labels


def _correlations_oracle(gens, elements, v):
    """<u^g v, v> for every g, with u^g from matrix powers."""
    return np.array([np.vdot(v, _rep_oracle(gens, g) @ v) for g in elements])


@settings(max_examples=30, deadline=None)
@given(mults=st.lists(st.integers(1, 4), min_size=1, max_size=4),
       rank=st.sampled_from([1, 2]), spread=st.sampled_from([0.0, 1e-13, 1e-12]),
       phase_target=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_closed_form_detour_multiplicity_condition(mults, rank, spread, phase_target,
                                                   seed):
    rng = np.random.default_rng(seed)
    action, gens, q, labels = _clustered_action(rng, mults, rank, spread)
    a = random_state(rng, labels.size)
    if phase_target:
        b = np.exp(1j * rng.uniform(0, 2 * np.pi)) * a
    else:
        # independent directions with the source's mass in every cluster
        b = random_state(rng, labels.size)
        for lam in range(len(mults)):
            on = labels == lam
            b[on] *= np.linalg.norm(a[on]) / np.linalg.norm(b[on])
    xi, eta = q @ a, q @ b
    shifts = [tuple(int(i == k) for i in range(rank)) for k in range(rank)]
    eps = 0.1 if rank == 1 else 0.9
    folner = folner_set(action, shifts, eps / 2)
    delta = (eps / (2 * EXP_SERIES_CONSTANT)) ** 2 / len(folner.elements)
    needed = 2 if phase_target else 3
    if min(mults) < needed:
        with pytest.raises(DetourFailureError, match="multiplicity"):
            _find_detour(action, _difference_set(action, folner), xi, eta, delta)
        with pytest.raises(DetourFailureError):
            group_state_transport(action, xi, eta, shifts, eps)
        return
    mid = _find_detour(action, _difference_set(action, folner), xi, eta, delta)
    diffs = sorted({tuple(h - g for g, h in zip(g1, g2))
                    for g1 in folner.elements for g2 in folner.elements})
    # The closed form is exact for clusters of one angle each; inside a
    # cluster of spread s, u^g is within reach * s of one scalar.
    reach = max(sum(abs(k) for k in g) for g in diffs)
    tol = 1e-12 + 2 * reach * spread
    assert np.max(np.abs(_correlations_oracle(gens, diffs, mid)
                         - _correlations_oracle(gens, diffs, xi))) < tol
    for v in (xi, eta):
        cross = [np.vdot(v, _rep_oracle(gens, g) @ mid) for g in diffs]
        assert np.max(np.abs(cross)) < tol
    res = group_state_transport(action, xi, eta, shifts, eps)
    assert res.terminal_error <= res.terminal_bound


@pytest.mark.parametrize("rank, eps", [(1, 0.5), (1, 0.1), (2, 0.9), (2, 0.4)])
def test_difference_set_matches_pairwise_oracle(rng, rank, eps):
    action, _, _, _ = _clustered_action(rng, [1, 2], rank, 0.0)
    shifts = [tuple(int(i == k) for i in range(rank)) for k in range(rank)]
    folner = folner_set(action, shifts, eps)
    pairwise = sorted({tuple(b - a for a, b in zip(g, h))
                       for g in folner.elements for h in folner.elements})
    diffs = _difference_set(action, folner)
    assert diffs.elements == pairwise
    assert np.array_equal(diffs.phases, action.phases(pairwise))


def test_detour_on_a_large_z2_box():
    # Z^2 acting identically on three copies of C^8; the Folner box has side
    # 81 (|F| = 6561) and its difference set 161^2 elements.
    rng = np.random.default_rng(5)
    q = random_unitary(rng, 8)
    gens = [np.kron(np.eye(3), (q * np.exp(1j * rng.uniform(-np.pi, np.pi, 8))) @ dagger(q))
            for _ in range(2)]
    action = integer_action(gens)
    xi = np.concatenate([random_state(rng, 8), np.zeros(16)])
    eta = np.exp(0.4j) * xi
    folner = folner_set(action, [(1, 0), (0, 1)], 0.05)
    assert len(folner.elements) == 6561
    delta = (0.1 / (2 * EXP_SERIES_CONSTANT)) ** 2 / len(folner.elements)
    start = time.perf_counter()
    mid = _find_detour(action, _difference_set(action, folner), xi, eta, delta)
    assert time.perf_counter() - start < 5.0
    diffs = _difference_set(action, folner).elements
    assert len(diffs) == 161**2
    residual = np.max(np.abs(_orbit(action, diffs, mid) @ mid.conj()
                             - _orbit(action, diffs, xi) @ xi.conj()))
    assert residual < delta


def _flip_oracle(xs, zs):
    """Projection onto the span of the differences x_g - z_g, rank by
    singular values above 1e-10 of the largest."""
    u, s, _ = np.linalg.svd((xs - zs).T, full_matrices=False)
    basis = u[:, :int(np.sum(s > 1e-10 * s[0]))]
    return basis @ dagger(basis)


@pytest.mark.parametrize("d", [16, 24, 32, 40])
def test_flip_on_rank_deficient_orbits(rng, d):
    # two copies of C^d, |F| = 41 >= d: the orbit families are rank deficient
    u0 = random_unitary(rng, d)
    z = np.zeros((d, d))
    action = integer_action([np.block([[u0, z], [z, u0]])])
    folner = folner_set(action, [(1,), (-1,)], 0.05)
    x = random_state(rng, d)
    xi = np.concatenate([x, np.zeros(d)])
    # a unitary of the second copy commuting with u0 keeps every correlation
    _, vecs = np.linalg.eigh((u0 + dagger(u0)) / 2)
    m = (vecs * np.exp(1j * rng.uniform(0, 2 * np.pi, d))) @ dagger(vecs)
    eta = np.concatenate([np.zeros(d), m @ x])
    orbit_xi = _orbit(action, folner.elements, xi)
    orbit_eta = _orbit(action, folner.elements, eta)
    assert np.linalg.matrix_rank(orbit_xi) == d < len(folner.elements)
    b, v, _ = _graph_factors(orbit_xi, orbit_eta)
    zetas = orbit_xi @ (v @ dagger(b)).T
    assert np.max(np.abs(zetas @ dagger(zetas) - orbit_xi @ dagger(orbit_xi))) < 1e-12
    for eta_rows in (zetas, orbit_eta):
        e = flip_projection(VectorFamily(2 * d, orbit_xi), VectorFamily(2 * d, eta_rows))
        assert op_norm(e @ e - e) < 1e-12
        assert np.max(np.linalg.norm((orbit_xi + eta_rows) @ e.T, axis=1)) < 1e-12
        assert op_norm(e - _flip_oracle(orbit_xi, eta_rows)) < 1e-10


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


def _adversarial_family(kind, rng, dim, d):
    """d commuting unitaries of size dim whose spectra defeat a naive
    joint eigenbasis: conjugate pairs, high multiplicity, clusters within
    1e-9 (also about -1), pairs the tilt of ``_joint_eigenbasis`` cannot
    tell apart (one generator), permutations, or one unitary with its
    powers."""
    v = random_unitary(rng, dim)
    if kind == "real_orthogonal":
        o, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        gens = []
        for _ in range(d):
            r = np.diag(rng.choice([-1.0, 1.0], dim))
            for j in range(0, dim - 1, 2):
                c = rng.uniform(0, 2 * np.pi)
                r[j:j + 2, j:j + 2] = [[np.cos(c), -np.sin(c)], [np.sin(c), np.cos(c)]]
            gens.append(o @ r @ o.T)
        return gens
    if kind == "roots_of_unity":
        n = int(rng.integers(2, 7))
        return [(v * np.exp(2j * np.pi * rng.integers(0, n, dim) / n)) @ dagger(v)
                for _ in range(d)]
    if kind in ("clusters", "clusters_at_minus_one"):
        gens = []
        for _ in range(d):
            centres = (np.full(2, np.pi) if kind == "clusters_at_minus_one"
                       else rng.uniform(0, 2 * np.pi, 3))
            a = centres[rng.integers(0, centres.size, dim)] + rng.uniform(-1e-9, 1e-9, dim)
            gens.append((v * np.exp(1j * a)) @ dagger(v))
        return gens
    if kind == "tilt_mirrors":
        # Pairs lambda, conj(rho)^2 conj(lambda): one eigenvalue of the
        # Hermitian part of rho u, so eigh alone may mix them.
        half = rng.uniform(0, 2 * np.pi, (dim + 1) // 2)
        lam = np.concatenate([np.exp(1j * half), np.conj(_TILT) ** 2 * np.exp(-1j * half)])
        return [(v * lam[:dim]) @ dagger(v)]
    if kind == "permutations":
        p = np.eye(dim)[rng.permutation(dim)]
        return [np.linalg.matrix_power(p, int(rng.integers(1, 6))) for _ in range(d)]
    return [v, v @ v, dagger(v)][:d]


@settings(max_examples=100, deadline=None)
@given(kind=st.sampled_from(["real_orthogonal", "roots_of_unity", "clusters",
                             "clusters_at_minus_one", "tilt_mirrors", "permutations",
                             "powers"]),
       dim=st.integers(1, 128), d=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_joint_eigenbasis_on_adversarial_commuting_families(kind, dim, d, seed):
    gens = _adversarial_family(kind, np.random.default_rng(seed), dim, d)
    q, angles = _joint_eigenbasis(gens)
    assert np.linalg.norm(dagger(q) @ q - np.eye(dim), 2) <= 1e-12
    for u, a in zip(gens, angles):
        assert np.linalg.norm(dagger(q) @ u @ q - np.diag(np.exp(1j * a)), 2) <= UNITARY_TOL


def _defective_cluster(rng, dim):
    """A unitary to within 1e-10 with a double eigenvalue whose block holds a
    nilpotent part of 3e-11 to 4e-11, above the coupling tolerance of every
    dim: no unitary diagonalises that block, so T keeps it."""
    d = np.exp(1j * rng.uniform(0, 2 * np.pi, dim))
    d[1] = d[0]
    t = np.diag(d)
    t[0, 1] = rng.uniform(3e-11, 4e-11) * d[0]
    v = random_unitary(rng, dim)
    return v @ t @ dagger(v)


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(["real_orthogonal", "roots_of_unity", "clusters",
                             "clusters_at_minus_one", "tilt_mirrors", "permutations",
                             "powers", "defective_cluster"]),
       dim=st.integers(1, 64), seed=st.integers(0, 2**32 - 1))
def test_normal_eigenbasis_diagonalises_adversarial_unitaries(kind, dim, seed):
    # One unitary of each adversarial family ("powers" is then a random
    # unitary), at the tolerance of _unitary_eig: Q is unitary and leaves T
    # off-diagonal by at most UNITARY_TOL / 4 for a normal input, and by at
    # most UNITARY_TOL for the defective cluster, which is normal only within
    # the tolerance.  The pairs mirrored about the tilt make a coupled run,
    # which the skew stage tells apart.
    rng = np.random.default_rng(seed)
    if kind == "defective_cluster":
        assume(dim >= 2)
        us = [check_unitary(_defective_cluster(rng, dim))]
    else:
        us = _adversarial_family(kind, rng, dim, 1)
    runs = []

    def recorded(t, tol, coupled_runs=linalg._coupled_runs):
        runs.append(coupled_runs(t, tol))
        return runs[-1]

    with mock.patch.object(linalg, "_coupled_runs", recorded):
        q, ts = _normal_eigenbasis(us, UNITARY_TOL / (4 * dim))
    bound = UNITARY_TOL if kind == "defective_cluster" else UNITARY_TOL / 4
    assert np.linalg.norm(dagger(q) @ q - np.eye(dim), 2) <= 1e-12
    for u, t in zip(us, ts):
        assert np.linalg.norm(t - dagger(q) @ u @ q) <= 1e-12
        assert np.linalg.norm(t - np.diag(np.diag(t))) <= bound
    if kind == "tilt_mirrors" and dim >= 2:
        assert runs[0]


def _cyclic_two_copies(rng, d=4):
    """Z/4 acting through diag(1, i, -1, -i, ...) on two orthogonal copies of
    C^d; the target is a commuting phase image of the source in the second
    copy, so the orbits are orthogonal with equal correlations."""
    u = np.diag(np.exp(2j * np.pi * np.arange(d) / 4))
    z = np.zeros((d, d))
    action = finite_cyclic_action(4, np.block([[u, z], [z, u]]))
    x = random_state(rng, d)
    xi = np.concatenate([x, np.zeros(d)])
    eta = np.concatenate([np.zeros(d), np.exp(1j * rng.uniform(0, 2 * np.pi, d)) * x])
    return action, xi, eta


def test_finite_group_transport_orthogonal_orbits(rng):
    action, xi, eta = _cyclic_two_copies(rng)
    assert action.rep_defect < 1e-14
    res = group_state_transport(action, xi, eta, [1], 0.5)
    assert res.legs == 1
    assert res.terminal_error < 1e-12
    assert res.terminal_error <= res.terminal_bound
    assert res.commutator_sup < res.commutator_bound
    assert res.extras["flip_error"] <= res.extras["flip_bound"]
    reps = [action.rep(g) for g in range(4)]
    dense = max(op_norm(u @ x - x @ u)
                for u in res.path.at_times(res.path.sample_times(33)) for x in reps)
    assert dense <= 1e-12


_Z2_TABLE = [[0, 1], [1, 0]]


@pytest.mark.parametrize("table, reps, dim, error, match", [
    ([[0, 1]], [[[1.0]], [[-1.0]]], 1, DimensionError, "not square"),
    ([[0, 1], [1, 2]], [[[1.0]], [[-1.0]]], 1, UnsupportedGroupError, "lie in"),
    ([[1, 0], [0, 1]], [[[1.0]], [[-1.0]]], 1, UnsupportedGroupError, "identity"),
    ([[0, 1, 2], [1, 1, 0], [2, 0, 2]], [[[1.0]]] * 3, 1, UnsupportedGroupError,
     "Latin square"),
    (_Z2_TABLE, [np.eye(2), -np.eye(2)], 1, DimensionError, "reps of shape"),
    (_Z2_TABLE, [[[1.0]], [[3.0]]], 1, NotUnitaryError, "unitar"),
    (_Z2_TABLE, [[[1.0]], [[1j]]], 1, UnsupportedGroupError, "not multiplicative"),
])
def test_finite_action_rejects_forged_input(table, reps, dim, error, match):
    with pytest.raises(error, match=match):
        GroupAction(kind="finite", dim=dim, table=table, reps=reps)


def test_finite_cyclic_action_rejects_wrong_order():
    # diag(e^{2 pi i k / 5}) has order 5, not 3: u^3 - 1 has operator norm
    # 1.90 and Frobenius norm sqrt(1.90^2 + 1.18^2) = 2.24, the defect bound
    with pytest.raises(UnsupportedGroupError, match="2.236"):
        finite_cyclic_action(3, np.diag(np.exp(2j * np.pi * np.arange(3) / 5)))


def _finite_action(kind, rng, dim):
    """Z/n through a random unitary of order n on C^dim, or S_3 through its
    permutation matrices on C^3 in a random basis."""
    if kind == "cyclic":
        n = int(rng.integers(2, 7))
        return finite_cyclic_action(n, _unitary_with_angles(
            rng, 2 * np.pi * rng.integers(0, n, dim) / n))
    perms = list(itertools.permutations(range(3)))
    table = [[perms.index(tuple(a[i] for i in b)) for b in perms] for a in perms]
    q = random_unitary(rng, 3)
    reps = [q @ np.eye(3)[:, list(p)] @ dagger(q) for p in perms]
    return GroupAction(kind="finite", dim=3, table=table, reps=reps)


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["cyclic", "s3", "generic", "doubled", "clustered",
                             "z2_degenerate"]),
       seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 6), eps=st.floats(0.3, 0.9))
@example(kind="clustered", seed=67040, dim=2, eps=0.375)
@example(kind="clustered", seed=2465724670, dim=6, eps=0.3056584616379236)
def test_difference_set_correlations_match_dense_gram(kind, seed, dim, eps):
    # The gates' gap and cross read c_k = <u_k x, y> on F^{-1} F; the oracle
    # takes the max over the dense |F| x |F| Gram and cross matrices.  The
    # examples hold pairs 1e-9 apart that one eigh stage mixes: the tilted
    # Hermitian part in the first (an entry of 2.6e-14 left in T, the gap
    # 1.2e-13 off), the skew part of a run in the second, where the run
    # must keep its first basis (6e-13 left otherwise).
    rng = np.random.default_rng(seed)
    if kind in ("cyclic", "s3"):
        action = _finite_action(kind, rng, dim)
        folner = folner_set(action, [1], eps)
        reps = [action.reps[g] for g in folner.elements]
    else:
        gens = _generators(kind, rng, dim)
        action = integer_action(gens)
        shifts = [tuple(int(i == k) for i in range(len(gens))) for k in range(len(gens))]
        folner = folner_set(action, shifts, eps)
        reps = [_rep_oracle(gens, g) for g in folner.elements]
    x, y = random_state(rng, action.dim), random_state(rng, action.dim)
    ox = np.array([u @ x for u in reps])
    oy = np.array([u @ y for u in reps])
    dense_gap = np.max(np.abs(ox @ dagger(ox) - oy @ dagger(oy)))
    dense_cross = np.max(np.abs(ox @ dagger(oy)))
    diffs = _difference_set(action, folner)
    gap = np.max(np.abs(_correlations(action, diffs, x, x)
                        - _correlations(action, diffs, y, y)))
    cross = np.max(np.abs(_correlations(action, diffs, x, y)))
    assert abs(gap - dense_gap) < 1e-13
    assert abs(cross - dense_cross) < 1e-13


def test_single_leg_z2_transport_at_the_paper_scale():
    # Z^2 acting identically on two copies of C^8 at eps 0.1: the Folner box
    # has side 81 (|F| = 6561), its difference set 161^2 elements.
    rng = np.random.default_rng(3)
    q = random_unitary(rng, 8)
    gens = [np.kron(np.eye(2), (q * np.exp(1j * rng.uniform(-np.pi, np.pi, 8))) @ dagger(q))
            for _ in range(2)]
    action = integer_action(gens)
    x = random_state(rng, 8)
    m = (q * np.exp(1j * rng.uniform(0, 2 * np.pi, 8))) @ dagger(q)
    xi = np.concatenate([x, np.zeros(8)])
    eta = np.concatenate([np.zeros(8), m @ x])
    tracemalloc.start()
    try:
        start = time.perf_counter()
        res = group_state_transport(action, xi, eta, [(1, 0), (0, 1)], 0.1)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(res.folner.elements) == 6561
    assert elapsed < 2.0
    assert peak < 200e6
    assert res.legs == 1
    assert res.extras["correlation_gap"] < res.extras["delta"]
    assert res.extras["flip_error"] <= res.extras["flip_bound"]
    assert res.terminal_error <= res.terminal_bound
    assert res.commutator_sup < res.commutator_bound


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 8), half=st.integers(2, 8), rank=st.integers(1, 8),
       log_residual=st.floats(-13, -7),
       overlap=st.sampled_from([0.0, 1e-12, 1e-10, 1e-8, 1e-6, 1e-3]),
       seed=st.integers(0, 2**32 - 1))
def test_flip_projection_is_never_looser_than_the_dense_checks(n, half, rank, log_residual,
                                                              overlap, seed):
    # z_g = W x_g + r_g, W an isometry onto directions orthogonal to the
    # x_g, plus a multiple of x_g for overlapping spans.  Whenever the row
    # residual check accepts, the dense Gram, cross and killed-sum checks
    # it replaces pass.
    rng = np.random.default_rng(seed)
    rank = min(rank, n, half)
    dim = 2 * half
    basis = random_unitary(rng, dim)
    coeffs = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
    xs = coeffs @ basis[:, :rank].T
    xs /= np.linalg.norm(xs, axis=1, keepdims=True)
    w = basis[:, half:half + rank] @ random_unitary(rng, rank) @ dagger(basis[:, :rank])
    r = rng.standard_normal((n, dim)) + 1j * rng.standard_normal((n, dim))
    r *= 10**log_residual / np.linalg.norm(r, axis=1, keepdims=True)
    zs = xs @ w.T + r + overlap * xs
    try:
        e = flip_projection(VectorFamily(dim, xs), VectorFamily(dim, zs))
    except FlipInconsistencyError:
        assert log_residual > -12 or overlap > 0
        return
    assert np.max(np.abs(xs @ dagger(xs) - zs @ dagger(zs))) <= FLIP_TOL
    assert np.max(np.abs(xs @ dagger(zs))) <= OVERLAP_TOL
    assert np.max(np.linalg.norm((xs + zs) @ e.T, axis=1)) <= OVERLAP_TOL
