import numpy as np
import pytest
import scipy.linalg

from state_transport.algebra import KronUnits, direct_sum_algebra, full_matrix_units
from state_transport.errors import (
    CertificateError,
    DisjointnessError,
    HypothesisError,
    StateTransportError,
)
from state_transport.gram import alignment_bound
from state_transport.linalg import dagger, inner, op_norm
from state_transport.path import UnitaryPath
from state_transport.suites import (
    commutant_instance,
    random_state,
    random_unitary,
)
from state_transport.transport import (
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
    phi = geodesic_lower_bound(p, xi, eta, samples=16)
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
        geodesic_lower_bound(forged, xi, eta, samples=16)
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


@pytest.mark.parametrize("n, r", [(2, 4), (4, 2), (3, 3)])
def test_commutant_generator_identical_for_kron_units(rng, n, r):
    mu, xi, eta = commutant_instance(rng, n, r, 0.1, stats_noise=1e-9)
    kron = KronUnits(n=n, multiplicity=r, ambient_dim=n * r)
    dense_res = commutant_transport(mu, xi, eta, 0.1)
    kron_res = commutant_transport(kron, xi, eta, 0.1)
    # Bit for bit, signed zeros included.
    assert (kron_res.path.segments[0].generator.tobytes()
            == dense_res.path.segments[0].generator.tobytes())
    assert kron_res.terminal_error == dense_res.terminal_error


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


def test_commutant_transport_rejects_large_gap(rng):
    mu = full_matrix_units(2, 2)
    xi = np.array([1.0, 0, 0, 0], dtype=complex)
    eta = np.array([0, 0, 1.0, 0], dtype=complex)  # different block stats
    with pytest.raises(HypothesisError):
        commutant_transport(mu, xi, eta, 0.01)


def test_excise_product_state(rng):
    alg = direct_sum_algebra([3], [2])
    v = random_state(rng, 3)
    u = random_state(rng, 2)
    xi = np.kron(v, u)
    e = excise(xi, alg)
    assert op_norm(e @ e - e) < 1e-10
    assert np.linalg.norm(e @ xi - xi) < 1e-10
    assert excision_error(e, xi, alg.spanning_elements()) < 1e-10


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
                          alg.spanning_elements(), 0.1)
    assert max(res.terminal_errors) < 1e-10
    assert res.commutator_sup < 1e-9


def test_multi_transport_rejects_shared_block(rng):
    alg = direct_sum_algebra([2], [2])
    xi = random_state(rng, 4)
    eta = np.kron(np.eye(2), random_unitary(rng, 2)) @ xi
    with pytest.raises(DisjointnessError):
        multi_transport(alg, [(xi, eta), (xi, eta)], [], 0.1)
