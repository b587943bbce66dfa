import numpy as np
import pytest

from state_transport.algebra import conjugated_units, full_matrix_units
from state_transport.circle import (
    SpectralModel,
    _compress_units,
    arc_transport,
    circle_partition,
    evaluate_window,
    window_function,
)
from state_transport.errors import DegenerateWindowError
from state_transport.linalg import dagger, op_norm
from state_transport.suites import circle_instance, random_state, random_unitary


def test_spectral_model_reconstruction(rng):
    angles = np.array([0.1, 0.35, 0.8])
    z = np.diag(np.exp(2j * np.pi * np.repeat(angles, 2)))
    model = SpectralModel.from_unitary(z)
    assert model.eigenangles.size == 3
    assert model.reconstruction_defect() < 1e-10
    xi = random_state(rng, 6)
    assert sum(model.point_masses(xi)) == pytest.approx(1.0)


def test_arc_mass_half_open():
    z = np.diag(np.exp(2j * np.pi * np.array([0.25, 0.75])))
    model = SpectralModel.from_unitary(z)
    xi = np.array([1.0, 0.0], dtype=complex)
    assert model.arc_mass(xi, 0.0, 0.25) == pytest.approx(1.0)
    assert model.arc_mass(xi, 0.25, 0.5) == pytest.approx(0.0)
    # wraparound arc
    assert model.arc_mass(xi, 0.8, 0.3) == pytest.approx(1.0)


def test_circle_partition_invariants(rng):
    eps, eps_prime = 0.3, 0.05
    angles = np.arange(8) / 8.0
    z = np.diag(np.exp(2j * np.pi * angles))
    model = SpectralModel.from_unitary(z)
    xi = random_state(rng, 8)
    part = circle_partition(model, xi, xi, eps, eps_prime)
    gaps = part.gaps()
    assert np.all(gaps > eps / 2) and np.all(gaps < 1.5 * eps)
    assert part.gamma == pytest.approx(eps * eps_prime / 4)
    for t in part.points:
        a = (t - part.gamma / 2) % 1.0
        b = (t + part.gamma / 2) % 1.0
        assert model.arc_mass(xi, a, b) < eps_prime
    # arcs tile the circle
    total = sum(model.arc_mass(xi, a, b) for a, b in part.arcs())
    assert total == pytest.approx(1.0)


def test_circle_partition_single_arc_for_large_eps(rng):
    z = np.diag(np.exp(2j * np.pi * np.array([0.2, 0.6])))
    model = SpectralModel.from_unitary(z)
    xi = random_state(rng, 2)
    part = circle_partition(model, xi, xi, 0.8, 0.1)
    assert part.size == 1


def test_window_function_shape():
    w = window_function((0.0, 0.25), 1 / 16)
    assert w(0.125) == pytest.approx(1.0)
    assert w(0.5) == 0.0
    assert w(1 / 64) == pytest.approx(0.5)  # halfway up the ramp
    with pytest.raises(DegenerateWindowError):
        window_function((0.0, 0.01), 0.05)


def test_window_spectral_calculus(rng):
    angles = np.arange(8) / 8.0
    z = np.diag(np.exp(2j * np.pi * angles))
    model = SpectralModel.from_unitary(z)
    w = window_function((0.05, 0.55), 0.02)
    op = evaluate_window(model, w)
    assert op_norm(op) <= 1.0 + 1e-12
    # plateau angles get weight 1, outside angles weight 0
    xi = np.zeros(8, dtype=complex)
    xi[2] = 1.0  # angle 0.25, inside the plateau
    assert np.vdot(xi, op @ xi).real == pytest.approx(1.0)
    xi2 = np.zeros(8, dtype=complex)
    xi2[6] = 1.0  # angle 0.75, outside the arc
    assert np.vdot(xi2, op @ xi2).real == pytest.approx(0.0)


def test_arc_transport_bounds(rng):
    block, model, xi, eta = circle_instance(rng, 2, 32)
    eps = 0.09
    res = arc_transport(block, model, xi, eta, [], eps, t_samples=8)
    assert res.terminal_error < res.terminal_bound
    assert res.z_commutator_sup < res.z_commutator_bound
    # path commutes with the block throughout
    worst = 0.0
    for t in res.path.sample_times(8):
        u = res.path.at(t)
        for i in range(block.n):
            for j in range(block.n):
                e = block.unit(i, j)
                worst = max(worst, op_norm(u @ e - e @ u))
    assert worst < 1e-9


def test_arc_transport_identity_for_equal_states(rng):
    block, model, xi, _ = circle_instance(rng, 1, 60)
    res = arc_transport(block, model, xi, xi, [], 0.1, t_samples=4)
    assert res.terminal_error < 1e-10


@pytest.mark.parametrize("n, r, keep", [(2, 3, 3), (2, 3, 1), (3, 2, 1), (2, 4, 2)])
def test_compress_units_on_reducing_subspace(rng, n, r, keep):
    # Units u (E_ij (x) 1_r) u^* on the window 1..n r of an ambient space two
    # wider; the subspace V (1_n (x) B) + span{u e_0} reduces every e_ij,
    # and its corner has rank keep <= r.
    ambient = n * r + 2
    u = random_unitary(rng, ambient)
    block = conjugated_units(full_matrix_units(n, r, ambient, offset=1), u)
    b = random_unitary(rng, r)[:, :keep]
    inside = (block.isometry.reshape(ambient, n, r) @ b).reshape(ambient, -1)
    basis = np.hstack([inside, u[:, :1]])
    basis = basis @ random_unitary(rng, basis.shape[1])  # off the natural axes
    sub = _compress_units(block, basis)
    assert sub.n == n
    assert sub.multiplicity == keep
    assert sub.ambient_dim == n * keep + 1
    assert sub.relation_defect() < 1e-12
    for i in range(n):
        for j in range(n):
            dense = dagger(basis) @ block.unit(i, j) @ basis
            assert op_norm(sub.unit(i, j) - dense) < 1e-12
