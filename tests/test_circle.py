import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import state_transport.circle as circle_module
from state_transport.algebra import MatrixUnits, conjugated_units, full_matrix_units
from state_transport.circle import (
    ANGLE_CLUSTER_TOL,
    SpectralModel,
    _compress,
    _gates,
    _in_arc,
    _window_masses,
    _z_commutator_bound,
    arc_transport,
    circle_partition,
    evaluate_window,
    window_function,
)
from state_transport.errors import (
    ArcOutsideBlockError,
    DegenerateWindowError,
    HypothesisError,
    InfeasiblePartitionError,
    StateTransportError,
)
from state_transport.gram import NORMALIZED_FAMILY_TOL, VectorFamily, alignment_gate
from state_transport.linalg import _unitary_eig, check_unitary, dagger, op_norm
from state_transport.path import UnitaryPath, concat_paths, joined_segment
from state_transport.transport import _commutant_transport
from state_transport.suites import circle_instance, random_state, random_unitary


def test_spectral_model_reconstruction(rng):
    angles = np.array([0.1, 0.35, 0.8])
    z = np.diag(np.exp(2j * np.pi * np.repeat(angles, 2)))
    model = SpectralModel.from_unitary(z)
    assert model.eigenangles.size == 3
    assert model.reconstruction_defect() < 1e-10
    xi = random_state(rng, 6)
    assert sum(model.point_masses(xi)) == pytest.approx(1.0)


def _arc_mass(model, xi, a, b):
    return float(np.sum(model.point_masses(xi)[_in_arc(model.eigenangles, a, b)]))


def test_arc_mass_half_open():
    z = np.diag(np.exp(2j * np.pi * np.array([0.25, 0.75])))
    model = SpectralModel.from_unitary(z)
    xi = np.array([1.0, 0.0], dtype=complex)
    assert _arc_mass(model, xi, 0.0, 0.25) == pytest.approx(1.0)
    assert _arc_mass(model, xi, 0.25, 0.5) == pytest.approx(0.0)
    # wraparound arc
    assert _arc_mass(model, xi, 0.8, 0.3) == pytest.approx(1.0)


def _dense_oracle(z):
    """Cluster angles and dense (m, D, D) cluster projections of z, clustered
    angle by angle: a neighbour closer than the tolerance joins the current
    cluster, and a last cluster wrapping through 0 joins the first."""
    lam, q = _unitary_eig(check_unitary(z))
    angles = np.mod(np.angle(lam) / (2 * np.pi), 1.0)
    order = np.argsort(angles, kind="stable")
    angles = angles[order]
    q = q[:, order]
    groups = []
    for idx in range(angles.size):
        if groups and angles[idx] - angles[groups[-1][-1]] < ANGLE_CLUSTER_TOL:
            groups[-1].append(idx)
        else:
            groups.append([idx])
    if len(groups) > 1 and (1.0 - angles[groups[-1][0]]) + angles[0] < ANGLE_CLUSTER_TOL:
        groups[0] = groups.pop() + groups[0]
    reps = np.array([angles[g[-1]] if g[0] > g[-1] else angles[g[0]] for g in groups])
    return reps, np.array([q[:, g] @ dagger(q[:, g]) for g in groups])


@settings(max_examples=60, deadline=None)
@given(mults=st.lists(st.integers(1, 4), min_size=1, max_size=5),
       wrap=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_column_model_matches_dense_projections(mults, wrap, seed):
    # Clusters whose neighbouring angles lie up to 1.1 tolerances apart (so
    # some split), the first centred on angle 0 when ``wrap``, all
    # conjugated by a random unitary.
    rng = np.random.default_rng(seed)
    k = len(mults)
    centres = (np.arange(k) + rng.uniform(0.2, 0.8, k)) / k
    if wrap:
        centres[0] = 0.0
    angles = []
    for c, m in zip(centres, mults):
        steps = np.cumsum(np.append(0.0, rng.uniform(0.0, 1.1, m - 1))) * ANGLE_CLUSTER_TOL
        angles.extend(c + steps - steps.mean())
    u = random_unitary(rng, len(angles))
    z = (u * np.exp(2j * np.pi * np.array(angles))) @ dagger(u)
    model = SpectralModel.from_unitary(z)
    reps, projs = _dense_oracle(z)
    assert np.array_equal(model.eigenangles, reps)
    xi = random_state(rng, len(angles))
    masses = np.array([np.vdot(xi, p @ xi).real for p in projs])
    assert np.max(np.abs(model.point_masses(xi) - masses)) < 1e-12
    for a, b in [rng.uniform(0, 1, 2), (rng.uniform(0, 1), reps[rng.integers(reps.size)])]:
        mask = _in_arc_oracle(reps, a, b)
        assert abs(_arc_mass(model, xi, a, b) - np.sum(masses[mask])) < 1e-12
        v = model.arc_basis(a, b)
        assert op_norm(dagger(v) @ v - np.eye(v.shape[1])) < 1e-12
        assert op_norm(v @ dagger(v) - np.sum(projs[mask], axis=0)) < 1e-12
    a = rng.uniform(0, 1)
    w = window_function((a, a + rng.uniform(0.05, 0.95)), 0.01)
    dense = np.einsum("k,kab->ab", [w(t) for t in reps], projs)
    assert op_norm(evaluate_window(model, w) - dense) < 1e-12
    rebuilt = np.einsum("k,kab->ab", np.exp(2j * np.pi * reps), projs)
    assert abs(model.reconstruction_defect() - op_norm(z - rebuilt)) < 1e-12


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
        assert _arc_mass(model, xi, a, b) < eps_prime
    # arcs tile the circle
    total = sum(_arc_mass(model, xi, a, b) for a, b in part.arcs())
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
    res = arc_transport(block, model, xi, eta, [], eps)
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
    res = arc_transport(block, model, xi, xi, [], 0.1)
    assert res.terminal_error < 1e-10


def _partition_arcs(angles, eps, eps_prime):
    """The arcs ``arc_transport`` cuts for states with mass at every angle:
    each cut is the first grid point of its window with an empty margin,
    whatever the masses."""
    model = SpectralModel.from_unitary(np.diag(np.exp(2j * np.pi * angles)))
    flat = np.full(angles.size, angles.size**-0.5, dtype=complex)
    return circle_partition(model, flat, flat, eps, eps_prime).arcs()


def _adversarial_circle(rng, k, eps, atoms, ends, swap, phase):
    """A circle instance built to meet the z-commutator bound.

    ``atoms`` random eigenangles; with ``ends``, the last arc (eps to
    3 eps / 2 long) and every arc holding an angle get two more just inside
    their end points, so the arc's spread nears its length.  The target is
    (1_k (x) U) xi with U preserving every arc: phases within ``phase`` of
    pi and, with ``swap``, the arc's first and last angles exchanged and the
    source's arc mass all on the first, so that the arc path turns one end
    eigenvector into the other and meets the bound up to rounding.  All of
    it is conjugated by a random 1_k (x) W, which commutes with the block.
    """
    eps_prime = eps**5 / (4 * k**2)  # arc_transport's
    angles = rng.uniform(0.0, 1.0, atoms)
    if ends:
        gap = max(eps * eps_prime / 4, 2 * ANGLE_CLUSTER_TOL)
        arcs = _partition_arcs(angles, eps, eps_prime)
        inside = [arc for i, arc in enumerate(arcs)
                  if i == len(arcs) - 1 or _in_arc(angles, *arc).any()]
        angles = np.concatenate([angles] + [
            [a + rng.uniform(1, 3) * gap, b - rng.uniform(1, 3) * gap] for a, b in inside
        ]) % 1.0
    n = angles.size
    u = np.diag(np.exp(1j * (np.pi - phase * rng.uniform(0.0, 1.0, n))))
    weights = np.ones(n)
    for a, b in _partition_arcs(angles, eps, eps_prime):
        inside = np.flatnonzero(_in_arc(angles, a, b))
        if swap and inside.size > 1:
            first, last = inside[np.argsort((angles[inside] - a) % 1.0)[[0, -1]]]
            weights[inside] = 0.0
            weights[first] = 1.0
            u[:, [first, last]] = u[:, [last, first]]
    fibers = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
    fibers *= np.sqrt(weights / weights.sum())[:, None] / np.linalg.norm(
        fibers, axis=1, keepdims=True)
    xi = fibers.T.reshape(-1)  # coordinate i n + a: unit index i, angle a
    lift = np.kron(np.eye(k), random_unitary(rng, n))
    z = lift @ np.kron(np.eye(k), np.diag(np.exp(2j * np.pi * angles))) @ dagger(lift)
    eta = lift @ np.kron(np.eye(k), u) @ xi
    return full_matrix_units(k, n, k * n), SpectralModel.from_unitary(z), lift @ xi, eta


@settings(max_examples=40, deadline=None)
@given(k=st.sampled_from([1, 2]), eps=st.floats(0.08, 0.3), atoms=st.integers(3, 10),
       ends=st.booleans(), swap=st.booleans(), phase=st.floats(0.0, 1e-3),
       seed=st.integers(0, 2**32 - 1))
# last arcs of 1.498 and 1.475 eps, ended and swapped: the bound is met
@example(k=1, eps=0.18136699432836656, atoms=4, ends=True, swap=True,
         phase=0.0002627303891541327, seed=189)
@example(k=2, eps=0.22289038541224138, atoms=3, ends=True, swap=True,
         phase=0.00015579072194944066, seed=90)
def test_z_commutator_sup_is_a_certified_bound(k, eps, atoms, ends, swap, phase, seed):
    block, model, xi, eta = _adversarial_circle(np.random.default_rng(seed), k, eps,
                                                atoms, ends, swap, phase)
    res = arc_transport(block, model, xi, eta, [], eps)
    z = model.z
    dense = max(op_norm(u @ z - z @ u)
                for u in res.path.at_times(res.path.sample_times(257)))
    assert dense <= res.z_commutator_sup < res.z_commutator_bound


def _partial_block_circle(xi, eta):
    """z with the angle 0.1 on coordinates 0 and 1 and 0.6 on coordinate 2,
    and the block M_1 (x) 1_2 on coordinates 0 and 2: the arc about 0.1 is
    two-dimensional and compresses the block to its first coordinate."""
    z = np.diag(np.exp(2j * np.pi * np.array([0.1, 0.1, 0.6])))
    block = MatrixUnits(1, np.eye(3, dtype=complex)[:, [0, 2]])
    unit = [np.asarray(v, dtype=complex) / np.linalg.norm(v) for v in (xi, eta)]
    return block, SpectralModel.from_unitary(z), *unit


def _dense_z_commutator(res, model):
    return max(op_norm(u @ model.z - model.z @ u)
               for u in res.path.at_times(res.path.sample_times(257)))


@pytest.mark.parametrize("xi, eta", [
    pytest.param([0.6, 0.3, 0.74], [0.6j, 0.3 * np.exp(0.5j), -0.74], id="phase"),
    pytest.param([0.0, 0.6, 0.74], [0.1, 0.35**0.5 * np.exp(0.5j), -0.74],
                 id="zero corner"),
])
def test_arc_repairs_run_as_one_second_segment(xi, eta):
    # The arc about 0.1 holds a coordinate outside the block, where the two
    # states differ, so its transport appends a repair; the arc about 0.6
    # is one phase.  The arc path is the sum of the arcs' transports as one
    # segment from the identity, then the repair as a second.  With a zero
    # source corner (the target's has weight 1/36 < delta = 0.09) the
    # arc's transport takes no rotation and the repair does all.
    block, model, xi, eta = _partial_block_circle(xi, eta)
    res = arc_transport(block, model, xi, eta, [], 0.3)
    assert sum(not row.skipped for row in res.rows) == 2
    first_segment, repair = res.path.segments
    assert np.array_equal(first_segment.base, np.eye(3))
    assert repair.v.shape[1] == 2 and np.allclose(repair.v[2], 0.0)
    assert res.terminal_error < 1e-13
    assert _dense_z_commutator(res, model) <= res.z_commutator_sup < res.z_commutator_bound


@pytest.mark.parametrize("n, r, keep", [(2, 3, 3), (2, 3, 1), (3, 2, 1), (2, 4, 2)])
def test_compress_units_on_reducing_subspace(rng, n, r, keep):
    # Units u (E_ij (x) 1_r) u^* on the window 1..n r of an ambient space two
    # wider; the subspace V (1_n (x) B) + span{u e_0} reduces every e_ij,
    # and its corner has rank keep <= r.  It is compressed in a stack with
    # a wider arc of full rank r, so its rows are zero-padded.
    ambient = n * r + 2
    u = random_unitary(rng, ambient)
    block = conjugated_units(full_matrix_units(n, r, ambient, offset=1), u)
    b = random_unitary(rng, r)[:, :keep]
    inside = (block.isometry.reshape(ambient, n, r) @ b).reshape(ambient, -1)
    basis = np.hstack([inside, u[:, :1]])
    basis = basis @ random_unitary(rng, basis.shape[1])  # off the natural axes
    wide = u[:, 1:n * r + 2] @ random_unitary(rng, n * r + 1)
    m = wide.shape[1]
    stack = np.zeros((2, m, n, r), dtype=complex)
    for a, cols in enumerate((basis, wide)):
        stack[a, :cols.shape[1]] = (dagger(cols) @ block.isometry).reshape(-1, n, r)
    units, ranks = _compress(stack)
    assert ranks.tolist() == [keep, r]
    assert units.shape == (2, m, n, r)
    for a, cols in enumerate((basis, wide)):
        v = units[a, :cols.shape[1], :, :ranks[a]].reshape(cols.shape[1], -1)
        assert not units[a, cols.shape[1]:].any() and not units[a, :, :, ranks[a]:].any()
        assert op_norm(dagger(v) @ v - np.eye(v.shape[1])) < 1e-12
        sub = MatrixUnits(n, v)
        for i in range(n):
            for j in range(n):
                dense = dagger(cols) @ block.unit(i, j) @ cols
                assert op_norm(sub.unit(i, j) - dense) < 1e-12


def _gates_alone(fx, fy, ranks, deltas):
    """Each arc's gate alone, in arc order: the first error, or the gaps."""
    gaps = []
    for x, y, r in zip(fx, fy, ranks):
        if r == 0:
            return ArcOutsideBlockError, None
        try:
            gaps.append(alignment_gate(VectorFamily(r, x[:, :r]), VectorFamily(r, y[:, :r]),
                                       deltas[r]))
        except HypothesisError as exc:
            return HypothesisError, exc.measured_gap
    return None, max(gaps)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("ulps", range(-3, 4))
@pytest.mark.parametrize("at", ["weight", "gap"])
def test_gates_decide_each_arc_as_its_gate_alone(monkeypatch, seed, ulps, at):
    # Three arcs of three units, zero-padded to 24 columns.  Arc 0's family
    # weight, or arc 1's delta, sits within a few ulps of its threshold,
    # where the stacked weight or gap and alignment_gate's on the arc alone
    # can round apart: _gates must pass or raise as the gates alone do.
    rng = np.random.default_rng(seed)
    ranks = np.array([20, 17, 5])
    fx = rng.standard_normal((3, 3, 24)) + 1j * rng.standard_normal((3, 3, 24))
    fx *= np.arange(24) < ranks[:, None, None]
    fx /= 1.01 * np.linalg.norm(fx, axis=(1, 2), keepdims=True)
    fy = fx.copy()
    fy[1, :, :17] += 1e-3 * rng.standard_normal((3, 17))
    fy[1] /= 1.01 * np.linalg.norm(fy[1])
    gap = alignment_gate(VectorFamily(17, fx[1, :, :17]), VectorFamily(17, fy[1, :, :17]), 1.0)
    deltas = dict.fromkeys(ranks.tolist(), 1.0)
    if at == "weight":
        top = 1.0 + NORMALIZED_FAMILY_TOL
        fx[0] *= np.sqrt(top / VectorFamily(20, fx[0, :, :20]).total_weight())
        fx[0] *= 1.0 + ulps * 2**-53
    else:
        deltas[17] = gap + ulps * np.spacing(gap)
    monkeypatch.setattr(circle_module, "invert_alignment_bound", lambda n, r, tol: deltas[r])
    error, expected = _gates_alone(fx, fy, ranks, deltas)
    if error is None:
        assert _gates(fx, fy, ranks, np.arange(3), [(0.0, 0.3), (0.3, 0.6), (0.6, 1.0)],
                      0.1) == pytest.approx(expected, rel=1e-12)
    else:
        with pytest.raises(error) as info:
            _gates(fx, fy, ranks, np.arange(3), [(0.0, 0.3), (0.3, 0.6), (0.6, 1.0)], 0.1)
        assert info.value.measured_gap == expected


def _compress_units(block, basis):
    """The per-arc compression the stacked ``_compress`` replaced: the units
    basis^* e_ij basis from one eigh of the arc's m x m corner Gram."""
    m = basis.shape[1]
    w = (dagger(basis) @ block.isometry).reshape(m, block.n, -1)
    corner = w[:, 0, :]
    vals, vecs = np.linalg.eigh(corner @ dagger(corner))
    keep = vals > 0.5
    p = dagger(corner) @ (vecs[:, keep] / np.sqrt(vals[keep]))
    return MatrixUnits(block.n, (w @ p).reshape(m, -1))


def _arc_loop_oracle(block, model, xi, eta, eps):
    """``arc_transport`` as the loop over the arcs that the stacked arc stage
    replaced: each arc carrying mass is compressed alone and transported by
    ``_commutant_transport`` with the repair, and the lifted generators sum
    to one segment, the repairs to a second.  Returns the skip flags and
    masses, the path, the largest Gram gap and the transported arcs."""
    k = block.n
    partition = circle_partition(model, xi, eta, eps, eps**5 / (4 * k * k))
    rows, generators, repairs, transported, gap = [], ([], []), ([], []), [], 0.0
    for idx, (a, b) in enumerate(partition.arcs()):
        basis = model.arc_basis(a, b)
        src, dst = dagger(basis) @ xi, dagger(basis) @ eta
        m_xi, m_eta = np.vdot(src, src).real, np.vdot(dst, dst).real
        skipped = min(m_xi, m_eta) <= eps**1.5
        rows.append((skipped, m_xi, m_eta))
        if skipped:
            continue
        sub = _compress_units(block, basis)
        if sub.multiplicity == 0:
            raise ArcOutsideBlockError("arc outside the block", arc_index=idx)
        res = _commutant_transport(sub, src / np.sqrt(m_xi), dst / np.sqrt(m_eta), eps,
                                   exact=True)
        gap = max(gap, res.measured_gap)
        for seg, (ws, vs) in zip(res.path.segments, (generators, repairs)):
            ws.append(seg.w * seg.duration)
            vs.append(basis @ seg.v)
        transported.append(idx)
    eye = np.eye(model.dim, dtype=complex)
    path = UnitaryPath.constant(model.dim)
    if generators[0]:
        path = UnitaryPath([joined_segment(0.0, 1.0, *generators, eye)])
    if repairs[0]:
        path = concat_paths(path, UnitaryPath([joined_segment(0.0, 1.0, *repairs, eye)]))
    return rows, path, gap, transported, partition


def _stage_instance(rng, k, atoms, pad, gap, conjugate):
    """A block M_k (x) 1_atoms on the first k atoms coordinates, z with the
    same random eigenangles on each of the k copies and ``pad`` more
    angles on coordinates outside the block; with ``conjugate`` the copies
    are turned by 1_k (x) W, which commutes with the block.  No angle lies
    in a random window of length ``gap``, so the arcs inside it carry no
    mass and are skipped.  The target turns each atom by a phase, as the
    workload does, plus a small random part that moves the Gram gaps."""
    angles = (rng.uniform(0.0, 1.0 - gap, atoms + pad) + rng.uniform()) % 1.0
    lift = np.kron(np.eye(k), random_unitary(rng, atoms) if conjugate else np.eye(atoms))
    lift = np.block([[lift, np.zeros((k * atoms, pad))],
                     [np.zeros((pad, k * atoms)), np.eye(pad)]])
    diag = np.concatenate([np.tile(angles[:atoms], k), angles[atoms:]])
    z = lift @ np.diag(np.exp(2j * np.pi * diag)) @ dagger(lift)
    xi = random_state(rng, diag.size)
    phases = np.exp(2j * np.pi * np.concatenate([np.tile(rng.uniform(0, 1, atoms), k),
                                                 rng.uniform(0, 1, pad)]))
    eta = phases * xi + 0.02 * random_state(rng, diag.size)
    return (MatrixUnits(k, lift[:, :k * atoms]), SpectralModel.from_unitary(z),
            lift @ xi, lift @ eta / np.linalg.norm(eta))


@settings(max_examples=60, deadline=None)
@given(k=st.sampled_from([1, 2, 3]), atoms=st.integers(2, 12), pad=st.integers(0, 2),
       gap=st.sampled_from([0.0, 0.3, 0.6]), conjugate=st.booleans(),
       eps=st.floats(0.08, 0.5), seed=st.integers(0, 2**32 - 1))
# Two draws whose ends missed by 1.0e-12 and 4.8e-12 while ``_unitary_eig``
# dropped entries of T up to UNITARY_TOL / (4 p) off its diagonal.
@example(k=3, atoms=12, pad=1, gap=0.3, conjugate=True, eps=0.25, seed=180587)
@example(k=2, atoms=8, pad=0, gap=0.0, conjugate=True, eps=0.3012519703519336,
         seed=1354566587)
def test_arc_stage_matches_the_per_arc_loop(k, atoms, pad, gap, conjugate, eps, seed):
    # The stacked arc stage against the per-arc loop it replaced: the same
    # rows, the same error and arc, the same terminal error, path end and
    # Gram gap to rounding, and the same sups.
    block, model, xi, eta = _stage_instance(np.random.default_rng(seed), k, atoms, pad,
                                            gap, conjugate)
    try:
        rows, path, gap, transported, partition = _arc_loop_oracle(block, model, xi, eta,
                                                                   eps)
    except (ArcOutsideBlockError, HypothesisError, InfeasiblePartitionError) as exc:
        with pytest.raises(type(exc)) as info:
            arc_transport(block, model, xi, eta, [model.z], eps)
        assert getattr(info.value, "arc_index", None) == getattr(exc, "arc_index", None)
        if isinstance(exc, HypothesisError):
            assert abs(info.value.measured_gap - exc.measured_gap) < 1e-15
        return
    res = arc_transport(block, model, xi, eta, [model.z], eps)
    assert [row.skipped for row in res.rows] == [skip for skip, _, _ in rows]
    for row, (_, m_xi, m_eta) in zip(res.rows, rows):
        assert abs(row.mass_xi - m_xi) < 1e-15 and abs(row.mass_eta - m_eta) < 1e-15
    assert abs(res.terminal_error - np.linalg.norm(path.apply(1.0, xi) - eta)) < 1e-13
    assert np.linalg.norm(res.path.end() - path.end()) < 1e-12
    assert abs(res.extras["stats_gap"] - gap) < 1e-15
    starts = np.array([a for a, _ in partition.arcs()])[transported]
    inside = _in_arc(model.eigenangles, starts[:, None],
                     np.array([b for _, b in partition.arcs()])[transported][:, None])
    assert res.z_commutator_sup == pytest.approx(
        _z_commutator_bound(model, path, starts, inside), rel=1e-15, abs=0.0)
    assert abs(res.family_commutator_sup - path.commutator_bound([model.z])) < 1e-12


@settings(max_examples=100, deadline=None)
@given(atoms=st.integers(2, 6), eps=st.floats(0.1, 0.5), seed=st.integers(0, 2**32 - 1))
def test_arc_of_one_atom_on_one_coordinate_takes_the_phase_turn(atoms, eps, seed):
    # One unit (k = 1) and a diagonal z whose atom j carries all the mass of
    # xi = phase e_j, with eta a phase multiple of xi: the arc's corner rest
    # is rounding along x itself, which counts as b = 0, so the arc turns by
    # the phase alone and the path stays unitary.
    rng = np.random.default_rng(seed)
    z = np.diag(np.exp(2j * np.pi * rng.uniform(0.0, 1.0, atoms)))
    xi = np.zeros(atoms, dtype=complex)
    xi[rng.integers(atoms)] = np.exp(2j * np.pi * rng.uniform())
    eta = np.exp(2j * np.pi * rng.uniform()) * xi
    res = arc_transport(MatrixUnits(1, np.eye(atoms, dtype=complex)),
                        SpectralModel.from_unitary(z), xi, eta, [z], eps)
    u = res.path.end()
    assert np.linalg.norm(dagger(u) @ u - np.eye(atoms)) <= 1e-12
    assert res.terminal_error <= 1e-12


def _in_arc_oracle(angles, a, b):
    span = (b - a) % 1.0
    if span == 0.0:
        span = 1.0
    d = (angles - a) % 1.0
    return (d > 0.0) & (d <= span)


def _partition_oracle(model, xi, eta, eps, eps_prime):
    """The cut search point by point: per grid point, the margin masses are
    np.sum over the atoms in its window; the first feasible point is taken,
    and a later one replaces it only when lower by more than 1e-15."""
    gamma = eps * eps_prime / 4.0
    mx = model.point_masses(xi)
    me = model.point_masses(eta)
    angles = model.eigenangles

    def in_window(t):
        return _in_arc_oracle(angles, (t - gamma / 2) % 1.0, (t + gamma / 2) % 1.0)

    def best_cut(lo, hi):
        pitch = max(gamma / 4, (hi - lo) / 256)
        grid = np.arange(lo + pitch, hi + 1e-15, pitch)
        if grid.size == 0 or grid[-1] < hi - 1e-15:
            grid = np.append(grid, hi)
        lifted = np.sort(np.concatenate([angles - 1.0, angles, angles + 1.0]))
        mids = (lifted[:-1] + lifted[1:]) / 2
        mids = mids[(mids > lo) & (mids <= hi)]
        grid = np.sort(np.concatenate([grid, mids]), kind="stable")
        best_t, best_m = None, np.inf
        for t in grid:
            mask = in_window(t)
            if not (float(np.sum(mx[mask])) < eps_prime
                    and float(np.sum(me[mask])) < eps_prime):
                continue
            m = float(np.sum(mx[mask]) + np.sum(me[mask]))
            if m < best_m - 1e-15:
                best_t, best_m = t, m
        if best_t is None:
            raise InfeasiblePartitionError("no feasible cut")
        return float(best_t)

    first = best_cut(0.0, eps / 2)
    cuts = [first]
    while (first + 1.0) - cuts[-1] >= 1.5 * eps:
        lo = cuts[-1] + eps / 2
        hi = min(cuts[-1] + eps, first + 1.0 - eps / 2 - gamma / 8)
        cuts.append(best_cut(lo, hi))
    points = np.mod(np.array(cuts), 1.0)
    points.sort(kind="stable")
    return points


def _atom_model(angles):
    """Finite-spectrum model with one atom per coordinate, at exactly the
    given angles."""
    dim = len(angles)
    z = np.diag(np.exp(2j * np.pi * angles))
    return SpectralModel(z=z, eigenangles=np.asarray(angles),
                         eigenbasis=np.eye(dim, dtype=complex), labels=np.arange(dim))


@pytest.mark.parametrize("seed", range(24))
def test_cut_search_matches_pointwise_oracle(seed):
    # Clusters of atoms closer together than gamma, atoms sitting exactly on
    # the window ends (t -+ gamma/2) of first-window grid points, and (every
    # third seed) atoms covering the circle at gamma/2 with equal masses, so
    # no margin is empty and the 1e-15 tie rule picks among equal masses.
    rng = np.random.default_rng(seed)
    if seed % 3 == 2:
        eps, eps_prime = rng.uniform(0.4, 0.6), rng.uniform(0.15, 0.25)
        gamma = eps * eps_prime / 4
        n = int(2 / gamma)
        angles = np.sort(np.mod((np.arange(n) + rng.uniform(-0.2, 0.2, n)) / n, 1.0))
    else:
        eps, eps_prime = rng.uniform(0.15, 0.4), rng.uniform(0.02, 0.08)
        gamma = eps * eps_prime / 4
        centres = rng.uniform(0, 1, int(rng.integers(8, 30)))
        spread = gamma * rng.uniform(0.1, 0.45, (centres.size, 1)) * np.arange(3)
        clusters = (centres[:, None] + spread)[:, : int(rng.integers(1, 4))].ravel()
        pitch = max(gamma / 4, (eps / 2) / 256)
        grid = np.arange(pitch, eps / 2 + 1e-15, pitch)
        picks = grid[rng.choice(grid.size, 4, replace=False)]
        edges = np.concatenate([(picks - gamma / 2) % 1.0, (picks + gamma / 2) % 1.0])
        angles = np.sort(np.mod(np.concatenate([clusters, edges]), 1.0))
    model = _atom_model(angles)
    xi = random_state(rng, angles.size)
    eta = random_state(rng, angles.size)
    if seed % 3 == 2:
        xi = np.exp(1j * np.angle(xi)) / np.sqrt(xi.size)
        eta = np.exp(1j * np.angle(eta)) / np.sqrt(eta.size)
    try:
        expected = _partition_oracle(model, xi, eta, eps, eps_prime)
    except InfeasiblePartitionError:
        with pytest.raises(InfeasiblePartitionError):
            circle_partition(model, xi, eta, eps, eps_prime)
        return
    got = circle_partition(model, xi, eta, eps, eps_prime).points
    assert np.array_equal(got, expected)


@pytest.mark.parametrize("seed", range(6))
def test_window_masses_equal_pointwise_sums(seed):
    # Windows holding up to seven atoms (np.sum adds those in index order),
    # one cluster wrapping through angle 0, and centres whose window ends
    # fall exactly on atoms.
    rng = np.random.default_rng(seed)
    half = 0.01
    angles = np.sort(np.mod(np.concatenate(
        [rng.uniform(0, 1, 40), rng.uniform(0.3, 0.3 + half, 6),
         rng.uniform(-half / 2, half / 2, 5)]), 1.0))
    masses = rng.uniform(0, 0.05, (2, angles.size))
    centres = np.concatenate([rng.uniform(0, 1, 200), angles[:20] + half,
                              angles[20:40] - half, rng.uniform(0.3, 0.31, 50)])
    windows = [_in_arc_oracle(angles, (t - half) % 1.0, (t + half) % 1.0)
               for t in centres]
    counts = np.array([w.sum() for w in windows])
    keep = counts < 8
    assert np.any(counts[keep] >= 5)
    got = _window_masses(angles, masses, centres, half)
    for row, m in zip(got, masses):
        assert np.array_equal(row[keep], [np.sum(m[w]) for w, k in zip(windows, keep) if k])


def test_cut_search_matches_oracle_on_workload_shapes(rng):
    for k, atoms, eps in [(1, 60, 0.1), (2, 32, 0.09)]:
        block, model, xi, eta = circle_instance(rng, k, atoms)
        eps_prime = eps**5 / (4 * k**2)
        got = circle_partition(model, xi, eta, eps, eps_prime).points
        assert np.array_equal(got, _partition_oracle(model, xi, eta, eps, eps_prime))


def _record_window_atoms(monkeypatch):
    """Patch ``_window_masses`` to record the atom angles of every call."""
    calls = []

    def recorded(angles, masses, centres, half):
        calls.append(np.array(angles))
        return _window_masses(angles, masses, centres, half)

    monkeypatch.setattr(circle_module, "_window_masses", recorded)
    return calls


def _check_against_oracle(angles, eps, eps_prime, seed):
    model = _atom_model(np.asarray(angles, dtype=float))
    rng = np.random.default_rng(seed)
    xi = random_state(rng, len(angles))
    eta = random_state(rng, len(angles))
    got = circle_partition(model, xi, eta, eps, eps_prime).points
    assert np.array_equal(got, _partition_oracle(model, xi, eta, eps, eps_prime))


def test_window_masses_of_no_atom_are_zero():
    centres = np.linspace(0.0, 1.0, 7)
    got = _window_masses(np.empty(0), np.empty((2, 0)), centres, 0.01)
    assert got.shape == (2, 7) and not got.any()


def test_cut_search_window_with_no_atom_near_it(monkeypatch):
    # Every atom lies in (0.45, 0.55), so the first window (0, eps/2] and
    # its gamma-neighbourhood hold none: its first grid point has margin
    # masses 0.0 and wins with no mass computed, so no centre of the first
    # window is passed.  With one more atom on that first grid point,
    # gamma / 4 = 0.0009375, masses are computed in the first window, and
    # only at the centres within gamma/2 + 1e-12 of it.
    centres = []

    def recorded(angles, masses, grid, half):
        centres.append(np.array(grid))
        return _window_masses(angles, masses, grid, half)

    monkeypatch.setattr(circle_module, "_window_masses", recorded)
    atoms = [0.45, 0.47, 0.5, 0.53, 0.55]
    _check_against_oracle(atoms, 0.3, 0.05, 0)
    assert all(np.all(c > 0.15) for c in centres)
    centres.clear()
    _check_against_oracle([0.0009375] + atoms, 0.3, 0.05, 0)
    gamma = 0.3 * 0.05 / 4
    assert centres[0].size and np.all(np.abs(centres[0] - 0.0009375) <= gamma / 2 + 1e-12)


def test_cut_search_window_wrapping_through_zero(monkeypatch):
    # Atoms on both sides of angle 0, within gamma = 0.00375 of it: the
    # first window (0, 0.15] widened by gamma wraps through 0, so it takes
    # the atoms at 0.998 and 0.002 and no farther one.
    calls = _record_window_atoms(monkeypatch)
    _check_against_oracle([0.002, 0.3, 0.6, 0.8, 0.998], 0.3, 0.05, 1)
    assert np.array_equal(calls[0], [0.002, 0.998])


def test_cut_search_neighbourhood_spanning_the_circle(monkeypatch):
    # At eps = 1.5 the first window (0, 0.75] widened by gamma = 0.1875 on
    # each side covers the circle, so every atom is passed.
    calls = _record_window_atoms(monkeypatch)
    angles = np.sort(np.random.default_rng(2).uniform(0, 1, 12))
    _check_against_oracle(angles, 1.5, 0.5, 2)
    assert len(calls) == 1 and np.array_equal(calls[0], angles)


def test_arc_outside_block_is_a_typed_error(rng):
    # Angle 0.7 lives only on the coordinate outside the 2 x 2 block, so an
    # arc around it compresses the units to rank 0.
    block = full_matrix_units(2, 2, 5)
    z = np.diag(np.exp(2j * np.pi * np.array([0.1, 0.4, 0.1, 0.4, 0.7])))
    model = SpectralModel.from_unitary(z)
    outside = 0
    for _ in range(80):
        xi = random_state(rng, 5)
        try:
            arc_transport(block, model, xi, xi, [], 0.3)
        except ArcOutsideBlockError as exc:
            outside += 1
            assert exc.arc_index is not None
            assert f"arc {exc.arc_index} " in str(exc)
        except StateTransportError:
            pass
    assert outside > 0
