"""Randomized verification suites, one per module contract.

Each suite runs a number of seeded instances and returns a summary dict of
per-property pass counts and worst measured quantities.  Summaries contain
no wall-clock data, so identical seeds give identical reports.
"""

from __future__ import annotations

import numpy as np

from .algebra import full_matrix_units
from .circle import SpectralModel, _window_masses, arc_transport
from .errors import ParameterError
from .gram import (
    GramTarget,
    VectorFamily,
    align_unitary,
    alignment_bound,
    gram_complete,
    gram_matrix,
)
from .group import average_conjugates, group_state_transport, integer_action
from .intertwine import (
    assemble_path,
    assembled_commutation_sup,
    back_and_forth,
    build_tower,
    make_schedule,
)
from .linalg import dagger, expm_skew, op_norm, psd_sqrt, unitary_eig
from .path import concat_paths
from .transport import (
    commutant_transport,
    geodesic_angle,
    geodesic_lower_bound,
    geodesic_pair,
    spectrum_match,
)

SUITE_NAMES = (
    "gram",
    "align",
    "geodesic",
    "spectrum",
    "commutant",
    "circle",
    "group",
    "intertwine",
)


def random_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def _subnormalized_family(rng, n: int, dim: int) -> VectorFamily:
    vecs = rng.standard_normal((n, dim)) + 1j * rng.standard_normal((n, dim))
    weight = np.sum(np.abs(vecs) ** 2)
    scale = rng.uniform(0.3, 0.999) / np.sqrt(weight)
    return VectorFamily(dim=dim, vectors=vecs * scale)


def run_suite(name: str, seed: int, instances: int) -> dict:
    if name not in SUITE_NAMES:
        raise ParameterError(f"unknown suite {name!r}")
    fn = globals()[f"suite_{name}"]
    return fn(seed, instances)


def suite_gram(seed: int, instances: int) -> dict:
    def one(i: int):
        rng = np.random.default_rng((seed, i))
        dim = int(rng.integers(2, 17))
        n = int(rng.integers(1, dim + 1))
        fam = _subnormalized_family(rng, n, dim)
        target_fam = _subnormalized_family(rng, n, dim)
        target = GramTarget(n=n, c=gram_matrix(target_fam))
        out = gram_complete(fam, target)
        gram_err = float(np.max(np.abs(gram_matrix(out) - target.c)))
        d_half = psd_sqrt(gram_matrix(fam))
        c_half = psd_sqrt(target.c)
        predicted = np.real(np.diag((c_half - d_half) @ (c_half - d_half)))
        measured = np.linalg.norm(out.vectors - fam.vectors, axis=1) ** 2
        disp_err = float(np.max(np.abs(measured - predicted)))
        return gram_err, disp_err

    results = [one(i) for i in range(instances)]
    gram_errs = [r[0] for r in results]
    disp_errs = [r[1] for r in results]
    return {
        "suite": "gram",
        "seed": seed,
        "instances": instances,
        "max_gram_error": max(gram_errs, default=0.0),
        "max_displacement_error": max(disp_errs, default=0.0),
        "gram_pass": sum(1 for e in gram_errs if e < 1e-10),
        "displacement_pass": sum(1 for e in disp_errs if e < 1e-8),
        "pass": bool(
            all(e < 1e-10 for e in gram_errs) and all(e < 1e-8 for e in disp_errs)
        ),
    }


def suite_align(seed: int, instances: int) -> dict:
    def one(i: int):
        rng = np.random.default_rng((seed, i))
        full_rank = bool(rng.integers(0, 2))
        if full_rank:
            dim = int(rng.integers(3, 13))
            n = int(rng.integers(1, dim + 1))
        else:
            dim = int(rng.integers(2, 6))
            n = int(rng.integers(dim + 1, dim + 5))
        src = _subnormalized_family(rng, n, dim)
        u = random_unitary(rng, dim)
        moved = src.vectors @ u.T
        pert = rng.standard_normal((n, dim)) + 1j * rng.standard_normal((n, dim))
        pert = pert / max(np.linalg.norm(pert), 1.0)
        scale = 10.0 ** rng.uniform(-8, -4)
        dst = VectorFamily(dim, moved + scale * pert)
        gap = float(np.max(np.abs(gram_matrix(src) - gram_matrix(dst))))
        delta = max(2 * gap, 1e-12)
        res = align_unitary(src, dst, delta)
        bound = alignment_bound(n, dim, delta)
        return res.max_residual, bound, res.full_rank

    results = [one(i) for i in range(instances)]
    violations = sum(1 for r, b, _ in results if r > b + 1e-8)
    return {
        "suite": "align",
        "seed": seed,
        "instances": instances,
        "violations": violations,
        "max_residual": max((r for r, _, _ in results), default=0.0),
        "full_rank_count": sum(1 for _, _, fr in results if fr),
        "pass": bool(violations == 0),
    }


def suite_geodesic(seed: int, instances: int, competitors: int = 200) -> dict:
    def one(i: int):
        rng = np.random.default_rng((seed, i))
        dim = int(rng.integers(3, 9))
        xi = random_state(rng, dim)
        eta = random_state(rng, dim)
        theta = geodesic_angle(xi, eta)
        path = geodesic_pair(xi, eta)
        length_err = abs(path.length - theta)
        terminal = float(np.linalg.norm(path.end() @ xi - eta))
        phi = geodesic_lower_bound(path, xi, eta)
        beaten_by = 0.0
        for _ in range(competitors):
            mid = random_state(rng, dim)
            comp = concat_paths(geodesic_pair(xi, mid), geodesic_pair(mid, eta))
            beaten_by = max(beaten_by, theta - comp.length)
        return length_err, terminal, beaten_by, theta - phi

    results = [one(i) for i in range(instances)]
    return {
        "suite": "geodesic",
        "seed": seed,
        "instances": instances,
        "max_length_error": max((r[0] for r in results), default=0.0),
        "max_terminal_error": max((r[1] for r in results), default=0.0),
        "max_competitor_advantage": max((r[2] for r in results), default=0.0),
        "max_bound_slack": max((r[3] for r in results), default=0.0),
        "pass": bool(
            all(r[0] < 1e-8 and r[1] < 1e-8 and r[2] <= 1e-6 for r in results)
        ),
    }


def suite_spectrum(seed: int, instances: int) -> dict:
    def one(i: int):
        rng = np.random.default_rng((seed, i))
        dim = int(rng.integers(2, 7))
        u = random_unitary(rng, dim)
        if rng.integers(0, 2):
            h = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            h = (h + dagger(h)) / 2
            v = expm_skew(h * rng.uniform(0.0, 0.5)) @ u
        else:
            v = random_unitary(rng, dim)
        gap = op_norm(u - v)
        spec_u, _ = unitary_eig(u)
        worst = 0.0
        for lam in spec_u:
            mu = spectrum_match(u, v, lam)
            worst = max(worst, abs(lam - mu) - gap)
        return worst

    results = [one(i) for i in range(instances)]
    return {
        "suite": "spectrum",
        "seed": seed,
        "instances": instances,
        "violations": sum(1 for w in results if w > 1e-8),
        "max_excess": max(results, default=0.0),
        "pass": bool(all(w <= 1e-8 for w in results)),
    }


def commutant_instance(rng, n: int, multiplicity: int, eps: float,
                       stats_noise: float = 0.0):
    """Admissible instance on M_n (x) 1_r: target differs from the source by
    a commutant unitary, optionally with a tiny statistics perturbation."""
    mu = full_matrix_units(n, multiplicity)
    dim = n * multiplicity
    xi = random_state(rng, dim)
    w = random_unitary(rng, multiplicity)
    eta = np.kron(np.eye(n), w) @ xi
    if stats_noise > 0:
        bump = random_state(rng, dim)
        eta = eta + stats_noise * bump
        eta = eta / np.linalg.norm(eta)
    return mu, xi, eta


def suite_commutant(seed: int, instances: int) -> dict:
    shapes = [(2, 2), (3, 3)]
    epss = [0.1, 0.01]

    def one(i: int):
        rng = np.random.default_rng((seed, i))
        n, r = shapes[i % len(shapes)]
        eps = epss[(i // len(shapes)) % len(epss)]
        mu, xi, eta = commutant_instance(rng, n, r, eps)
        res = commutant_transport(mu, xi, eta, eps)
        units = [mu.unit(a, b) for a in range(n) for b in range(n)]
        return res.terminal_error, eps, res.path.commutator_bound(units)

    results = [one(i) for i in range(instances)]
    return {
        "suite": "commutant",
        "seed": seed,
        "instances": instances,
        "max_terminal_error": max((r[0] for r in results), default=0.0),
        "max_commutator": max((r[2] for r in results), default=0.0),
        "terminal_violations": sum(1 for t, e, _ in results if t >= e),
        "pass": bool(all(t < e and c < 1e-9 for t, e, c in results)),
    }


def circle_instance(rng, k: int, atoms: int):
    """Block M_k tensored with a finite-spectrum circle factor; the target
    differs from the source by a unitary commuting with both.

    Atoms sit near-equispaced with equal spectral mass 1/atoms, so every
    partition arc of width > eps/2 stays above the low-mass skip level at
    the suite's eps choices and the full terminal budget applies.
    """
    dim = k * atoms
    angles = (np.arange(atoms) + rng.uniform(-0.02, 0.02, atoms)) / atoms
    angles = np.sort(np.mod(angles, 1.0))
    z = np.kron(np.eye(k), np.diag(np.exp(2j * np.pi * angles)))
    model = SpectralModel.from_unitary(z)
    block = full_matrix_units(k, atoms, dim)
    # Equal mass per atom, random distribution inside each block fiber.
    fibers = rng.standard_normal((atoms, k)) + 1j * rng.standard_normal((atoms, k))
    fibers = fibers / np.linalg.norm(fibers, axis=1, keepdims=True)
    xi = np.zeros(dim, dtype=complex)
    for a in range(atoms):
        xi[a::atoms] = fibers[a] / np.sqrt(atoms)
    phases = np.exp(1j * rng.uniform(0, 2 * np.pi, atoms))
    eta = np.kron(np.eye(k), np.diag(phases)) @ xi
    return block, model, xi, eta


def suite_circle(seed: int, instances: int) -> dict:
    def one(i: int):
        rng = np.random.default_rng((seed, i))
        k = int(rng.integers(1, 3))
        if k == 1:
            atoms = int(rng.integers(56, 65))
            eps = 0.1
        else:
            atoms = 32
            eps = 0.09
        block, model, xi, eta = circle_instance(rng, k, atoms)
        res = arc_transport(block, model, xi, eta, [], eps)
        part = res.partition
        gap_ok = part.gap_defect() == 0.0
        masses = np.stack([model.point_masses(xi), model.point_masses(eta)])
        margin_worst = float(np.max(_window_masses(model.eigenangles, masses,
                                                   part.points, part.gamma / 2)))
        return (
            res.terminal_error,
            res.terminal_bound,
            res.z_commutator_sup,
            res.z_commutator_bound,
            gap_ok,
            margin_worst,
            res.extras["eps_prime"],
        )

    results = [one(i) for i in range(instances)]
    return {
        "suite": "circle",
        "seed": seed,
        "instances": instances,
        "max_terminal_error": max((r[0] for r in results), default=0.0),
        "max_z_commutator": max((r[2] for r in results), default=0.0),
        "gap_failures": sum(1 for r in results if not r[4]),
        "margin_failures": sum(1 for r in results if r[5] >= r[6]),
        "pass": bool(all(
            r[0] < r[1] and r[2] < r[3] and r[4] and r[5] < r[6] for r in results
        )),
    }


def group_instance(rng, copy_dim: int):
    """Z-action acting identically on two orthogonal copies; the target
    lives in the second copy with exactly matching correlation data."""
    u0 = random_unitary(rng, copy_dim)
    gen = np.block([
        [u0, np.zeros((copy_dim, copy_dim))],
        [np.zeros((copy_dim, copy_dim)), u0],
    ])
    action = integer_action([gen])
    x = random_state(rng, copy_dim)
    # A commuting unitary preserves all correlations exactly.
    w, v = np.linalg.eig(u0)
    m = (v * np.exp(1j * rng.uniform(0, 2 * np.pi, copy_dim))) @ np.linalg.inv(v)
    y = m @ x
    y = y / np.linalg.norm(y)
    xi = np.concatenate([x, np.zeros(copy_dim)])
    eta = np.concatenate([np.zeros(copy_dim), y])
    return action, xi, eta


def suite_group(seed: int, instances: int) -> dict:
    def one(i: int):
        rng = np.random.default_rng((seed, i))
        copy_dim = int(rng.integers(48, 57))
        eps = 0.1
        action, xi, eta = group_instance(rng, copy_dim)
        gens = [(1,), (-1,)]
        res = group_state_transport(action, xi, eta, gens, eps)
        fol = res.folner
        length = len(fol.elements)
        defect_exact = fol.defect == 2.0 / length
        h = np.diag(rng.uniform(-1, 1, action.dim)).astype(complex)
        hbar = average_conjugates(h, fol, action)
        avg_comm = 0.0
        for g in gens:
            r = action.rep(g)
            avg_comm = max(avg_comm, op_norm(r @ hbar - hbar @ r))
        avg_bound = 2 * fol.defect * op_norm(h)
        return (
            res.terminal_error,
            res.terminal_bound,
            res.commutator_sup,
            res.commutator_bound,
            defect_exact,
            avg_comm,
            avg_bound,
        )

    results = [one(i) for i in range(instances)]
    return {
        "suite": "group",
        "seed": seed,
        "instances": instances,
        "max_terminal_error": max((r[0] for r in results), default=0.0),
        "max_commutator": max((r[2] for r in results), default=0.0),
        "defect_exact_count": sum(1 for r in results if r[4]),
        "average_bound_failures": sum(1 for r in results if r[5] > r[6] + 1e-10),
        "pass": bool(all(
            r[0] <= r[1] and r[2] < r[3] and r[4] and r[5] <= r[6] + 1e-10
            for r in results
        )),
    }


def intertwine_instance(rng, ambient: int = 256, branchings=(2,) * 8,
                        commutant_level: int = 6, twist: float = 0.0):
    """Tower pair: the second state is the first conjugated by a unitary in
    the commutant of the given level, so deep statistics agree exactly."""
    tower = build_tower(branchings, ambient)
    xi = random_state(rng, ambient)
    size = tower.sizes[commutant_level - 1]
    v = np.kron(np.eye(size), random_unitary(rng, ambient // size))
    if twist > 0:
        h = rng.standard_normal((ambient, ambient)) \
            + 1j * rng.standard_normal((ambient, ambient))
        h = (h + dagger(h)) / 2
        h = h / op_norm(h)
        v = v @ expm_skew(h, twist)
    eta = dagger(v) @ xi
    return tower, xi, eta


def suite_intertwine(seed: int, instances: int) -> dict:
    def one(i: int):
        rng = np.random.default_rng((seed, i))
        tower, xi, eta = intertwine_instance(rng, twist=1e-11)
        eps = 0.1
        schedule = make_schedule(tower, eps, rounds=6)
        fixed = tower.level_generators(1)
        result = back_and_forth(tower, xi, eta, fixed, schedule)
        budgets_ok = all(log["within_budget"] for log in result.logs)
        combined_ok = result.final["ad_combined_sup"] < result.final["ad_combined_bound"]
        path = assemble_path(result)
        sup = assembled_commutation_sup(path, fixed)
        path_ok = sup <= 4 * eps / 3 + 1e-6
        return budgets_ok, combined_ok, path_ok, result.final["ad_combined_sup"], sup

    results = [one(i) for i in range(instances)]
    return {
        "suite": "intertwine",
        "seed": seed,
        "instances": instances,
        "budget_failures": sum(1 for r in results if not r[0]),
        "combined_failures": sum(1 for r in results if not r[1]),
        "path_failures": sum(1 for r in results if not r[2]),
        "max_combined_sup": max((r[3] for r in results), default=0.0),
        "max_path_sup": max((r[4] for r in results), default=0.0),
        "pass": bool(all(r[0] and r[1] and r[2] for r in results)),
    }
