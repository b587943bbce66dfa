import numpy as np
import pytest

from state_transport.errors import (
    AssemblyError,
    HypothesisError,
    RoundFailureError,
)
from state_transport.intertwine import (
    AlgebraTower,
    assemble_path,
    assembled_commutation_sup,
    back_and_forth,
    build_tower,
    make_schedule,
)
from state_transport.linalg import dagger, op_norm
from state_transport.suites import intertwine_instance, random_state, random_unitary


def _small_instance(rng, ambient=16, levels=4, comm_level=3):
    """Two states conjugate by a unitary commuting with the given level."""
    tower = build_tower([2] * levels, ambient)
    xi = random_state(rng, ambient)
    blk = tower.level_block(comm_level)
    w = random_unitary(rng, blk.multiplicity)
    v = np.kron(np.eye(blk.n), w)
    eta = dagger(v) @ xi
    return tower, xi, eta


def test_build_tower_levels():
    tower = build_tower([2, 3], 12)
    assert tower.depth == 2
    assert tower.level_block(1).n == 2
    assert tower.level_block(2).n == 6
    assert tower.level_block(2).multiplicity == 2


def test_build_tower_rejects_bad_dimensions():
    with pytest.raises(ValueError):
        build_tower([2, 2], 6)  # 4 does not divide 6
    with pytest.raises(ValueError):
        build_tower([1], 4)


def test_tower_is_its_level_sizes():
    tower = build_tower([2, 3, 2], 24)
    assert tower == AlgebraTower(24, [2, 6, 12])
    assert [tower.level_block(n).n for n in (1, 2, 3)] == [2, 6, 12]
    assert tower.level_block(1).isometry is tower.level_block(3).isometry
    with pytest.raises(ValueError, match="level size 6 is not a multiple of 4"):
        AlgebraTower(24, [4, 6])  # the levels would not nest
    with pytest.raises(ValueError, match="branchings must be >= 2"):
        AlgebraTower(24, [2, 2])
    with pytest.raises(ValueError, match="level size 8 does not divide ambient"):
        AlgebraTower(12, [2, 8])


def test_level_generators_relations(rng):
    tower = build_tower([2, 2], 8)
    shift, clock = tower.level_generators(2)
    m = 4
    # clock-shift commutation up to the m-th root of unity
    phase = np.exp(2j * np.pi / m)
    assert op_norm(shift @ clock - phase * clock @ shift) < 1e-12
    assert op_norm(np.linalg.matrix_power(shift, m) - np.eye(8)) < 1e-12


def test_make_schedule_monotone():
    tower = build_tower([2] * 4, 16)
    sched = make_schedule(tower, 0.1, 4)
    assert sched.inner_tols == pytest.approx(
        [0.1 / 4 * 2.0 ** (-n + 1) for n in range(1, 5)]
    )
    for a, b in zip(sched.deltas, sched.deltas[1:]):
        assert b < a
    assert sched.budget(1) == pytest.approx(0.1)
    assert sched.budget(3) == pytest.approx(0.025)


def test_make_schedule_rejects_too_many_rounds():
    tower = build_tower([2], 4)
    with pytest.raises(ValueError):
        make_schedule(tower, 0.1, 2)


def test_back_and_forth_zero_rounds(rng):
    tower, xi, eta = _small_instance(rng)
    sched = make_schedule(tower, 0.1, 0)
    result = back_and_forth(tower, xi, eta, tower.level_generators(1), sched)
    assert result.logs == []
    assert op_norm(result.odd_product - np.eye(16)) == 0.0
    assert result.final["ad_combined_sup"] == 0.0


def test_back_and_forth_small_tower(rng):
    tower, xi, eta = _small_instance(rng)
    eps = 0.1
    sched = make_schedule(tower, eps, 2)
    fixed = tower.level_generators(1)
    result = back_and_forth(tower, xi, eta, fixed, sched)
    assert len(result.logs) == 2
    sides = [log["side"] for log in result.logs]
    assert sides == ["odd", "even"]
    for log in result.logs:
        assert log["within_budget"]
        assert log["gap"] < log["delta"]
        assert log["terminal"] <= log["inner_tol"]
    assert result.final["ad_odd_sup"] < result.final["ad_odd_bound"]
    assert result.final["ad_even_sup"] < result.final["ad_even_bound"]
    assert result.final["ad_combined_sup"] < result.final["ad_combined_bound"]
    assert result.final["intertwine_gap"] <= result.final["intertwine_bound"]


def test_back_and_forth_rejects_disagreeing_start(rng):
    tower = build_tower([2] * 3, 8)
    xi = random_state(rng, 8)
    eta = random_state(rng, 8)
    sched = make_schedule(tower, 0.1, 2)
    with pytest.raises(HypothesisError):
        back_and_forth(tower, xi, eta, [], sched)


def test_back_and_forth_round_failure_reports_round(rng):
    # a perturbation below the first threshold but above the second makes
    # round one pass and round two fail its admissibility check
    tower = build_tower([2] * 3, 8)
    xi = random_state(rng, 8)
    blk1 = tower.level_block(1)
    w = random_unitary(rng, blk1.multiplicity)
    pert = random_state(rng, 8)
    bumped = xi + 1e-4 * pert
    bumped = bumped / np.linalg.norm(bumped)
    eta = dagger(np.kron(np.eye(2), w)) @ bumped
    sched = make_schedule(tower, 0.1, 3)
    with pytest.raises(RoundFailureError) as info:
        back_and_forth(tower, xi, eta, [], sched)
    assert info.value.round_index == 2


def test_rounds_log_the_schedule_delta(rng):
    # at ambient 64 the clamp in make_schedule binds in rounds 5 and 6, so
    # the schedule's delta is below the one commutant_transport derives
    tower, xi, eta = intertwine_instance(rng, ambient=64, levels=6,
                                         commutant_level=6, twist=1e-9)
    sched = make_schedule(tower, 0.1, 6)
    result = back_and_forth(tower, xi, eta, tower.level_generators(1), sched)
    assert [log["delta"] for log in result.logs] == sched.deltas


def test_round_checked_against_schedule_delta(rng):
    tower, xi, eta = intertwine_instance(rng, ambient=64, levels=6,
                                         commutant_level=6, twist=1e-9)
    sched = make_schedule(tower, 0.1, 3)
    gap = back_and_forth(tower, xi, eta, [], sched).logs[1]["gap"]
    assert gap > 0.0
    sched.deltas[1] = gap / 2
    with pytest.raises(RoundFailureError) as info:
        back_and_forth(tower, xi, eta, [], sched)
    assert info.value.round_index == 2
    assert info.value.measured_gap == gap


def test_assemble_path_endpoint(rng):
    tower, xi, eta = _small_instance(rng)
    sched = make_schedule(tower, 0.1, 3)
    fixed = tower.level_generators(1)
    result = back_and_forth(tower, xi, eta, fixed, sched)
    path = assemble_path(result)
    assert path.is_based()
    assert op_norm(path.end() - result.odd_product) < 1e-8
    sup = assembled_commutation_sup(path, fixed, samples=9)
    assert sup <= 4 * 0.1 / 3 + 1e-6


def test_assemble_path_rejects_unbased_round(rng):
    tower, xi, eta = _small_instance(rng)
    sched = make_schedule(tower, 0.1, 1)
    result = back_and_forth(tower, xi, eta, [], sched)
    bad = [result.round_paths[0].left_multiplied(random_unitary(rng, 16))]
    with pytest.raises(AssemblyError):
        assemble_path(result, per_round_paths=bad)


def test_assembled_commutation_sup_matches_ad_form(rng):
    # ||v x v^* - x|| = ||[v, x]|| for unitary v
    tower, xi, eta = _small_instance(rng)
    fixed = tower.level_generators(1) + tower.level_generators(2)
    result = back_and_forth(tower, xi, eta, fixed, make_schedule(tower, 0.1, 3))
    path = assemble_path(result)
    oracle = max(
        op_norm(v @ x @ dagger(v) - x)
        for v in (path.at(t) for t in path.sample_times(9)) for x in fixed
    )
    assert abs(assembled_commutation_sup(path, fixed, samples=9) - oracle) <= 1e-13


def test_round_commutations_match_rebuilt_companions(rng):
    # round n checks u_n against the fixed set, the level generators up to n
    # and their conjugates by the string w = u_{n-1}^* u_{n-3}^* ...; the
    # twist keeps rounds after the first from being the identity, so the
    # companions, not the generators, give the even round's commutation
    tower, xi, eta = intertwine_instance(rng, ambient=16, levels=4,
                                         commutant_level=3, twist=1e-5)
    rounds = 3
    fixed = tower.level_generators(1)
    result = back_and_forth(tower, xi, eta, fixed, make_schedule(tower, 0.1, rounds))
    us = [p.end() for p in result.round_paths]
    gens = []
    for n in range(1, rounds + 1):
        gens += tower.level_generators(n)
        w = np.eye(16, dtype=complex)
        for k in range(n - 1, 0, -2):
            w = w @ dagger(us[k - 1])
        check = fixed + gens + ([w @ x @ dagger(w) for x in gens] if n > 1 else [])
        u_n = us[n - 1]
        oracle = max(op_norm(u_n @ x - x @ u_n) for x in check)
        assert abs(result.logs[n - 1]["commutation"] - oracle) <= 1e-12
    assert result.logs[1]["commutation"] > 1e-9


def _twisted_instance(rng):
    return intertwine_instance(rng, ambient=16, levels=4, commutant_level=3,
                               twist=1e-5)


def test_fixed_set_outside_level_one_is_measured_every_round(rng):
    # u_n need not commute with level-3 generators, so no round may skip them
    tower, xi, eta = _twisted_instance(rng)
    fixed = tower.level_generators(3)
    result = back_and_forth(tower, xi, eta, fixed, make_schedule(tower, 0.1, 3))
    for log, path in zip(result.logs, result.round_paths):
        u_n = path.end()
        assert log["commutation"] >= max(op_norm(u_n @ x - x @ u_n) for x in fixed)


@pytest.mark.parametrize("rounds", [1, 2, 3, 6])
def test_rounds_measure_fixed_set_and_open_companions_only(rng, monkeypatch, rounds):
    # round n: |F| fixed-set norms and two per generator of levels
    # 2 + n % 2 .. n; then 3 |F| in the final measurements
    tower, xi, eta = intertwine_instance(rng, ambient=64, levels=6,
                                         commutant_level=6, twist=1e-9)
    fixed = tower.level_generators(1) + tower.level_generators(2)
    calls = []

    def counted(x):
        calls.append(1)
        return op_norm(x)

    monkeypatch.setattr("state_transport.intertwine.op_norm", counted)
    back_and_forth(tower, xi, eta, fixed, make_schedule(tower, 0.1, rounds))
    companions = sum(2 * (n - 1 - n % 2) for n in range(2, rounds + 1))
    assert len(calls) == rounds * len(fixed) + companions + 3 * len(fixed)


def test_unmeasured_commutators_vanish(rng):
    # the instance of test_round_commutations_match_rebuilt_companions: the
    # generators of levels <= n, and the companions of levels up to the
    # string's last index 1 + n % 2, commute with u_n
    tower, xi, eta = _twisted_instance(rng)
    rounds = 3
    result = back_and_forth(tower, xi, eta, tower.level_generators(1),
                            make_schedule(tower, 0.1, rounds))
    us = [p.end() for p in result.round_paths]
    for n in range(1, rounds + 1):
        w = np.eye(16, dtype=complex)
        for k in range(n - 1, 0, -2):
            w = w @ dagger(us[k - 1])
        gens = [x for lev in range(1, n + 1) for x in tower.level_generators(lev)]
        exact = [x for lev in range(1, min(n, 1 + n % 2) + 1)
                 for x in tower.level_generators(lev)]
        unmeasured = gens + [w @ x @ dagger(w) for x in exact]
        u_n = us[n - 1]
        assert max(op_norm(u_n @ x - x @ u_n) for x in unmeasured) < 1e-12
