from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from state_transport.algebra import (_level_part, commutator_bound, full_matrix_units,
                                     level_distances)
from state_transport.errors import (
    AssemblyError,
    DimensionError,
    HypothesisError,
    ParameterError,
    RoundFailureError,
)
from state_transport.intertwine import (
    AlgebraTower,
    Schedule,
    _ad_sup,
    _corner_defect,
    _defect,
    _full_factor,
    _gram_defect,
    _norm_bound,
    _times_blocks,
    assemble_path,
    assembled_commutation_sup,
    back_and_forth,
    build_tower,
    drift_bound,
    make_schedule,
)
from state_transport.linalg import dagger, expm_skew, op_norm
from state_transport.path import UnitaryPath
from state_transport.suites import intertwine_instance, random_state, random_unitary
from state_transport.transport import commutant_transport


def _small_instance(rng, ambient=16, levels=4, comm_level=3):
    """Two states conjugate by a unitary commuting with the given level."""
    tower = build_tower([2] * levels, ambient)
    xi = random_state(rng, ambient)
    size = tower.sizes[comm_level - 1]
    v = np.kron(np.eye(size), random_unitary(rng, ambient // size))
    eta = dagger(v) @ xi
    return tower, xi, eta


def _products(result):
    """The odd and even products, 1_s (x) each factor at the first level s."""
    lift = np.eye(result.level)
    return np.kron(lift, result.odd_factor), np.kron(lift, result.even_factor)


def test_build_tower_levels():
    tower = build_tower([2, 3], 12)
    assert tower.depth == 2
    assert tower.sizes == [2, 6]


def test_build_tower_rejects_bad_dimensions():
    with pytest.raises(ValueError):
        build_tower([2, 2], 6)  # 4 does not divide 6
    with pytest.raises(ValueError):
        build_tower([1], 4)


def test_tower_is_its_level_sizes():
    tower = build_tower([2, 3, 2], 24)
    assert tower == AlgebraTower(24, [2, 6, 12])
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
    # The intertwiner takes at least one round: a schedule of none raises
    # where it is made, and a hand-built one where it enters back_and_forth.
    tower, xi, eta = _small_instance(rng)
    with pytest.raises(ParameterError, match="rounds must be >= 1"):
        make_schedule(tower, 0.1, 0)
    with pytest.raises(ParameterError, match="rounds must be >= 1"):
        back_and_forth(tower, xi, eta, tower.level_generators(1), Schedule(0.1, 0, [], []))


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
    w = random_unitary(rng, 4)
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
    # the schedule's delta is below the alignment bound's own threshold
    tower, xi, eta = intertwine_instance(rng, ambient=64, branchings=[2] * 6,
                                         commutant_level=6, twist=1e-9)
    sched = make_schedule(tower, 0.1, 6)
    result = back_and_forth(tower, xi, eta, tower.level_generators(1), sched)
    assert [log["delta"] for log in result.logs] == sched.deltas


def test_round_checked_against_schedule_delta(rng):
    tower, xi, eta = intertwine_instance(rng, ambient=64, branchings=[2] * 6,
                                         commutant_level=6, twist=1e-9)
    sched = make_schedule(tower, 0.1, 3)
    gap = back_and_forth(tower, xi, eta, [], sched).logs[1]["gap"]
    assert gap > 0.0
    sched.deltas[1] = gap / 2
    with pytest.raises(RoundFailureError) as info:
        back_and_forth(tower, xi, eta, [], sched)
    assert info.value.round_index == 2
    assert info.value.measured_gap == gap


def test_back_and_forth_rejects_wrong_length_states(rng):
    tower, xi, eta = _small_instance(rng)
    sched = make_schedule(tower, 0.1, 2)
    short = random_state(rng, 8)
    for omega1, omega2 in ((short, eta), (xi, short)):
        with pytest.raises(DimensionError):
            back_and_forth(tower, omega1, omega2, [], sched)


def test_back_and_forth_rejects_wrong_size_fixed_elements(rng):
    # an 8 x 8 element on a 16-dim tower has no commutator with the rounds
    tower, xi, eta = _small_instance(rng)
    sched = make_schedule(tower, 0.1, 2)
    for fixed in ([np.eye(8)], tower.level_generators(1) + [np.eye(16)[:, :8]]):
        with pytest.raises(DimensionError):
            back_and_forth(tower, xi, eta, fixed, sched)


def test_back_and_forth_rejects_a_schedule_for_a_deeper_tower(rng):
    tower, xi, eta = _small_instance(rng)
    deeper = make_schedule(build_tower([2] * 6, 64), 0.1, 5)
    with pytest.raises(ParameterError, match="5 rounds on a tower of 4 levels"):
        back_and_forth(tower, xi, eta, [], deeper)


@pytest.mark.parametrize("field", ["deltas", "inner_tols"])
def test_back_and_forth_rejects_a_schedule_with_missing_rounds(rng, field):
    tower, xi, eta = _small_instance(rng)
    sched = make_schedule(tower, 0.1, 3)
    for values in (getattr(sched, field)[:2], getattr(sched, field) + [1e-9]):
        with pytest.raises(ParameterError, match="per round"):
            back_and_forth(tower, xi, eta, [], replace(sched, **{field: values}))


def test_path_bound_rejects_wrong_size_elements(rng):
    # on the tower path and on a plain path of the same segments, an element
    # that is not 16 x 16 returns no bound
    tower, xi, eta = _small_instance(rng)
    result = back_and_forth(tower, xi, eta, [], make_schedule(tower, 0.1, 3))
    path = assemble_path(result)
    for p in (path, UnitaryPath(path.segments)):
        for bad in (np.eye(8), np.eye(16)[:8], np.eye(32)):
            with pytest.raises(DimensionError):
                assembled_commutation_sup(p, tower.level_generators(1) + [bad])


def test_assemble_path_endpoint(rng):
    tower, xi, eta = _small_instance(rng)
    sched = make_schedule(tower, 0.1, 3)
    fixed = tower.level_generators(1)
    result = back_and_forth(tower, xi, eta, fixed, sched)
    path = assemble_path(result)
    assert path.is_based()
    assert op_norm(path.end() - _products(result)[0]) < 1e-8
    sup = assembled_commutation_sup(path, fixed, samples=9)
    assert sup <= 4 * 0.1 / 3 + 1e-6


def test_assemble_path_lifts_nothing(rng, monkeypatch):
    # ||1_s (x) A|| = ||A||, so the endpoint check reads the factor path's
    # certified end gap and lifts nothing to the ambient.
    tower, xi, eta = _small_instance(rng)
    result = back_and_forth(tower, xi, eta, [], make_schedule(tower, 0.1, 3))
    lifts = []
    monkeypatch.setattr("state_transport.intertwine._lift",
                        lambda factor, s: lifts.append(s) or np.kron(np.eye(s), factor))
    assert assemble_path(result) is result.path
    assert lifts == []


def test_assemble_path_rejects_a_forged_end_gap(rng):
    # assemble_path reads the end gap the rounds certify, not the path's
    # evaluated end: a recorded gap above 1e-8, or NaN, raises.
    tower, xi, eta = _small_instance(rng)
    result = back_and_forth(tower, xi, eta, [], make_schedule(tower, 0.1, 1))
    assert 0.0 < result.end_gap <= 1e-8
    assert assemble_path(result) is result.path
    for gap in (1.01e-8, 1.0, np.inf, np.nan):
        with pytest.raises(AssemblyError):
            assemble_path(replace(result, end_gap=gap))


@settings(max_examples=30, deadline=None)
@given(ambient=st.sampled_from([16, 32, 64, 128]), rounds=st.integers(1, 7),
       twist=st.sampled_from([0.0, 1e-11, 1e-9]), seed=st.integers(0, 2**32 - 1))
def test_end_gap_dominates_the_evaluated_end(ambient, rounds, twist, seed):
    # The rounds certify where the factor path ends, 2 ||P|| (1 + e) d_P
    # plus rounding for the last odd round's factor P and eigenvectors q,
    # so no segment is evaluated.  With no tolerance, that bound is at least
    # the dense distance of the evaluated end from the odd factor, and it
    # passes assemble_path's 1e-8.
    rng = np.random.default_rng(seed)
    depth = ambient.bit_length() - 1
    rounds = min(rounds, depth)
    tower, xi, eta = intertwine_instance(rng, ambient=ambient, branchings=[2] * depth,
                                         commutant_level=max(3, rounds), twist=twist)
    result = back_and_forth(tower, xi, eta, tower.level_generators(1),
                            make_schedule(tower, 0.1, rounds))
    assert op_norm(result.path.factor.end() - result.odd_factor) <= result.end_gap <= 1e-8
    assert assemble_path(result) is result.path


@pytest.mark.parametrize("rounds", [1, 3])
def test_path_bound_reuses_the_fixed_sets_distances(rng, monkeypatch, rounds):
    # The path keeps the level-1 distances back_and_forth measured for its
    # fixed set, so its bound takes no _level_part pass on those arrays and
    # equals the bound of copies of them, which are measured afresh: bit
    # for bit for the level-1 generators, at distance 0, and for an element
    # off level 1 where one round makes the table's level-1 pass the direct
    # one.  A level-2 element outside the fixed set takes its own pass.
    tower, xi, eta = _small_instance(rng)
    fixed = tower.level_generators(1)
    if rounds == 1:
        fixed.append(fixed[0] + 1e-3 * tower.level_generators(2)[0])
    path = assemble_path(back_and_forth(tower, xi, eta, fixed,
                                        make_schedule(tower, 0.1, rounds)))
    level_part, passes = _level_part, []
    monkeypatch.setattr("state_transport.intertwine._level_part",
                        lambda x, s: passes.append(x) or level_part(x, s))
    sup = assembled_commutation_sup(path, fixed)
    assert passes == []
    copies = [x.copy() for x in fixed]
    assert assembled_commutation_sup(path, copies) == sup < path.limit
    assert len(passes) == len(copies) and all(p is c for p, c in zip(passes, copies))
    passes.clear()
    other = tower.level_generators(2)[0]
    assembled_commutation_sup(path, fixed + [other])
    assert len(passes) == 1 and passes[0] is other


def test_assembled_commutation_sup_dominates_sampled_ad_form(rng):
    # ||v x v^* - x|| = ||[v, x]|| for unitary v, and the certified sup is at
    # least every sampled value
    tower, xi, eta = _small_instance(rng)
    fixed = tower.level_generators(1) + tower.level_generators(2)
    result = back_and_forth(tower, xi, eta, fixed, make_schedule(tower, 0.1, 3))
    path = assemble_path(result)
    oracle = max(
        op_norm(v @ x @ dagger(v) - x)
        for v in (path.at(t) for t in path.sample_times(9)) for x in fixed
    )
    assert assembled_commutation_sup(path, fixed, samples=9) >= oracle
    assert assembled_commutation_sup(path, fixed) == path.commutator_bound(fixed)


def test_path_bound_takes_the_dense_terms_where_the_split_bound_reaches_the_limit(
        rng, monkeypatch):
    # Where a pair's split bound reaches 4 eps / 3 the path bound takes that
    # pair's dense Duhamel term, which a plain UnitaryPath of the same
    # segments takes for every pair, in path.py; so each reported sup is the
    # dense one, and so is every
    # pass or fail.  Off level 1 every pair falls back and fails; the tail at
    # c = 0.02 falls back and passes; on level 1 with eps = 1e-14 the limit
    # is below the rounding allowance, so every pair falls back and fails.
    tower, xi, eta = _twisted_instance(rng)
    schedule = make_schedule(tower, 0.1, 3)
    low, high = tower.level_generators(1), tower.level_generators(3)
    tail = [sum(0.02 ** (k - 1) * tower.level_generators(k)[0]
                for k in range(1, tower.depth + 1))]
    calls = _count_dense_norms(monkeypatch, 16, "state_transport.path")
    for fixed, sched, passes in ((high, schedule, False), (tail, schedule, True),
                                 (low, replace(schedule, eps=1e-14), False)):
        path = assemble_path(back_and_forth(tower, xi, eta, fixed, sched))
        limit = 4 * sched.eps / 3
        assert (path.level, path.limit) == (2, limit)
        dense = UnitaryPath(path.segments).commutator_bound(fixed)
        calls.clear()
        sup = assembled_commutation_sup(path, fixed)
        assert len(calls) == 2 * len(path.segments) * len(fixed)
        assert sup == dense
        assert (sup <= limit) == (dense <= limit) == passes

    # mixed: the level-1 pairs stay on their splits, below the limit, and
    # only the level-3 pairs take the dense norms, which dominate
    path = assemble_path(back_and_forth(tower, xi, eta, low + high, schedule))
    calls.clear()
    sup = assembled_commutation_sup(path, low + high)
    assert len(calls) == 2 * len(path.segments) * len(high)
    assert sup == UnitaryPath(path.segments).commutator_bound(high)
    calls.clear()
    assert assembled_commutation_sup(path, low) < 1e-12
    assert calls == []


def _round_factors(tower, result):
    """Per round, the factor 1_{s_n / s} (x) c_n^* of u_n at the first level
    s, formed from the round's corner as the library forms it."""
    q = tower.ambient_dim // result.level
    return [np.kron(np.eye(q // len(c)), c) for c in result.corners]


def _round_unitaries(tower, result):
    """Per round, u_n = 1_s (x) its factor, bit for bit the round's u_n."""
    return [np.kron(np.eye(result.level), u) for u in _round_factors(tower, result)]


def _companion_oracle(tower, result):
    """Per round, the dense companion norms ||[w^* u_n w, x]|| for the
    generators x of levels 2 + n % 2 .. n, with w^* the opposite-parity
    product, each taken as the library takes it on a fallback: each product
    starts as its first corner and takes each later one by blocks, and the
    factor p (1 (x) c_n^*) p^* at the first level s, with p at size D / s,
    is lifted to 1_s (x) p (1 (x) c_n^*) p^*."""
    s = result.level
    size = tower.ambient_dim // s
    products = {1: None, 0: None}
    oracle = []
    for n, c in enumerate(result.corners, start=1):
        p = products[n % 2]
        products[n % 2] = c if p is None else _times_blocks(p, c)
        companions = [x for lev in range(2 + n % 2, n + 1)
                      for x in tower.level_generators(lev)]
        if not companions:
            oracle.append(0.0)
            continue
        p = _full_factor(products[1 - n % 2], size)
        v = np.kron(np.eye(s), _times_blocks(p, c) @ dagger(p))
        oracle.append(max(op_norm(v @ x - x @ v) for x in companions))
    return oracle


def test_round_commutations_match_rebuilt_companions(rng):
    # round n checks u_n against the companions w x w^* of the generators of
    # levels 2 + n % 2 .. n, w = u_{n-1}^* u_{n-3}^* ..., as
    # ||[w^* u_n w, x]||; the twist keeps rounds after the first from being
    # the identity, and the drift bound certifies every round
    tower, xi, eta = intertwine_instance(rng, ambient=16, branchings=[2] * 4,
                                         commutant_level=3, twist=1e-5)
    fixed = tower.level_generators(1)
    result = back_and_forth(tower, xi, eta, fixed, make_schedule(tower, 0.1, 3))
    for log, dense in zip(result.logs, _companion_oracle(tower, result)):
        assert log["commutation"] >= dense
        if log["companion_measured"]:
            assert log["commutation"] == dense
    assert result.logs[1]["commutation"] > 1e-9


def test_companions_take_the_dense_norm_where_the_drift_bound_reaches_the_budget(rng):
    # the instance above with budgets 1e-8 times smaller (the deltas and
    # tolerances stay): the drift bound now reaches them, so each round with
    # companions falls back to their dense norms and logs them; round 3's
    # are far below its drift bound and pass where the bound would not
    tower, xi, eta = intertwine_instance(rng, ambient=16, branchings=[2] * 4,
                                         commutant_level=3, twist=1e-5)
    schedule = replace(make_schedule(tower, 0.1, 3), eps=1e-9)
    result = back_and_forth(tower, xi, eta, [], schedule)
    logs = result.logs
    assert [log["companion_measured"] for log in logs] == [0, 2, 2]
    oracle = _companion_oracle(tower, result)
    assert [log["commutation"] for log in logs[1:]] == oracle[1:]
    for log in logs[1:]:
        assert drift_bound(log["drift"], 0.0, 16) >= log["budget"]
    assert logs[2]["within_budget"]


def _twisted_instance(rng):
    return intertwine_instance(rng, ambient=16, branchings=[2] * 4, commutant_level=3,
                               twist=1e-5)


def test_fixed_set_outside_level_one_is_measured_every_round(rng):
    # u_n need not commute with level-3 generators, so no round may skip them
    tower, xi, eta = _twisted_instance(rng)
    fixed = tower.level_generators(3)
    result = back_and_forth(tower, xi, eta, fixed, make_schedule(tower, 0.1, 3))
    for log, u_n in zip(result.logs, _round_unitaries(tower, result)):
        assert log["commutation"] >= max(op_norm(u_n @ x - x @ u_n) for x in fixed)


def _count_dense_norms(monkeypatch, dim, module="state_transport.intertwine"):
    calls = []

    def counted(x):
        if x.shape == (dim, dim):
            calls.append(1)
        return op_norm(x)

    monkeypatch.setattr(f"{module}.op_norm", counted)
    return calls


@pytest.mark.parametrize("rounds", [1, 2, 3, 6])
def test_rounds_measure_fixed_set_and_open_companions_only(rng, monkeypatch, rounds):
    # a fixed set in level 1 is certified from the tensor splits and the open
    # companions from the drift bound, so the dense norms are only the
    # fallbacks the logs count: none here, where every round after the
    # first is 1e-9 from the identity; a level-3 fixed set takes the dense
    # norm in rounds 1 and 2, where it is far from the level, and in the
    # three final Ad sups
    tower, xi, eta = intertwine_instance(rng, ambient=64, branchings=[2] * 6,
                                         commutant_level=6, twist=1e-9)
    calls = _count_dense_norms(monkeypatch, 64)
    schedule = make_schedule(tower, 0.1, rounds)
    result = back_and_forth(tower, xi, eta, tower.level_generators(1), schedule)
    assert [log["fixed_measured"] for log in result.logs] == [0] * rounds
    assert [log["companion_measured"] for log in result.logs] == [0] * rounds
    assert len(calls) == 0

    fixed = tower.level_generators(3)
    calls.clear()
    result = back_and_forth(tower, xi, eta, fixed, schedule)
    fallbacks = [2 if n < 3 else 0 for n in range(1, rounds + 1)]
    assert [log["fixed_measured"] for log in result.logs] == fallbacks
    companions = sum(log["companion_measured"] for log in result.logs)
    assert len(calls) == companions + sum(fallbacks) + 3 * len(fixed)
    for log, u_n, dense in zip(result.logs, _round_unitaries(tower, result),
                               _companion_oracle(tower, result)):
        assert log["commutation"] >= max(op_norm(u_n @ x - x @ u_n) for x in fixed)
        assert log["commutation"] >= dense


def test_unmeasured_commutators_vanish(rng):
    # the instance of test_round_commutations_match_rebuilt_companions: the
    # generators of levels <= n, and the companions of levels up to the
    # string's last index 1 + n % 2, commute with u_n
    tower, xi, eta = _twisted_instance(rng)
    rounds = 3
    result = back_and_forth(tower, xi, eta, tower.level_generators(1),
                            make_schedule(tower, 0.1, rounds))
    us = _round_unitaries(tower, result)
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


def test_level_generators_are_embedded_level_elements():
    tower = build_tower([2] * 8, 256)
    for n in range(1, tower.depth + 1):
        m = tower.sizes[n - 1]
        blk = full_matrix_units(m, 256 // m)
        shift = np.zeros((m, m), dtype=complex)
        shift[np.arange(m), (np.arange(m) + 1) % m] = 1.0
        clock = np.diag(np.exp(2j * np.pi * np.arange(m) / m))
        got = tower.level_generators(n)
        assert np.array_equal(got[0], blk.embed(shift))
        assert np.array_equal(got[1], blk.embed(clock))


def _unitary_near_minus_one(rng, q):
    # eigenphases within 1e-6 of pi, on both sides
    v = random_unitary(rng, q)
    phases = np.pi + rng.uniform(-1e-6, 1e-6, q)
    return (v * np.exp(1j * phases)) @ dagger(v)


def _hermitian(rng, dim):
    h = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = (h + dagger(h)) / 2
    return h / op_norm(h)


small_or_zero = st.one_of(st.just(0.0), st.floats(1e-12, 1e-2))


@settings(max_examples=200, deadline=None)
@given(dim=st.sampled_from([8, 16, 32]), level=st.integers(1, 4),
       delta_x=small_or_zero, near_pi=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_commutator_bound_dominates_dense_norm(dim, level, delta_x, near_pi, seed):
    # u = 1_s (x) W exactly and x = X (x) 1_q + delta' Y: the bound from
    # c = ||W|| and x's level-distance table over the levels 2 | 4 | ... | s
    # is at least the dense commutator and, times c, the dense Ad form, with
    # no tolerance
    s = 2 ** min(level, dim.bit_length() - 2)
    q = dim // s
    rng = np.random.default_rng(seed)
    w = _unitary_near_minus_one(rng, q) if near_pi else random_unitary(rng, q)
    u = np.kron(np.eye(s), w)
    a = rng.standard_normal((s, s)) + 1j * rng.standard_normal((s, s))
    y = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    x = np.kron(a, np.eye(q)) + delta_x * y
    c = op_norm(w)
    distances, norm = level_distances(x, [2**k for k in range(1, s.bit_length())])
    bound = commutator_bound(c, distances[-1], norm, dim)
    assert bound >= op_norm(u @ x - x @ u)
    assert c * bound >= op_norm(u @ x @ dagger(u) - x)


@settings(max_examples=200, deadline=None)
@given(dim=st.sampled_from([16, 32, 64]), level=st.integers(1, 6), twist=small_or_zero,
       seed=st.integers(0, 2**32 - 1))
def test_drift_bound_dominates_dense_companion_norm(dim, level, twist, seed):
    # a string p = u_1 W with round 1 far from the identity and W's
    # eigenphases within 1e-6 of pi, a round u = exp(i twist h) near it, and
    # the shift and clock x of a level: the bound on ||[p u p^*, x]|| from
    # the drift and p's defect is at least the dense norm the round would
    # take, with no tolerance
    rng = np.random.default_rng(seed)
    tower = build_tower([2] * (dim.bit_length() - 1), dim)
    u_1 = np.kron(np.eye(2), random_unitary(rng, dim // 2))
    p = u_1 @ _unitary_near_minus_one(rng, dim)
    u = expm_skew(_hermitian(rng, dim), twist)
    drift = np.linalg.norm(u - np.eye(dim))
    defect = np.linalg.norm(dagger(p) @ p - np.eye(dim))
    bound = drift_bound(drift, defect, dim)
    v = p @ u @ dagger(p)
    for x in tower.level_generators(min(level, tower.depth)):
        assert bound >= op_norm(v @ x - x @ v)


def _signed_permutation(rng, n):
    """A permutation matrix times phases in {1, i, -1, -i}: unitary with
    every entry exact, so its defect rounds to 0.0."""
    m = np.zeros((n, n), dtype=complex)
    m[np.arange(n), rng.permutation(n)] = 1j ** rng.integers(0, 4, n)
    return m


def _built_unitary(kind, rng, n, count):
    """An n x n unitary of the given kind, unitary only to rounding."""
    if kind == "exact":
        return _signed_permutation(rng, n)
    if kind == "product":
        m = random_unitary(rng, n)
        for _ in range(count - 1):
            m = m @ random_unitary(rng, n)
        return m
    if kind == "near pi":
        return _unitary_near_minus_one(rng, n)
    return (1.0 + (-1) ** count * 1e-14) * random_unitary(rng, n)  # scaled


def _eigenpair_unitary(rng, n, count, spread, phase):
    """1 + q D q^* with D = diag(e^{i theta} - 1) for an n x k q, k <= n:
    orthonormal columns plus a perturbation of Frobenius norm ``spread``."""
    k = max(1, count * n // 6)
    g = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
    q = random_unitary(rng, n)[:, :k] + spread * g / np.linalg.norm(g)
    theta = {"near pi": np.pi + rng.uniform(-1e-6, 1e-6, k),
             "near 0": rng.uniform(-1e-11, 1e-11, k),
             "any": rng.uniform(-np.pi, np.pi, k)}[phase]
    return q, np.eye(n) + (q * (np.exp(1j * theta) - 1.0)) @ dagger(q)


@settings(max_examples=200, deadline=None)
@given(kind=st.sampled_from(["exact", "product", "near pi", "scaled", "eigenpairs",
                             "tower path"]),
       n=st.integers(1, 128), count=st.integers(1, 6),
       spread=st.sampled_from([0.0, 1e-16, 1e-13, 1e-10]),
       phase=st.sampled_from(["near pi", "near 0", "any"]), seed=st.integers(0, 2**32 - 1))
def test_norm_rule_dominates_the_svd(kind, n, count, spread, phase, seed):
    # ||M|| <= sqrt((1 + d) / (1 - g)), with d = ||M^* M - 1||_F, or
    # 4 e (1 + e) with e = ||q^* q - 1||_F for M = 1 + q D q^*, is at least
    # the SVD's ||M|| with no tolerance.  On a tower path, so is the path's
    # norm at least ||f(t)|| at 33 times in each factor segment, and the
    # rule at least the norm of each factor base and corner.
    rng = np.random.default_rng(seed)
    if kind == "tower path":
        # ambient 16 or 64, 1-3 rounds, twists 0 to 1e-7
        ambient = 16 if count <= 3 else 64
        tower, xi, eta = intertwine_instance(rng, ambient=ambient,
                                             branchings=[2] * (ambient.bit_length() - 1),
                                             commutant_level=3, twist=spread * 1e3)
        result = back_and_forth(tower, xi, eta, [], make_schedule(tower, 0.1, 1 + count % 3))
        path = result.path
        norm = path.norm
        for f in path.factor.segments:
            assert max(op_norm(f.at(f.t0 + tau * f.duration))
                       for tau in np.linspace(0.0, 1.0, 33)) <= norm
        for m in [f.base for f in path.factor.segments] + result.corners:
            assert _norm_bound(_defect(m), len(m)) >= op_norm(m)
        return
    if kind == "eigenpairs":
        q, m = _eigenpair_unitary(rng, n, count, spread, phase)
        assert _norm_bound(_corner_defect(_gram_defect(q), q.shape), n) >= op_norm(m)
    else:
        m = _built_unitary(kind, rng, n, count)
        if kind == "exact":
            assert _defect(m) == 0.0
    assert _norm_bound(_defect(m), n) >= op_norm(m)


def _chain_cap(tower, logs, n, side):
    """A cap on the chained defects of round n's side product and segment:
    each round j <= n of that side adds sqrt(m_j) 4 e_j (1 + e_j) for its
    eigenvectors' defect e_j, lifted m_j = s_j / s_1 times, plus at most
    14 F^{3/2} 2^-52 of rounding at factor size F: sqrt(m_j) times the
    corner's sqrt(r) (2 k + 1) 4 2^-52 <= 12 F^{3/2} 2^-52 (m_j r = F,
    k <= r) and the block product's 2 sqrt(F) r 2^-52.  The factor 1.001
    covers the products of two defects, each below 1e-9 here."""
    size = tower.ambient_dim // tower.sizes[0]
    rounding = 14.0 * size**1.5 * np.finfo(float).eps
    return 1.001 * sum(np.sqrt(tower.sizes[j - 1] // tower.sizes[0]) * 4.0
                       * log["eigenvector_defect"] * (1.0 + log["eigenvector_defect"])
                       + rounding for j, log in enumerate(logs[:n], start=1)
                       if j % 2 == side)


@settings(max_examples=30, deadline=None)
@given(ambient=st.sampled_from([16, 64, 256]), rounds=st.integers(1, 4),
       twist=st.sampled_from([0.0, 1e-9, 1e-7]), seed=st.integers(0, 2**32 - 1))
def test_tower_path_norm_dominates_the_segment_formula(ambient, rounds, twist, seed):
    # The rounds chain the path's norm from the defects of the corners'
    # eigenvectors: it is at least the formula over the measured factor
    # segments, max_k _norm_bound(_defect(B_k)) sqrt(1 + 4 e_k (1 + e_k))
    # with e_k = _defect(v_k), and at most that formula with each defect
    # raised by the chain's cap, ``_chain_cap``.
    rng = np.random.default_rng(seed)
    tower, xi, eta = intertwine_instance(rng, ambient=ambient,
                                         branchings=[2] * (ambient.bit_length() - 1),
                                         commutant_level=max(3, rounds), twist=twist)
    result = back_and_forth(tower, xi, eta, tower.level_generators(1),
                            make_schedule(tower, 0.1, rounds))
    path = result.path
    segments = path.factor.segments
    assert len(segments) == (rounds + 1) // 2

    def formula(base_defects, v_defects):
        return max(_norm_bound(b, len(f.base)) * np.sqrt(1.0 + 4.0 * e * (1.0 + e))
                   for f, b, e in zip(segments, base_defects, v_defects))

    measured_bases = [_defect(f.base) for f in segments]
    measured_vs = [_defect(f.v) for f in segments]
    assert formula(measured_bases, measured_vs) <= path.norm
    caps = [(_chain_cap(tower, result.logs, max(n - 2, 0), 1),
             _chain_cap(tower, result.logs, n, 1))
            for n in range(1, rounds + 1, 2)]
    assert path.norm <= formula([b + cap for b, (cap, _) in zip(measured_bases, caps)],
                                [e + cap for e, (_, cap) in zip(measured_vs, caps)])


@settings(max_examples=30, deadline=None)
@given(ambient=st.sampled_from([16, 64, 256]), rounds=st.integers(1, 6),
       twist=st.sampled_from([0.0, 1e-11, 1e-9, 1e-6]), seed=st.integers(0, 2**32 - 1))
def test_chained_defects_dominate_the_measured_products(ambient, rounds, twist, seed):
    # No product of the rounds is measured: each defect is chained from its
    # factors'.  With no tolerance, it is at least the measured
    # ||G^* G - 1||_F of every product G the rounds compute: both factors
    # after each round, each odd segment's eigenvectors v = P (1 (x) q), and
    # the combined product P_odd P_even^*, both ways round for the square
    # products.  A twist can fail a deep round's admissibility, which ends
    # the check there.
    rng = np.random.default_rng(seed)
    depth = ambient.bit_length() - 1
    rounds = min(rounds, depth)
    tower, xi, eta = intertwine_instance(rng, ambient=ambient, branchings=[2] * depth,
                                         commutant_level=max(3, rounds), twist=twist)
    fixed = tower.level_generators(1)
    for n in range(1, rounds + 1):
        try:
            result = back_and_forth(tower, xi, eta, fixed, make_schedule(tower, 0.1, n))
        except RoundFailureError:
            assert twist == 1e-6
            break
        p_odd, p_even = result.odd_factor, result.even_factor
        for key, w in (("odd", p_odd), ("even", p_even),
                       ("combined", p_odd @ dagger(p_even))):
            chained = result.final[f"ad_{key}_defect"]
            assert chained >= _defect(w) and chained >= _defect(dagger(w))
        log = result.logs[-1]
        assert log["defect"] == result.final[f"ad_{log['side']}_defect"]
        if n % 2:
            assert log["segment_defect"] >= _defect(result.path.factor.segments[-1].v)
        else:
            assert log["segment_defect"] is None


def test_round_logs_fixed_distance_and_fallbacks(rng):
    tower, xi, eta = _twisted_instance(rng)
    schedule = make_schedule(tower, 0.1, 3)
    logs = back_and_forth(tower, xi, eta, [], schedule).logs
    assert [(log["fixed_distance"], log["fixed_measured"]) for log in logs] == \
        [(0.0, 0)] * 3
    fixed = tower.level_generators(3)
    logs = back_and_forth(tower, xi, eta, fixed, schedule).logs
    # the level-3 shift has no part in levels 1 and 2, so its distance from
    # them is its whole Frobenius norm, sqrt(16)
    assert logs[0]["fixed_distance"] == logs[1]["fixed_distance"] == pytest.approx(4.0)
    assert logs[2]["fixed_distance"] < 1e-14
    assert [log["fixed_measured"] for log in logs] == [2, 2, 0]


@pytest.mark.parametrize("level", [1, 3])
def test_final_ad_sups_dominate_dense_values(rng, level):
    tower, xi, eta = _twisted_instance(rng)
    fixed = tower.level_generators(level)
    result = back_and_forth(tower, xi, eta, fixed, make_schedule(tower, 0.1, 3))
    p_odd, p_even = _products(result)
    for key, w in (("odd", p_odd), ("even", p_even),
                   ("combined", p_odd @ dagger(p_even))):
        dense = max(op_norm(w @ x @ dagger(w) - x) for x in fixed)
        assert result.final[f"ad_{key}_sup"] >= dense
        if level == 1:
            assert result.final[f"ad_{key}_sup"] < 1e-12


def test_final_ad_sups_cover_the_products_unitarity_defect():
    # The computed products are unitary only to rounding, so each Ad sup
    # adds ||x|| d to the split bound, with d >= ||w w^* - 1||_F the chained
    # defect of the product; the split bound's own rounding allowance is
    # 2 * 16 * 2^-52 = 7.1e-15 here.
    tower, xi, eta = _branching_instance(np.random.default_rng(255), 16, 2, 1e-9)
    fixed = tower.level_generators(1)
    result = back_and_forth(tower, xi, eta, fixed, make_schedule(tower, 0.1, 1))
    p_odd, p_even = _products(result)
    for key, w in (("odd", p_odd), ("even", p_even),
                   ("combined", p_odd @ dagger(p_even))):
        dense = max(op_norm(w @ x @ dagger(w) - x) for x in fixed)
        assert result.final[f"ad_{key}_sup"] >= dense
    # A factor off unitarity by the relative scale 1e-14, whatever the
    # rounding: ||W x W^* - x|| = ((1 + 1e-14)^2 - 1) ||x||, all defect and
    # above that allowance.  No chain knows this w, so the sup takes its
    # measured ||w w^* - 1||_F, and still covers it.
    s = result.level
    w = (1.0 + 1e-14) * result.odd_factor
    lifted = np.kron(np.eye(s), w)
    dense = max(op_norm(lifted @ x @ dagger(lifted) - x) for x in fixed)
    assert dense > 7.2e-15
    tables = [level_distances(x, [s]) for x in fixed]
    assert _ad_sup(_defect(dagger(w)), s, fixed, tables, np.inf, lambda: w) >= dense


@pytest.mark.parametrize("rounds", [1, 2, 3])
def test_intertwine_gap_matches_dense_level_generators(rng, rounds):
    # The gap applies the last level's shift and clock to the reshaped
    # vectors; the oracle applies their dense D x D kron forms.
    tower, xi, eta = _small_instance(rng)
    result = back_and_forth(tower, xi, eta, [], make_schedule(tower, 0.1, rounds))
    odd, even = _products(result)
    even_xi = dagger(even) @ xi
    odd_eta = dagger(odd) @ eta
    dense = max(abs(np.vdot(even_xi, x @ even_xi) - np.vdot(odd_eta, x @ odd_eta))
                for x in tower.level_generators(rounds))
    assert abs(result.final["intertwine_gap"] - dense) <= 1e-15


def _branching_instance(rng, ambient, branching, twist):
    """A tower of equal branchings whose levels stop below the ambient, and
    two states conjugate by a unitary in the commutant of its last level,
    twisted by exp(i twist h) with ||h|| = 1."""
    depth = round(np.log(ambient) / np.log(branching)) - 1
    tower = build_tower([branching] * depth, ambient)
    size = tower.sizes[depth - 1]
    v = np.kron(np.eye(size), random_unitary(rng, ambient // size))
    if twist:
        v = v @ expm_skew(_hermitian(rng, ambient), twist)
    xi = random_state(rng, ambient)
    return tower, xi, dagger(v) @ xi


def _dense_rounds(tower, xi, eta, schedule):
    """The round loop on ambient matrices, the oracle of the factor loop: per
    round u_n, the adjoint of the end of the level's commutant transport
    path, and the string w^* = the opposite-parity product before it; then
    the two products."""
    dim = tower.ambient_dim
    products = {1: np.eye(dim, dtype=complex), 0: np.eye(dim, dtype=complex)}
    rounds = []
    for n in range(1, schedule.rounds + 1):
        side, other = products[n % 2], products[1 - n % 2]
        y, t = (eta, xi) if n % 2 else (xi, eta)
        s_n = tower.sizes[n - 1]
        res = commutant_transport(full_matrix_units(s_n, dim // s_n), dagger(side) @ y,
                                  dagger(other) @ t, schedule.inner_tols[n - 1])
        u_n = dagger(res.path.end())
        rounds.append((u_n, other))
        products[n % 2] = side @ u_n
    return rounds, products[1], products[0]


@settings(max_examples=40, deadline=None)
@given(ambient=st.sampled_from([16, 64]), branching=st.sampled_from([2, 4]),
       rounds=st.integers(1, 3), twist=st.sampled_from([0.0, 1e-9, 1e-7]),
       level=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_factor_loop_matches_the_dense_loop(ambient, branching, rounds, twist, level,
                                            seed):
    # The loop on level-1 factors against the loop on ambient matrices: the
    # products agree, and every round's commutation and every final Ad sup
    # is at least the dense norm it certifies.  A certified bound dominates
    # with no tolerance; a dense norm the loop fell back to is the oracle's
    # own up to the products' rounding, 1e-12.
    tower, xi, eta = _branching_instance(np.random.default_rng(seed), ambient,
                                         branching, twist)
    rounds, level = min(rounds, tower.depth), min(level, tower.depth)
    fixed = tower.level_generators(level)
    schedule = make_schedule(tower, 0.1, rounds)
    result = back_and_forth(tower, xi, eta, fixed, schedule)
    dense, p_odd, p_even = _dense_rounds(tower, xi, eta, schedule)
    odd, even = _products(result)
    assert op_norm(odd - p_odd) <= 1e-12
    assert op_norm(even - p_even) <= 1e-12

    for n, (log, (u_n, p)) in enumerate(zip(result.logs, dense), start=1):
        fell_back = log["fixed_measured"] or log["companion_measured"]
        floor = log["commutation"] + (1e-12 if fell_back else 0.0)
        assert floor >= max(op_norm(u_n @ x - x @ u_n) for x in fixed)
        v = p @ u_n @ dagger(p)
        for x in [x for lev in range(2 + n % 2, n + 1) for x in tower.level_generators(lev)]:
            assert floor >= op_norm(v @ x - x @ v)

    tol = 0.0 if level == 1 else 1e-12
    for key, w in (("odd", p_odd), ("even", p_even), ("combined", p_odd @ dagger(p_even))):
        ad = max(op_norm(w @ x @ dagger(w) - x) for x in fixed)
        assert result.final[f"ad_{key}_sup"] + tol >= ad
