"""Every op of each benchmark workload's tiny pool runs without a failure.

The ops, inputs and certificate bounds are the benchmark's own, read from
``perfbench/workloads.py``, so a missed certificate shows here before a
benchmark run counts it as a failed op.
"""

import importlib.util
import itertools
import sys
from pathlib import Path

import numpy as np
import pytest

import state_transport
import state_transport.serialize  # noqa: F401  (the ops call st.serialize)

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


workloads = _workloads()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_pool_ops_do_not_fail(name):
    workload = workloads.WORKLOADS[name]
    for i, x in enumerate(workload.inputs(1, True)):
        rec = workloads.run_op(state_transport, workload, x)
        assert not rec.failed, f"{name} op {i}: {rec.failure_types()}"


def test_ignored_t_samples_leaves_every_sup_unchanged():
    # The spectral-mid op passes t_samples to arc_transport and
    # group_state_transport; their sups are certified bounds, which sample
    # nothing, so the keyword must be accepted and change no value.
    x = workloads.spectral_mid_inputs(1, True)[0]
    z = x["circle_z"]
    model = state_transport.SpectralModel.from_unitary(z)
    block = state_transport.full_matrix_units(x["circle_k"], len(z) // x["circle_k"], len(z))
    action = state_transport.integer_action([x["group_gen"]])
    circle, group = [], []
    for samples in (2, 64):
        res = state_transport.arc_transport(block, model, x["circle_xi"], x["circle_eta"],
                                            [z], x["circle_eps"], t_samples=samples)
        circle.append((res.z_commutator_sup, res.family_commutator_sup))
        res = state_transport.group_state_transport(action, x["group_xi"], x["group_eta"],
                                                    [(1,), (-1,)], 0.1, t_samples=samples)
        group.append(res.commutator_sup)
    assert circle[0] == circle[1] and circle[0][0] > 0.0
    assert group[0] == group[1]


def test_tower_rounds_take_no_dense_ambient_norm(monkeypatch):
    # The tower op's fixed set lies in level 1 and its rounds after the
    # first stay near the identity, so back_and_forth certifies the fixed
    # set, the open companions and the final Ad sups without a single
    # ambient x ambient operator norm.
    workload = workloads.WORKLOADS["tower-256"]
    op_norm = state_transport.intertwine.op_norm
    for x in workload.inputs(1, True):
        ambient = x["ambient"]
        dense = []

        def counted(a):
            if a.shape == (ambient, ambient):
                dense.append(a.shape)
            return op_norm(a)

        monkeypatch.setattr(state_transport.intertwine, "op_norm", counted)
        rec = workloads.run_op(state_transport, workload, x)
        assert not rec.failed, rec.failure_types()
        assert len(dense) == 0


def test_tower_op_decomposes_no_ambient_matrix(monkeypatch):
    # Every path segment of the tower op is built from eigenpairs known in
    # closed form, so no ambient x ambient eigh or eigvalsh is taken.
    workload = workloads.WORKLOADS["tower-256"]
    inputs = workload.inputs(1, True)
    shapes = []
    for name in ("eigh", "eigvalsh"):
        def counted(a, *args, _f=getattr(np.linalg, name), **kwargs):
            shapes.append(a.shape)
            return _f(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    for x in inputs:
        shapes.clear()
        rec = workloads.run_op(state_transport, workload, x)
        assert not rec.failed, rec.failure_types()
        assert (x["ambient"], x["ambient"]) not in shapes


def test_tower_op_evaluates_each_round_once(monkeypatch):
    # A round forms u_n from its corner alignment's Schur pair and builds
    # no path of its own; the assembled path is built in the round loop,
    # and its endpoint check reads the rounds' certified end gap, so no
    # segment is evaluated away from t0.
    workload = workloads.WORKLOADS["tower-256"]
    segment_at = state_transport.PathSegment.at
    moved = []

    def counted(seg, t):
        if t != seg.t0:
            moved.append(t)
        return segment_at(seg, t)

    monkeypatch.setattr(state_transport.PathSegment, "at", counted)
    x = workload.inputs(1, True)[0]
    rec = workloads.run_op(state_transport, workload, x)
    assert not rec.failed, rec.failure_types()
    assert x["rounds"] == 3
    assert len(moved) == 0


def test_tower_op_takes_no_ambient_svd(monkeypatch):
    # Every SVD of the op, those numpy.linalg.norm(x, 2) takes for op_norm
    # included, is counted: the rounds, the final Ad sups and the assembled
    # path's bound read tensor splits at level 1, whose SVDs are of the
    # factors, so no ambient x ambient matrix is decomposed, in the tiny
    # pool or at full size.
    workload = workloads.WORKLOADS["tower-256"]
    inner = sys.modules.get("numpy.linalg._linalg") or sys.modules["numpy.linalg.linalg"]
    svd = inner.svd
    shapes = []

    def counted(a, *args, **kwargs):
        shapes.append(a.shape)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(inner, "svd", counted)
    monkeypatch.setattr(np.linalg, "svd", counted)
    for x in workload.inputs(1, True) + workload.inputs(1, False)[:1]:
        shapes.clear()
        rec = workloads.run_op(state_transport, workload, x)
        assert not rec.failed, rec.failure_types()
        assert shapes, "no SVD seen: the count does not reach op_norm"
        assert (x["ambient"], x["ambient"]) not in shapes


def test_tower_op_takes_no_norm_of_a_built_unitary(monkeypatch):
    # Every matrix the tower op certifies is 1_{s_1} (x) a factor whose norm
    # the defect rule bounds in closed form, and its path bound reads one
    # norm of the factor path: the op calls intertwine.op_norm not once,
    # takes no SVD of a matrix whose smaller side exceeds 16, and lifts no
    # factor to the ambient, in the tiny pool and at full size.
    workload = workloads.WORKLOADS["tower-256"]
    intertwine = state_transport.intertwine
    inner = sys.modules.get("numpy.linalg._linalg") or sys.modules["numpy.linalg.linalg"]
    svd, lift, op_norm = inner.svd, intertwine._lift, intertwine.op_norm
    norms, sides, lifted = [], [], []

    def counted_svd(a, *args, **kwargs):
        sides.append(min(a.shape))
        return svd(a, *args, **kwargs)

    def counted_lift(factor, s):
        lifted.append(s * len(factor))
        return lift(factor, s)

    monkeypatch.setattr(inner, "svd", counted_svd)
    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    monkeypatch.setattr(intertwine, "op_norm", lambda a: norms.append(a.shape) or op_norm(a))
    monkeypatch.setattr(intertwine, "_lift", counted_lift)
    for x in workload.inputs(1, True) + workload.inputs(1, False)[:1]:
        for counts in (norms, sides, lifted):
            counts.clear()
        rec = workloads.run_op(state_transport, workload, x)
        assert not rec.failed, rec.failure_types()
        assert sides and lifted, "the counts do not reach the op"
        assert norms == []
        assert max(sides) <= 16
        assert x["ambient"] not in lifted


def test_tower_op_evaluates_no_ambient_segment(monkeypatch):
    # The assembled path is 1_{s_1} (x) its factor path: its bound reads one
    # norm of the factor path and its endpoint check the rounds' certified
    # end gap, so no segment is evaluated and no generator is formed at
    # all, in the tiny pool and at full size.
    workload = workloads.WORKLOADS["tower-256"]
    segment = state_transport.PathSegment
    at, generator = segment.at, segment.generator
    calls = []

    def counted_at(seg, t):
        calls.append(("at", len(seg.base)))
        return at(seg, t)

    def counted_generator(seg):
        calls.append(("generator", len(seg.base)))
        return generator.fget(seg)

    monkeypatch.setattr(segment, "at", counted_at)
    monkeypatch.setattr(segment, "generator", property(counted_generator))
    for x in workload.inputs(1, True) + workload.inputs(1, False)[:1]:
        calls.clear()
        rec = workloads.run_op(state_transport, workload, x)
        assert not rec.failed, rec.failure_types()
        assert calls == []


def test_tower_rounds_measure_no_factor_and_lift_no_corner(monkeypatch):
    # The rounds multiply the products by blocks and chain their defects,
    # so on the full-size seed-1 op back_and_forth measures no defect of a
    # D / s_1-column matrix (a product, a segment's eigenvectors or a
    # combined product) and lifts no corner: each round measures only its
    # eigenvectors q, and the one lift is of the even product's factor,
    # held at level 2, to the returned level-1 factor.
    workload = workloads.WORKLOADS["tower-256"]
    intertwine = state_transport.intertwine
    back_and_forth = state_transport.back_and_forth
    defect, lift = intertwine._defect, intertwine._lift
    inside, results, defects, lifts = [False], [], [], []

    def kept(*args):
        inside[0] = True
        try:
            results.append(back_and_forth(*args))
        finally:
            inside[0] = False
        return results[-1]

    def counted_defect(a):
        if inside[0]:
            defects.append(a.shape)
        return defect(a)

    def counted_lift(a, s):
        if inside[0]:
            lifts.append((a, s))
        return lift(a, s)

    monkeypatch.setattr(state_transport, "back_and_forth", kept)
    monkeypatch.setattr(intertwine, "_defect", counted_defect)
    monkeypatch.setattr(intertwine, "_lift", counted_lift)
    x = workload.inputs(1, False)[0]
    rec = workloads.run_op(state_transport, workload, x)
    assert not rec.failed, rec.failure_types()
    (res,) = results
    size = x["ambient"] // res.level
    assert len(defects) == x["rounds"] == 6
    assert all(cols < size for _, cols in defects)
    assert [(a.shape, s) for a, s in lifts] == [((size // 2, size // 2), 2)]
    assert not any(a is c for a, _ in lifts for c in res.corners)


def test_tower_products_are_their_level_one_factors(monkeypatch):
    # The rounds run on factors at level 1: the tower op holds each product
    # as its factor, of size ambient / s_1, with 1_{s_1} (x) the factor
    # the product, in the tiny pool and at full size.
    workload = workloads.WORKLOADS["tower-256"]
    back_and_forth = state_transport.back_and_forth
    results = []

    def kept(*args):
        results.append(back_and_forth(*args))
        return results[-1]

    monkeypatch.setattr(state_transport, "back_and_forth", kept)
    for x in workload.inputs(1, True) + workload.inputs(1, False)[:1]:
        results.clear()
        rec = workloads.run_op(state_transport, workload, x)
        assert not rec.failed, rec.failure_types()
        (res,) = results
        s = res.level
        assert s == 2 == res.path.level
        size = x["ambient"] // s
        assert res.odd_factor.shape == res.even_factor.shape == (size, size)


def test_tower_round_is_one_corner_alignment():
    # A tower round is the alignment of its level's corner families: the
    # op calls align_unitary once per round, and no commutant_transport,
    # lift_columns or coefficients_of_state, in the tiny pool and at full
    # size.  Calls are counted by code object, however the function is
    # reached.
    workload = workloads.WORKLOADS["tower-256"]
    counted = {f.__code__: f.__name__ for f in (
        state_transport.gram.align_unitary,
        state_transport.transport.commutant_transport,
        state_transport.MatrixUnits.lift_columns,
        state_transport.MatrixUnits.coefficients_of_state,
    )}
    for x in workload.inputs(1, True) + workload.inputs(1, False)[:1]:
        calls = dict.fromkeys(counted.values(), 0)

        def profile(frame, event, arg):
            if event == "call" and frame.f_code in counted:
                calls[counted[frame.f_code]] += 1

        sys.setprofile(profile)
        try:
            rec = workloads.run_op(state_transport, workload, x)
        finally:
            sys.setprofile(None)
        assert not rec.failed, rec.failure_types()
        assert calls == {"align_unitary": x["rounds"], "commutant_transport": 0,
                         "lift_columns": 0, "coefficients_of_state": 0}


def test_tower_alignment_decomposes_at_most_its_frames_span(monkeypatch):
    # align_unitary compresses its rotation to the span of its two frames,
    # at most 2k x 2k with k <= min(s_n, D / s_n), so on the full-size op
    # no square SVD and no eigh taken while it runs exceeds 16 x 16: the
    # eigenpairs of the compressed rotation come from one eigh of its size.
    # Entries and exits of align_unitary are tracked by code object,
    # however it is reached.
    workload = workloads.WORKLOADS["tower-256"]
    code = state_transport.gram.align_unitary.__code__
    inner = sys.modules.get("numpy.linalg._linalg") or sys.modules["numpy.linalg.linalg"]
    depth = [0]
    shapes = {"svd": [], "eigh": []}

    def counting(name, f):
        def counted(a, *args, **kwargs):
            if depth[0] and a.shape[0] == a.shape[1]:
                shapes[name].append(a.shape[0])
            return f(a, *args, **kwargs)
        return counted

    svd = counting("svd", inner.svd)
    monkeypatch.setattr(inner, "svd", svd)
    monkeypatch.setattr(np.linalg, "svd", svd)
    monkeypatch.setattr(np.linalg, "eigh", counting("eigh", np.linalg.eigh))

    def profile(frame, event, arg):
        if frame.f_code is code:
            depth[0] += {"call": 1, "return": -1}.get(event, 0)

    x = workload.inputs(1, False)[0]
    sys.setprofile(profile)
    try:
        rec = workloads.run_op(state_transport, workload, x)
    finally:
        sys.setprofile(None)
    assert not rec.failed, rec.failure_types()
    assert depth[0] == 0
    assert shapes["svd"] and shapes["eigh"], \
        "no decomposition seen: the count does not reach align_unitary"
    assert max(shapes["svd"] + shapes["eigh"]) <= 16


def test_tower_op_measures_each_level_distance_once(monkeypatch):
    # back_and_forth reads every fixed element's distances from one table:
    # a generator the tower built is known at its level, so its table comes
    # from its factor with no D x D pass, while a copy of it takes one pass
    # over the D x D element and passes over its small factors.  The path
    # bound reads the same fixed set's level-1 distances from those tables
    # and its norm from the rounds, so it takes no pass, calls no _defect
    # and lifts nothing, in the tiny pool and at full size.
    workload = workloads.WORKLOADS["tower-256"]
    built = state_transport.AlgebraTower.level_generators
    intertwine, algebra = state_transport.intertwine, state_transport.algebra
    back_and_forth = state_transport.back_and_forth
    bound = intertwine.TowerPath.commutator_bound
    level_part, defect, lift = algebra._level_part, intertwine._defect, intertwine._lift
    phase, calls, sizes = [None], [], {}

    def within(name, f):
        def run(*args):
            phase[0] = name
            sizes[name] = len(args[-1] if name == "path" else args[3])
            try:
                return f(*args)
            finally:
                phase[0] = None
        return run

    def counting(name, f):
        def counted(a, *args):
            calls.append((phase[0], name, len(a)))
            return f(a, *args)
        return counted

    monkeypatch.setattr(state_transport, "back_and_forth", within("rounds", back_and_forth))
    monkeypatch.setattr(intertwine.TowerPath, "commutator_bound", within("path", bound))
    for module in (algebra, intertwine):
        monkeypatch.setattr(module, "_level_part", counting("_level_part", level_part))
    monkeypatch.setattr(intertwine, "_defect", counting("_defect", defect))
    monkeypatch.setattr(intertwine, "_lift", counting("_lift", lift))
    for x, copied in itertools.product(
            workload.inputs(1, True) + workload.inputs(1, False)[:1], (False, True)):
        calls.clear()
        with monkeypatch.context() as patch:
            if copied:  # the op's fixed set is [x.copy() for x in fixed]
                patch.setattr(state_transport.AlgebraTower, "level_generators",
                              lambda tower, n: [g.copy() for g in built(tower, n)])
            rec = workloads.run_op(state_transport, workload, x)
        assert not rec.failed, rec.failure_types()
        dim = x["ambient"]
        ambient = [where for where, name, n in calls if name == "_level_part" and n == dim]
        assert ambient.count("rounds") == (sizes["rounds"] if copied else 0)
        assert sizes["path"] > 0
        assert [name for where, name, _ in calls if where == "path"] == []


def test_integer_action_takes_one_eigh_of_its_generator_size(monkeypatch):
    # The joint eigenbasis is one eigh of a Hermitian part of the
    # generators' size and one eigh per coupled run of columns, so on the
    # full-size spectral-mid pool integer_action takes exactly one eigh of
    # its generators' size and every other of at most 4 columns, the widest
    # run on this pool.
    workload = workloads.WORKLOADS["spectral-mid"]
    integer_action, eigh = state_transport.integer_action, np.linalg.eigh
    inside, sizes = [False], []

    def counted_eigh(a, *args, **kwargs):
        if inside[0]:
            sizes[-1][1].append(a.shape[0])
        return eigh(a, *args, **kwargs)

    def counted_action(generators):
        inside[0] = True
        sizes.append((len(generators[0]), []))
        try:
            return integer_action(generators)
        finally:
            inside[0] = False

    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    monkeypatch.setattr(state_transport, "integer_action", counted_action)
    inputs = workload.inputs(1, False)
    for x in inputs:
        rec = workloads.run_op(state_transport, workload, x)
        assert not rec.failed, rec.failure_types()
    assert len(sizes) == len(inputs)
    for dim, eighs in sizes:
        assert eighs.count(dim) == 1
        assert all(size <= 4 for size in eighs if size != dim)


def test_op_norm_takes_no_svd_of_a_zero_matrix(monkeypatch):
    # A spectral-mid op takes operator norms of exact zeros: the z-block
    # defect of arc_transport.  op_norm returns 0.0 for those without an SVD, so
    # the SVDs taken inside op_norm are exactly its calls on nonzero
    # matrices.  Calls and their SVDs are matched by code object, however
    # op_norm is reached.
    workload = workloads.WORKLOADS["spectral-mid"]
    code = state_transport.linalg.op_norm.__code__
    inner = sys.modules.get("numpy.linalg._linalg") or sys.modules["numpy.linalg.linalg"]
    svd = inner.svd
    depth, calls, svds = [0], [], [0]

    def counted(a, *args, **kwargs):
        svds[0] += depth[0] > 0
        return svd(a, *args, **kwargs)

    def profile(frame, event, arg):
        if frame.f_code is code:
            if event == "call":
                depth[0] += 1
                calls.append(bool(np.any(frame.f_locals["x"])))
            elif event == "return":
                depth[0] -= 1

    monkeypatch.setattr(inner, "svd", counted)
    monkeypatch.setattr(np.linalg, "svd", counted)
    x = workload.inputs(1, False)[0]
    sys.setprofile(profile)
    try:
        rec = workloads.run_op(state_transport, workload, x)
    finally:
        sys.setprofile(None)
    assert not rec.failed, rec.failure_types()
    saved = calls.count(False)
    assert saved > 0 and calls.count(True) > 0
    assert svds[0] == calls.count(True)


def _run_spectral_mid_pool():
    """Every op of the full-size spectral-mid seed-1 pool, none failing."""
    workload = workloads.WORKLOADS["spectral-mid"]
    for x in workload.inputs(1, False):
        rec = workloads.run_op(state_transport, workload, x)
        assert not rec.failed, rec.failure_types()


def _flagged(monkeypatch, module, name, record=None):
    """Replace module.name by a wrapper that holds flag[0] True while it runs
    and passes each call's arguments to ``record``."""
    original, flag = getattr(module, name), [False]

    def wrapper(*args, **kwargs):
        if record is not None:
            record(*args)
        flag[0] = True
        try:
            return original(*args, **kwargs)
        finally:
            flag[0] = False

    monkeypatch.setattr(module, name, wrapper)
    return flag


def test_arc_stage_aligns_only_blocks_without_a_closed_form(monkeypatch):
    # A block of one unit (n = 1) or of multiplicity one (r = 1) takes a
    # closed-form rotation, so the stacked alignment core aligns each arc
    # block with n >= 2 and r >= 2 once and no other.
    blocks, aligned = [], []
    _flagged(monkeypatch, state_transport.circle, "_corner_rotations",
             lambda fx, fy, ranks: blocks.extend((fx.shape[1], int(r)) for r in ranks))
    _flagged(monkeypatch, state_transport.transport, "_alignment_rotation",
             lambda x, y: aligned.extend([x.shape[-2:]] * x.shape[0]))
    _run_spectral_mid_pool()
    assert {n for n, _ in blocks} >= {1, 2} and {r for _, r in blocks} >= {1, 2}
    assert sorted(aligned) == sorted((n, r) for n, r in blocks if n >= 2 and r >= 2)
    assert 0 < len(aligned) < len(blocks)


def test_compress_units_takes_no_eigh_wider_than_its_arc(monkeypatch):
    # The corner Grams of every arc are taken in one stacked eigh, m x m
    # for m the widest arc, not r x r for the block multiplicity r (32 to
    # 64 here).
    stacks, shapes = [], []
    inside = _flagged(monkeypatch, state_transport.circle, "_compress",
                      lambda w: stacks.append(w.shape))
    eigh = np.linalg.eigh

    def counted(a, *args, **kwargs):
        if inside[0]:
            shapes.append(a.shape)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    _run_spectral_mid_pool()
    assert len(stacks) == 6
    assert shapes == [(arcs, m, m) for arcs, m, _, _ in stacks]
    assert all(m < r for _, m, _, r in stacks)


def test_arc_stage_builds_no_units_and_no_transport_per_arc():
    # The arcs are compressed and transported as stacks: arc_transport
    # constructs no MatrixUnits, as a per-arc compression did, and calls
    # no _commutant_transport.  Calls are counted by code object while
    # arc_transport runs.
    counted = {state_transport.MatrixUnits.__init__.__code__: "units",
               state_transport.transport._commutant_transport.__code__: "transport"}
    outer = state_transport.circle.arc_transport.__code__
    depth, calls = [0], dict.fromkeys(counted.values(), 0)

    def profile(frame, event, arg):
        if frame.f_code is outer:
            depth[0] += {"call": 1, "return": -1}.get(event, 0)
        elif event == "call" and depth[0] and frame.f_code in counted:
            calls[counted[frame.f_code]] += 1

    sys.setprofile(profile)
    try:
        _run_spectral_mid_pool()
    finally:
        sys.setprofile(None)
    assert depth[0] == 0
    assert calls == {"units": 0, "transport": 0}


def test_arc_path_is_one_segment_built_once(monkeypatch):
    # The arcs' transports are summed into one segment from the identity:
    # arc_transport builds no other segment of the ambient size, as a lift
    # of each arc's path did, and the path it returns has one segment.
    code = state_transport.path.PathSegment.__init__.__code__
    original = state_transport.arc_transport
    running, built, segments = [], [], []

    def arc_transport(block, model, *args, **kwargs):
        running.append(model.dim)
        built.append(0)
        try:
            res = original(block, model, *args, **kwargs)
        finally:
            running.pop()
        segments.append(len(res.path.segments))
        return res

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is code and running:
            built[-1] += len(frame.f_locals["base"]) == running[-1]

    monkeypatch.setattr(state_transport, "arc_transport", arc_transport)
    sys.setprofile(profile)
    try:
        _run_spectral_mid_pool()
    finally:
        sys.setprofile(None)
    assert len(segments) == 6
    assert segments == built == [1] * 6


def test_orthogonal_leg_takes_no_svd_of_the_flip_size(monkeypatch):
    # _flip_gates certifies the flip's norm from its factors' Gram
    # numbers, so the leg averages it without the dim x dim SVD of
    # average_conjugates' gate; the SVDs it does take are of the orbit
    # factors, dim x |F| at most.
    dims, shapes = [], []
    inside = _flagged(monkeypatch, state_transport.group, "_orthogonal_leg",
                      lambda action, *args: dims.append(action.dim))
    inner = sys.modules.get("numpy.linalg._linalg") or sys.modules["numpy.linalg.linalg"]
    svd = inner.svd

    def counted(a, *args, **kwargs):
        if inside[0]:
            shapes.append((dims[-1], np.shape(a)))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(inner, "svd", counted)
    monkeypatch.setattr(np.linalg, "svd", counted)
    _run_spectral_mid_pool()
    assert len(dims) == 6 and shapes
    assert all(shape != (dim, dim) for dim, shape in shapes)


def test_group_leg_forms_no_dense_rep_and_one_eigvalsh_per_pair(monkeypatch):
    # A Z^d leg works in the joint eigenbasis from its orbits to its
    # certificate: group_state_transport builds no rep(g), takes one
    # dim x dim eigh per leg, one dim x dim eigvalsh per leg and +- pair of
    # generators (the op passes (1,) and (-1,)) and no dim x dim SVD, and,
    # like arc_transport, evaluates no segment: its errors apply the path
    # to vectors.
    calls = []
    group = _flagged(monkeypatch, state_transport, "group_state_transport",
                     lambda action, *args: calls.append((action.dim, [], [], [], [])))
    arcs = _flagged(monkeypatch, state_transport, "arc_transport")
    rep, segment_at = state_transport.GroupAction.rep, state_transport.PathSegment.at
    inner = sys.modules.get("numpy.linalg._linalg") or sys.modules["numpy.linalg.linalg"]
    svd, eigh, eigvalsh, evaluated = inner.svd, np.linalg.eigh, np.linalg.eigvalsh, []

    def counted(record, f):
        def wrapper(a, *args, **kwargs):
            if group[0] and np.shape(a) == (calls[-1][0],) * 2:
                calls[-1][record].append(np.shape(a))
            return f(a, *args, **kwargs)
        return wrapper

    def counted_rep(action, g):
        if group[0]:
            calls[-1][1].append(g)
        return rep(action, g)

    def counted_at(seg, t):
        if group[0] or arcs[0]:
            evaluated.append(t)
        return segment_at(seg, t)

    monkeypatch.setattr(state_transport.GroupAction, "rep", counted_rep)
    monkeypatch.setattr(state_transport.PathSegment, "at", counted_at)
    monkeypatch.setattr(inner, "svd", counted(2, svd))
    monkeypatch.setattr(np.linalg, "svd", counted(2, svd))
    monkeypatch.setattr(np.linalg, "eigh", counted(3, eigh))
    monkeypatch.setattr(np.linalg, "eigvalsh", counted(4, eigvalsh))
    _run_spectral_mid_pool()
    assert len(calls) == 6
    for dim, reps, svds, eighs, eigvalshs in calls:
        assert reps == []
        assert svds == [] and len(eighs) == 1 and len(eigvalshs) == 1
    assert evaluated == []
