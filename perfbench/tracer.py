"""Outside-in span tracer for the state_transport layers.

The library is not modified.  ``Tracer.install`` replaces, at run time, every
public function of each layer module and every public method, property and
classmethod of the classes those modules define, with a wrapper that records
a span.  Names re-bound into sibling modules by ``from .x import y`` are
replaced too, since the library calls them through those bindings.  The
numpy/scipy factorizations the layers use are wrapped the same way, in the
numpy and scipy modules that call them internally (``numpy.linalg.norm(x, 2)``
reaches ``svd`` through ``numpy.linalg._linalg``).

Spans (name, layer, start, end, parent, op id) are kept in memory; ``write``
stores them when the run ends.  Self time is a span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import fnmatch
import functools
import gzip
import json
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("linalg", "path", "algebra", "gram", "transport", "circle", "group",
          "intertwine", "serialize")

# Factorizations counted per LAPACK family; eigvalsh is the eigh driver
# without vectors.
FACTORIZATIONS = {
    "eigh": ("numpy.linalg", ("eigh", "eigvalsh")),
    "svd": ("numpy.linalg", ("svd",)),
    "eig": ("numpy.linalg", ("eig",)),
    "inv": ("numpy.linalg", ("inv",)),
    "schur": ("scipy.linalg", ("schur",)),
}


def _observe_geodesic(out):
    return len(out.segments)


def _observe_arcs(out):
    return (sum(1 for r in out.rows if not r.skipped), len(out.rows))


def _observe_folner(out):
    return len(out.folner.elements)


# Results inspected for the ratio metrics, by qualified name.
OBSERVERS = {
    "geodesic_pair": _observe_geodesic,
    "arc_transport": _observe_arcs,
    "group_state_transport": _observe_folner,
}


def _n3(args) -> int:
    """m * n * min(m, n) per matrix of the first argument (n^3 when square)."""
    shape = getattr(args[0], "shape", ()) if args else ()
    if len(shape) < 2:
        return 0
    m, n = shape[-2], shape[-1]
    batch = 1
    for s in shape[:-2]:
        batch *= s
    return batch * m * n * min(m, n)


class Tracer:
    """Records spans of wrapped calls; single-threaded."""

    def __init__(self):
        self.spans: list = []  # (name, layer, t0, t1, parent, op, n3)
        self.observed: dict = defaultdict(list)
        self.op = -1
        self._op_start = 0.0
        self._stack: list[int] = []
        self._undo: list = []

    # ------------------------------------------------------------ wrapping

    def _wrap(self, fn, name: str, layer: str, lapack: bool = False):
        spans, stack = self.spans, self._stack
        observer = OBSERVERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[sid] = (name, layer, t0, t1, parent, tracer.op,
                              _n3(args) if lapack else 0)
            if observer is not None:
                try:
                    tracer.observed[name].append(observer(out))
                except Exception:  # an observer must never change the run
                    pass
            return out

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, package: str = "state_transport") -> "Tracer":
        replaced: dict[int, tuple] = {}  # id(original) -> (original, wrapper)
        for layer in LAYERS:
            mod = sys.modules[f"{package}.{layer}"]
            for attr, val in list(vars(mod).items()):
                if attr.startswith("_") or getattr(val, "__module__", None) != mod.__name__:
                    continue
                if isinstance(val, type):
                    self._wrap_class(val, layer)
                elif callable(val):
                    replaced[id(val)] = (val, self._wrap(val, attr, layer))
        for modname, attrs in FACTORIZATIONS.values():
            mod = sys.modules[modname]
            for attr in attrs:
                fn = getattr(mod, attr)
                replaced[id(fn)] = (fn, self._wrap(fn, attr, "lapack", lapack=True))
        prefixes = (package, "numpy.linalg", "scipy.linalg")
        for modname, mod in list(sys.modules.items()):
            if mod is None or not modname.startswith(prefixes):
                continue
            for attr, val in list(vars(mod).items()):
                hit = replaced.get(id(val))
                if hit is not None and hit[0] is val:
                    self._set(mod, attr, hit[1])
        return self

    def _wrap_class(self, cls: type, layer: str) -> None:
        for attr, val in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{cls.__name__}.{attr}"
            if isinstance(val, property) and val.fget is not None:
                self._set(cls, attr, property(self._wrap(val.fget, name, layer),
                                              val.fset, val.fdel, val.__doc__))
            elif isinstance(val, classmethod):
                self._set(cls, attr, classmethod(self._wrap(val.__func__, name, layer)))
            elif isinstance(val, staticmethod):
                self._set(cls, attr, staticmethod(self._wrap(val.__func__, name, layer)))
            elif callable(val) and not isinstance(val, type):
                self._set(cls, attr, self._wrap(val, name, layer))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, val = self._undo.pop()
            setattr(owner, attr, val)

    # ------------------------------------------------------- op root spans

    def begin_op(self, op: int) -> int:
        self.op = op
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append(sid)
        self._op_start = perf_counter()
        return sid

    def end_op(self, sid: int) -> None:
        t1 = perf_counter()
        self._stack.pop()
        self.spans[sid] = ("op", "bench", self._op_start, t1, -1, self.op, 0)

    def write(self, path) -> None:
        with gzip.open(path, "wt") as fh:
            for sid, (name, layer, t0, t1, parent, op, n3) in enumerate(self.spans):
                fh.write(json.dumps([sid, name, layer, t0, t1, parent, op, n3]) + "\n")


# ------------------------------------------------------------- metrics

# Function metrics: metric prefix -> qualified-name patterns, matched in the
# layer the prefix names.
FUNCTIONS = {
    "linalg.expm_skew": ("expm_skew",),
    "linalg.op_norm": ("op_norm",),
    "linalg.unitary_eig": ("unitary_eig",),
    "linalg.check_hermitian": ("check_hermitian",),
    "linalg.check_unitary": ("check_unitary",),
    "path.segment_at": ("PathSegment.at",),
    "path.length": ("UnitaryPath.length",),
    "path.speed": ("PathSegment.speed",),
    "path.merge_orthogonal_paths": ("merge_orthogonal_paths",),
    "algebra.unit": ("*.unit",),
    "algebra.embed": ("*.embed",),
    "algebra.coefficients_of_state": ("*.coefficients_of_state",),
    "gram.gram_complete": ("gram_complete",),
    "gram.align_unitary": ("align_unitary",),
    "gram.alignment_bound": ("alignment_bound",),
    "transport.geodesic_pair": ("geodesic_pair",),
    "transport.geodesic_lower_bound": ("geodesic_lower_bound",),
    "transport.projection_transport": ("projection_transport",),
    "transport.spectrum_match": ("spectrum_match",),
    "transport.commutant_transport": ("commutant_transport",),
    "transport.invert_alignment_bound": ("invert_alignment_bound",),
    "circle.from_unitary": ("SpectralModel.from_unitary",),
    "circle.circle_partition": ("circle_partition",),
    "circle.arc_transport": ("arc_transport",),
    "group.rep": ("GroupAction.rep",),
    "group.average_conjugates": ("average_conjugates",),
    "group.group_state_transport": ("group_state_transport",),
    "intertwine.back_and_forth": ("back_and_forth",),
    "intertwine.assemble_path": ("assemble_path",),
    "intertwine.assembled_commutation_sup": ("assembled_commutation_sup",),
    "serialize.dumps_report": ("dumps_report",),
}

# The function metrics reported, out of the .calls and .self_s of FUNCTIONS.
REPORTED_FUNCTION_METRICS = (
    "linalg.expm_skew.calls", "linalg.expm_skew.self_s",
    "linalg.op_norm.calls", "linalg.op_norm.self_s",
    "linalg.unitary_eig.calls", "linalg.unitary_eig.self_s",
    "linalg.check_hermitian.self_s", "linalg.check_unitary.self_s",
    "path.segment_at.calls", "path.length.calls", "path.speed.calls",
    "path.merge_orthogonal_paths.self_s",
    "algebra.unit.calls", "algebra.embed.calls", "algebra.coefficients_of_state.calls",
    "gram.gram_complete.calls", "gram.align_unitary.calls", "gram.align_unitary.self_s",
    "gram.alignment_bound.calls",
    "transport.geodesic_pair.calls", "transport.geodesic_pair.self_s",
    "transport.geodesic_lower_bound.self_s", "transport.projection_transport.self_s",
    "transport.spectrum_match.self_s", "transport.commutant_transport.calls",
    "transport.commutant_transport.self_s", "transport.invert_alignment_bound.calls",
    "circle.from_unitary.self_s", "circle.circle_partition.self_s",
    "circle.arc_transport.self_s",
    "group.rep.calls", "group.rep.self_s", "group.average_conjugates.self_s",
    "group.group_state_transport.self_s",
    "intertwine.back_and_forth.self_s", "intertwine.assemble_path.self_s",
    "intertwine.assembled_commutation_sup.self_s",
    "serialize.dumps_report.self_s",
)


def _per_layer_units() -> dict[str, str]:
    units: dict[str, str] = {}
    for layer in LAYERS + ("lapack",):
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
    for metric in REPORTED_FUNCTION_METRICS:
        units[metric] = "count" if metric.endswith(".calls") else "s"
    for family in FACTORIZATIONS:
        units[f"lapack.{family}.calls"] = "count"
    units.update({
        "lapack.n3_total": "count",
        "linalg.validation_share": "ratio",
        "path.segments_per_geodesic": "count",
        "transport.bound_evals_per_inversion": "count",
        "circle.arcs_transported_ratio": "ratio",
        "group.folner_elements": "count",
        "transport.worst_slack": "ratio",
        "circle.worst_slack": "ratio",
        "group.worst_slack": "ratio",
        "intertwine.worst_slack": "ratio",
        "trace_overhead_ratio": "ratio",
    })
    return units


# Per-layer metrics of the traced run, name -> unit, in print order.
PER_LAYER = _per_layer_units()


def _matches(qualname: str, patterns) -> bool:
    return any(fnmatch.fnmatchcase(qualname, p) for p in patterns)


def summarize(tracer: Tracer) -> dict:
    """Per-layer metrics of the recorded spans (all but slack and overhead),
    plus ``op_wall_s`` and ``layer_self_sum_s`` for the self-test."""
    spans = tracer.spans
    children = [0.0] * len(spans)
    for name, layer, t0, t1, parent, op, n3 in spans:
        if parent >= 0:
            children[parent] += t1 - t0
    calls: dict = defaultdict(int)
    self_s: dict = defaultdict(float)
    by_name_calls: dict = defaultdict(int)
    by_name_self: dict = defaultdict(float)
    n3_total = 0
    op_wall = 0.0
    in_linalg = [False] * len(spans)  # has a linalg ancestor
    in_check = [False] * len(spans)  # has a linalg check_* ancestor
    linalg_incl = check_incl = 0.0
    evals_in_inversion = 0
    for sid, (name, layer, t0, t1, parent, op, n3) in enumerate(spans):
        dur = t1 - t0
        if layer == "bench":
            op_wall += dur
            continue
        calls[layer] += 1
        self_s[layer] += dur - children[sid]
        by_name_calls[(layer, name)] += 1
        by_name_self[(layer, name)] += dur - children[sid]
        n3_total += n3
        if parent >= 0:
            p_name, p_layer = spans[parent][0], spans[parent][1]
            in_linalg[sid] = in_linalg[parent] or p_layer == "linalg"
            in_check[sid] = in_check[parent] or (
                p_layer == "linalg" and p_name.startswith("check_"))
            if name == "alignment_bound" and p_name == "invert_alignment_bound":
                evals_in_inversion += 1
        if layer == "linalg":
            if not in_linalg[sid]:
                linalg_incl += dur
            if name.startswith("check_") and not in_check[sid]:
                check_incl += dur

    out: dict = {}
    for layer in LAYERS + ("lapack",):
        out[f"{layer}.calls"] = calls[layer]
        out[f"{layer}.self_s"] = self_s[layer]
    for prefix, patterns in FUNCTIONS.items():
        layer = prefix.split(".")[0]
        keys = [k for k in by_name_calls if k[0] == layer and _matches(k[1], patterns)]
        out[f"{prefix}.calls"] = sum(by_name_calls[k] for k in keys)
        out[f"{prefix}.self_s"] = sum(by_name_self[k] for k in keys)
    for family, (_, names) in FACTORIZATIONS.items():
        out[f"lapack.{family}.calls"] = sum(by_name_calls[("lapack", n)] for n in names)
    out["lapack.n3_total"] = n3_total
    out["linalg.validation_share"] = check_incl / linalg_incl if linalg_incl else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    obs = tracer.observed
    out["path.segments_per_geodesic"] = ratio(
        sum(obs["geodesic_pair"]), out["transport.geodesic_pair.calls"])
    out["transport.bound_evals_per_inversion"] = ratio(
        evals_in_inversion, out["transport.invert_alignment_bound.calls"])
    out["circle.arcs_transported_ratio"] = ratio(
        sum(a for a, _ in obs["arc_transport"]), sum(b for _, b in obs["arc_transport"]))
    out["group.folner_elements"] = ratio(
        sum(obs["group_state_transport"]), len(obs["group_state_transport"]))
    out["op_wall_s"] = op_wall
    out["layer_self_sum_s"] = sum(self_s.values())
    return out
