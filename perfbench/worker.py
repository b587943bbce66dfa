"""One benchmark process: set up a workload, then run its timed passes.

Started by ``run.py``; prints ``READY <json>`` once set-up (import, input
generation, one warm-up op) is done and ``RESULT <json>`` at the end.  With
``--setup-only`` it exits after READY.  Single-threaded: BLAS is pinned to one
thread before numpy is imported.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("STATE_TRANSPORT_THREADS", None)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from tracer import Tracer, summarize  # noqa: E402
from workloads import WORKLOADS, digest, run_op  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
TRACE_DIR = ROOT / ".perfbench_out"


def emit(tag: str, payload: dict) -> None:
    sys.stdout.write(f"{tag} {json.dumps(payload)}\n")
    sys.stdout.flush()


def import_library():
    """Import state_transport from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import state_transport
    import state_transport.serialize  # noqa: F401  (not imported by the package)

    where = Path(state_transport.__file__).resolve()
    if src.resolve() not in where.parents:
        raise SystemExit(f"state_transport imported from {where}, not from {src}")
    return state_transport


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "threads": {v: os.environ.get(v) for v in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "STATE_TRANSPORT_THREADS")},
    }


def run_ops(st, workload, pool, indices, tracer=None):
    """Run the ops on pool[i] for each i; return (latencies, records)."""
    latencies, records = [], []
    for i in indices:
        sid = tracer.begin_op(i) if tracer else None
        t0 = perf_counter()
        try:
            rec = run_op(st, workload, pool[i % len(pool)])
        finally:
            latencies.append(perf_counter() - t0)
            if tracer:
                tracer.end_op(sid)
        records.append(rec)
    return latencies, records


def failure_counts(records) -> dict:
    return dict(Counter(t for r in records if r.failed for t in set(r.failure_types())))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    st = import_library()
    workload = WORKLOADS[args.workload]
    pool = workload.inputs(args.seed, args.tiny)
    sha = digest(pool)
    if digest(workload.inputs(args.seed, args.tiny)) != sha:
        print("inputs did not regenerate identically", file=sys.stderr)
        return 3
    # The warm-up op runs on the workload's small instance: it loads every
    # code path the timed ops use without making set-up time mostly op time
    # (a tower-256 op takes about 4.5 s).
    run_ops(st, workload, workload.inputs(args.seed, True), [0])
    emit("READY", {"digest": sha, "instances": len(pool), "env": environment()})
    if args.setup_only:
        return 0

    if args.trace:
        return traced_run(st, workload, pool, args)
    start = perf_counter()
    latencies, records = run_ops(st, workload, pool,
                                 range(workload.passes(args.seconds) * len(pool)))
    wall = perf_counter() - start
    emit("RESULT", {
        "wall_s": wall,
        "latencies": latencies,
        "attempted": len(records),
        "failed": sum(r.failed for r in records),
        "failures": failure_counts(records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    return 0


def traced_run(st, workload, pool, args) -> int:
    """A fixed op set, untraced then traced, so counts repeat exactly."""
    indices = range(workload.traced_ops)
    t0 = perf_counter()
    _, plain = run_ops(st, workload, pool, indices)
    plain_wall = perf_counter() - t0
    tracer = Tracer().install()
    try:
        t0 = perf_counter()
        _, traced = run_ops(st, workload, pool, indices, tracer)
        traced_wall = perf_counter() - t0
    finally:
        tracer.uninstall()
    metrics = summarize(tracer)
    slack: dict = {}
    for rec in traced:
        for layer, s in rec.slack_by_layer().items():
            slack[layer] = max(slack.get(layer, 0.0), s)
    for layer in ("transport", "circle", "group", "intertwine"):
        metrics[f"{layer}.worst_slack"] = slack.get(layer, 0.0)
    metrics["trace_overhead_ratio"] = traced_wall / plain_wall
    TRACE_DIR.mkdir(exist_ok=True)
    size = "-tiny" if args.tiny else ""
    trace_file = TRACE_DIR / f"{args.workload}-seed{args.seed}{size}.jsonl.gz"
    tracer.write(trace_file)
    emit("RESULT", {
        "attempted": len(traced),
        "failed": sum(r.failed for r in traced),
        "failed_untraced": sum(r.failed for r in plain),
        "failures": failure_counts(traced),
        "per_layer": metrics,
        "trace_file": str(trace_file.relative_to(ROOT)),
    })
    return 0


if __name__ == "__main__":
    sys.exit(main())
