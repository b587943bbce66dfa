"""State-transport benchmark: certified transports per second, per workload.

    python3 perfbench/run.py --workload small-certs --seed 1 --seconds 32 --trace 0

Each workload runs as a closed loop with one client in one single-threaded
process (BLAS pinned to one thread, ``STATE_TRANSPORT_THREADS`` unset): each
op starts when the previous one ends.  The run makes the whole passes over the
seed's instance pool that take about ``--seconds`` on the reference host, so
the op count does not depend on a clock.  Every op's certificates are checked;
an op fails if a certificate misses its bound or if it raises.

``--trace 0`` measures the end-to-end metrics.  Set-up (from process start
through import, input generation and one warm-up op to the first timed op) is
measured in five fresh processes and reported as their median; the last of
them then runs the timed passes.  ``--trace 1`` runs a fixed op set untraced and
then traced, and reports the per-layer metrics, so counts repeat exactly.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The command exits
non-zero without printing it if a process fails or if the inputs do not
regenerate identically in every process.  This file uses the standard
library only; the numerics run in ``worker.py``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

from tracer import PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("small-certs", "spectral-mid", "tower-256")
SETUP_PROCESSES = 5
RUN_BUDGET_S = 170.0  # every process is killed by then, and the run fails
TAIL_BEYOND = 10

END_TO_END = {
    "setup_s": "s",
    "throughput_ops_s": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """A benchmark process failed; no result may be printed."""


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("STATE_TRANSPORT_THREADS", None)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(args, setup_only: bool, deadline: float) -> tuple[float, dict, dict]:
    """Start one worker; return (set-up seconds, READY payload, RESULT payload)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.tiny:
        cmd.append("--tiny")
    if setup_only:
        cmd.append("--setup-only")
    started = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            text=True)
    killer = threading.Timer(max(deadline - started, 0.0), proc.kill)
    killer.start()
    setup_s, ready, result = None, None, None
    try:
        for line in proc.stdout:
            tag, _, payload = line.partition(" ")
            if tag == "READY":
                setup_s = perf_counter() - started
                ready = json.loads(payload)
            elif tag == "RESULT":
                result = json.loads(payload)
            else:
                sys.stdout.write(line)
    finally:
        killer.cancel()
        proc.kill()
        code = proc.wait()
        proc.stdout.close()
    if ready is None or (not setup_only and result is None) or (setup_only and code):
        raise BenchError(f"worker exited with code {code} before finishing: {cmd}")
    return setup_s, ready, result


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with at least TAIL_BEYOND samples
    beyond it, that percentile and the samples beyond.  With at most
    2 * TAIL_BEYOND samples that percentile is at or below the median, so
    the maximum is reported instead."""
    xs = sorted(latencies)
    n = len(xs)
    k = n - TAIL_BEYOND - 1 if n > 2 * TAIL_BEYOND else n - 1
    return xs[k], 100.0 * (k + 1) / n, n - k - 1


def end_to_end(args, deadline: float) -> tuple[dict, dict, list[str]]:
    setups, digests = [], set()
    for _ in range(SETUP_PROCESSES - 1):
        setup_s, ready, _ = run_worker(args, True, deadline)
        setups.append(setup_s)
        digests.add(ready["digest"])
    setup_s, ready, res = run_worker(args, False, deadline)
    setups.append(setup_s)
    digests.add(ready["digest"])
    if len(digests) != 1:
        raise BenchError(f"inputs differ between processes: {sorted(digests)}")
    lat = res["latencies"]
    tail_s, tail_pct, beyond = tail(lat)
    metrics = {
        "setup_s": statistics.median(setups),
        "throughput_ops_s": res["attempted"] / res["wall_s"],
        "latency_p50_s": statistics.median(lat),
        "latency_tail_s": tail_s,
        "peak_rss_mb": res["peak_rss_mb"],
    }
    notes = {
        "setup_s": f"median of {len(setups)} processes: "
                   + ", ".join(f"{s:.4f}" for s in setups),
        "throughput_ops_s": f"{res['attempted']} ops in {res['wall_s']:.3f} s",
        "latency_p50_s": f"n={len(lat)}",
        "latency_tail_s": f"p{tail_pct:.1f}, n={len(lat)}, {beyond} beyond",
    }
    lines = [f"env {json.dumps(ready['env'], sort_keys=True)}",
             f"inputs sha256={ready['digest']} instances={ready['instances']} "
             f"(identical in {SETUP_PROCESSES} processes)"]
    for name, unit in END_TO_END.items():
        note = f"  ({notes[name]})" if name in notes else ""
        lines.append(f"{name} {metrics[name]!r} {unit}{note}")
    ratio = res["failed"] / res["attempted"]
    lines.append(f"failed_ratio {ratio!r} ratio  ({res['failed']} of "
                 f"{res['attempted']}; by type {json.dumps(res['failures'], sort_keys=True)})")
    return metrics, res, lines


def per_layer(args, deadline: float) -> tuple[dict, dict, list[str], bool]:
    _, ready, res = run_worker(args, False, deadline)
    pl = res["per_layer"]
    metrics = {name: pl[name] for name in PER_LAYER}
    lines = [f"env {json.dumps(ready['env'], sort_keys=True)}",
             f"inputs sha256={ready['digest']} instances={ready['instances']}"]
    lines += [f"{name} {metrics[name]!r} {unit}" for name, unit in PER_LAYER.items()]
    lines.append(f"trace ops={res['attempted']} failed_traced={res['failed']} "
                 f"failed_untraced={res['failed_untraced']} "
                 f"op_wall_s={pl['op_wall_s']!r} "
                 f"layer_self_sum_s={pl['layer_self_sum_s']!r} "
                 f"spans={res['trace_file']}")
    consistent = (res["failed"] == res["failed_untraced"]
                  and pl["layer_self_sum_s"] <= pl["op_wall_s"])
    return metrics, res, lines, consistent


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="small instances, for the benchmark's self-test")
    args = ap.parse_args(argv)
    if not (args.seconds > 0 and math.isfinite(args.seconds)):
        ap.error("--seconds must be a positive number")
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}" + (" tiny" if args.tiny else ""))
    deadline = perf_counter() + RUN_BUDGET_S
    try:
        if args.trace:
            metrics, res, lines, correct = per_layer(args, deadline)
            units = PER_LAYER
        else:
            metrics, res, lines = end_to_end(args, deadline)
            correct, units = True, END_TO_END
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
