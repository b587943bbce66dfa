"""Command-line front end: run operations from JSON configs and execute the
verification suites.  All numerics live in the library modules."""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import serialize
from .algebra import full_matrix_units
from .circle import SpectralModel, arc_transport
from .errors import ParameterError, StateTransportError
from .gram import gram_complete, gram_matrix
from .group import group_state_transport
from .intertwine import (
    assemble_path,
    assembled_commutation_sup,
    back_and_forth,
    build_tower,
    make_schedule,
)
from .suites import SUITE_NAMES, intertwine_instance, run_suite
from .transport import (
    commutant_transport,
    geodesic_angle,
    geodesic_pair,
    projection_transport,
)

EXIT_PASS = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="state-transport",
        description="state transport constructions and verification suites",
    )
    sub = parser.add_subparsers(dest="mode")

    run_p = sub.add_parser("run", help="run one operation from a JSON config")
    run_p.add_argument("--config", required=True)
    run_p.add_argument("--out", default=None)
    run_p.add_argument("--csv", default=None)
    run_p.add_argument("--seed", type=int, default=None)

    ver_p = sub.add_parser("verify", help="run a module verification suite")
    ver_p.add_argument("--suite", required=True, choices=sorted(SUITE_NAMES))
    ver_p.add_argument("--seed", type=int, default=0)
    ver_p.add_argument("--instances", type=int, default=20)
    ver_p.add_argument("--out", default=None)

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_PASS
    if args.mode == "run":
        return _cmd_run(args)
    if args.mode == "verify":
        return _cmd_verify(args)
    parser.print_usage(sys.stderr)
    return EXIT_USAGE


def _cmd_run(args) -> int:
    try:
        with open(args.config) as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.seed is not None:
        config["seed"] = args.seed
    command = config.get("command")
    handler = _RUN_HANDLERS.get(command)
    if handler is None:
        print(f"error: unknown command {command!r}", file=sys.stderr)
        return EXIT_USAGE
    try:
        measured, bounds, csv_data = handler(config)
        ok = all(
            measured[k] <= bounds[k] for k in bounds if k in measured
        )
        report = {
            "command": command,
            "measured": measured,
            "bounds": bounds,
            "pass": bool(ok),
        }
    except (KeyError, TypeError, ParameterError) as exc:
        return _bad_config(command, exc)
    except StateTransportError as exc:
        report = {
            "command": command,
            "measured": {},
            "bounds": {},
            "pass": False,
            "violated_hypothesis": f"{type(exc).__name__}: {exc}",
        }
        ok = False
        csv_data = None
    except ValueError as exc:
        return _bad_config(command, exc)
    text = serialize.dumps_report(report)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if args.csv and csv_data is not None:
        serialize.write_csv(args.csv, csv_data[0], csv_data[1])
    return EXIT_PASS if ok else EXIT_VIOLATION


def _bad_config(command, exc) -> int:
    print(f"error: bad config for {command!r}: {exc}", file=sys.stderr)
    return EXIT_USAGE


def _cmd_verify(args) -> int:
    summary = run_suite(args.suite, args.seed, args.instances)
    text = serialize.dumps_report(summary)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_PASS if summary.get("pass") else EXIT_VIOLATION


def _path_csv(path, xi, eta):
    header = ["t", "distance_to_target", "length_so_far"]
    rows = []
    total = path.length
    ts = path.sample_times(33)
    for t, u in zip(ts, path.at_times(ts)):
        frac = 0.0
        if path.t_end > path.t_start:
            frac = (t - path.t_start) / (path.t_end - path.t_start)
        rows.append([
            float(t),
            float(np.linalg.norm(u @ xi - eta)),
            float(frac * total),
        ])
    return header, rows


def _run_gram(config):
    fam = serialize.decode_family(config["family"])
    target = serialize.decode_gram_target(config["target"])
    out = gram_complete(fam, target)
    err = float(np.max(np.abs(gram_matrix(out) - target.c)))
    return {"gram_error": err}, {"gram_error": 1e-10}, None


def _run_geodesic(config):
    xi = serialize.decode_vector(config["xi"])
    eta = serialize.decode_vector(config["eta"])
    path = geodesic_pair(xi, eta)
    theta = geodesic_angle(xi, eta)
    measured = {
        "length": path.length,
        "length_error": abs(path.length - theta),
        "terminal_error": float(np.linalg.norm(path.end() @ xi - eta)),
    }
    bounds = {"length_error": 1e-8, "terminal_error": 1e-8}
    return measured, bounds, _path_csv(path, xi, eta)


def _run_projection(config):
    e = serialize.decode_matrix(config["e"])
    xi = serialize.decode_vector(config["xi"])
    eta = serialize.decode_vector(config["eta"])
    path = projection_transport(e, xi, eta)
    comm = path.commutator_bound([e])
    measured = {"length": path.length, "projection_commutator": comm}
    bounds = {"length": np.pi / 2 + 1e-8, "projection_commutator": 1e-9}
    return measured, bounds, _path_csv(path, xi, eta)


def _run_commutant(config):
    n = int(config["n"])
    multiplicity = int(config["multiplicity"])
    mu = full_matrix_units(n, multiplicity)
    xi = serialize.decode_vector(config["xi"])
    eta = serialize.decode_vector(config["eta"])
    eps = float(config["eps"])
    res = commutant_transport(mu, xi, eta, eps)
    units = [mu.unit(i, j) for i in range(n) for j in range(n)]
    comm = res.path.commutator_bound(units)
    measured = {
        "terminal_error": res.terminal_error,
        "unit_commutator": comm,
        "statistics_gap": res.measured_gap,
    }
    bounds = {"terminal_error": eps, "unit_commutator": 1e-9}
    return measured, bounds, _path_csv(res.path, xi, eta)


def _run_circle(config):
    z = serialize.decode_matrix(config["z"])
    model = SpectralModel.from_unitary(z)
    k = int(config["block_n"])
    block = full_matrix_units(k, model.dim // k, model.dim)
    xi = serialize.decode_vector(config["xi"])
    eta = serialize.decode_vector(config["eta"])
    eps = float(config["eps"])
    res = arc_transport(block, model, xi, eta, [], eps)
    measured = {
        "terminal_error": res.terminal_error,
        "z_commutator": res.z_commutator_sup,
    }
    bounds = {
        "terminal_error": res.terminal_bound,
        "z_commutator": res.z_commutator_bound,
    }
    header = ["arc", "mass_xi", "mass_eta", "skipped", "terminal_contribution"]
    rows = [
        [r.index, r.mass_xi, r.mass_eta, r.skipped, r.terminal_contribution]
        for r in res.rows
    ]
    return measured, bounds, (header, rows)


def _run_group(config):
    action = serialize.decode_group_action(config["action"])
    xi = serialize.decode_vector(config["xi"])
    eta = serialize.decode_vector(config["eta"])
    gens = [tuple(g) if isinstance(g, list) else g for g in config["gens"]]
    eps = float(config["eps"])
    res = group_state_transport(action, xi, eta, gens, eps)
    measured = {
        "terminal_error": res.terminal_error,
        "generator_commutator": res.commutator_sup,
    }
    bounds = {
        "terminal_error": res.terminal_bound,
        "generator_commutator": res.commutator_bound,
    }
    return measured, bounds, _path_csv(res.path, xi, eta)


def _run_intertwine(config):
    rng = np.random.default_rng(int(config.get("seed", 0)))
    branchings = config.get("branchings", [2] * 8)
    ambient = int(config.get("ambient", 256))
    eps = float(config.get("eps", 0.1))
    rounds = int(config.get("rounds", 6))
    # Rounds outside 1 <= rounds <= depth raise here, before the instance
    # reads level ``rounds``.
    schedule = make_schedule(build_tower(branchings, ambient), eps, rounds)
    # The states agree exactly on every level a round aligns.
    tower, xi, eta = intertwine_instance(
        rng, ambient=ambient, branchings=branchings, commutant_level=rounds, twist=0.0,
    )
    fixed = tower.level_generators(1)
    result = back_and_forth(tower, xi, eta, fixed, schedule)
    path = assemble_path(result)
    sup = assembled_commutation_sup(path, fixed)
    measured = {
        "worst_round_margin": max(
            log["commutation"] - log["budget"] for log in result.logs
        ),
        "combined_sup": result.final["ad_combined_sup"],
        "path_sup": sup,
    }
    bounds = {
        "worst_round_margin": 0.0,
        "combined_sup": result.final["ad_combined_bound"],
        "path_sup": 4 * eps / 3 + 1e-6,
    }
    header = ["round", "side", "gap", "terminal", "commutation", "budget"]
    rows = [
        [g["round"], g["side"], g["gap"], g["terminal"], g["commutation"], g["budget"]]
        for g in result.logs
    ]
    return measured, bounds, (header, rows)


_RUN_HANDLERS = {
    "gram": _run_gram,
    "geodesic": _run_geodesic,
    "projection": _run_projection,
    "commutant": _run_commutant,
    "circle": _run_circle,
    "group": _run_group,
    "intertwine": _run_intertwine,
}


if __name__ == "__main__":
    sys.exit(main())
