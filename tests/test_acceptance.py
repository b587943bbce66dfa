"""End-to-end acceptance checks, one test per shipped guarantee.

Each test prints a single PASS/FAIL line with the measured headline
quantity and enforces a pinned runtime budget.
"""

import time

import numpy as np
import scipy.linalg

from state_transport.group import group_state_transport
from state_transport.linalg import dagger, op_norm
from state_transport.serialize import dumps_report
from state_transport.suites import (
    group_instance,
    random_state,
    random_unitary,
    run_suite,
    suite_align,
    suite_circle,
    suite_commutant,
    suite_geodesic,
    suite_gram,
    suite_group,
    suite_intertwine,
    suite_spectrum,
)
from state_transport.transport import projection_transport

SEED = 20260823


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_gram_completion_accuracy():
    started = time.perf_counter()
    summary = suite_gram(SEED, 500)
    elapsed = time.perf_counter() - started
    ok = (
        summary["pass"]
        and summary["max_gram_error"] < 1e-10
        and summary["max_displacement_error"] < 1e-8
        and elapsed < 5.0
    )
    _report(
        "gram completion",
        ok,
        f"gram {summary['max_gram_error']:.2e}, "
        f"displacement {summary['max_displacement_error']:.2e}, {elapsed:.2f}s",
    )
    assert ok


def test_family_alignment_certified_residuals():
    started = time.perf_counter()
    summary = suite_align(SEED, 300)
    elapsed = time.perf_counter() - started
    ok = summary["pass"] and summary["violations"] == 0 and elapsed < 5.0
    _report(
        "family alignment",
        ok,
        f"violations {summary['violations']}, "
        f"max residual {summary['max_residual']:.2e}, {elapsed:.2f}s",
    )
    assert ok


def test_geodesic_minimality():
    started = time.perf_counter()
    summary = suite_geodesic(SEED, 50, competitors=200)
    elapsed = time.perf_counter() - started
    ok = (
        summary["pass"]
        and summary["max_length_error"] < 1e-8
        and summary["max_terminal_error"] < 1e-8
        and summary["max_competitor_advantage"] <= 1e-6
        and elapsed < 30.0
    )
    _report(
        "geodesic minimality",
        ok,
        f"length err {summary['max_length_error']:.2e}, "
        f"best competitor advantage {summary['max_competitor_advantage']:.2e}, "
        f"{elapsed:.2f}s",
    )
    assert ok


def test_spectrum_perturbation_bound():
    started = time.perf_counter()
    summary = suite_spectrum(SEED, 1000)
    elapsed = time.perf_counter() - started
    ok = summary["pass"] and summary["violations"] == 0 and elapsed < 10.0
    _report(
        "spectrum perturbation",
        ok,
        f"violations {summary['violations']}, "
        f"max excess {summary['max_excess']:.2e}, {elapsed:.2f}s",
    )
    assert ok


def test_projection_commuting_transport():
    started = time.perf_counter()
    rng = np.random.default_rng(SEED)
    worst_comm = 0.0
    worst_len = 0.0
    for _ in range(200):
        dim = int(rng.integers(4, 9))
        k = int(rng.integers(1, dim))
        q = random_unitary(rng, dim)
        e = q[:, :k] @ dagger(q[:, :k])
        xi = random_state(rng, dim)
        w = q @ scipy.linalg.block_diag(
            random_unitary(rng, k), random_unitary(rng, dim - k)
        ) @ dagger(q)
        eta = w @ xi
        path = projection_transport(e, xi, eta)
        worst_len = max(worst_len, path.length)
        for t in path.sample_times(64):
            u = path.at(t)
            worst_comm = max(worst_comm, op_norm(u @ e - e @ u))
    elapsed = time.perf_counter() - started
    ok = worst_comm < 1e-9 and worst_len <= np.pi / 2 + 1e-8
    _report(
        "projection transport",
        ok,
        f"commutator {worst_comm:.2e}, max length {worst_len:.6f}, {elapsed:.2f}s",
    )
    assert ok


def test_commutant_transport_both_shapes():
    started = time.perf_counter()
    summary = suite_commutant(SEED, 20)
    elapsed = time.perf_counter() - started
    ok = (
        summary["pass"]
        and summary["terminal_violations"] == 0
        and summary["max_commutator"] < 1e-9
        and elapsed < 10.0
    )
    _report(
        "commutant transport",
        ok,
        f"terminal {summary['max_terminal_error']:.2e}, "
        f"commutator {summary['max_commutator']:.2e}, {elapsed:.2f}s",
    )
    assert ok


def test_circle_partition_and_arc_transport():
    started = time.perf_counter()
    summary = suite_circle(SEED, 100)
    elapsed = time.perf_counter() - started
    ok = (
        summary["pass"]
        and summary["gap_failures"] == 0
        and summary["margin_failures"] == 0
        and elapsed < 60.0
    )
    _report(
        "circle arc transport",
        ok,
        f"terminal {summary['max_terminal_error']:.2e}, "
        f"z commutator {summary['max_z_commutator']:.4f}, {elapsed:.2f}s",
    )
    assert ok


def test_group_averaged_transport():
    started = time.perf_counter()
    summary = suite_group(SEED, 10)
    rng = np.random.default_rng(SEED)
    action, xi, eta = group_instance(rng, 48)
    res = group_state_transport(action, xi, eta, [(1,), (-1,)], 0.1)
    flip_err = res.extras["flip_error"]
    elapsed = time.perf_counter() - started
    ok = (
        summary["pass"]
        and summary["defect_exact_count"] == 10
        and summary["average_bound_failures"] == 0
        and flip_err < 1e-10
        and elapsed < 10.0
    )
    _report(
        "group averaged transport",
        ok,
        f"terminal {summary['max_terminal_error']:.2e}, "
        f"flip relations {flip_err:.2e}, {elapsed:.2f}s",
    )
    assert ok


def test_back_and_forth_tower():
    started = time.perf_counter()
    summary = suite_intertwine(SEED, 2)
    elapsed = time.perf_counter() - started
    ok = (
        summary["pass"]
        and summary["budget_failures"] == 0
        and summary["combined_failures"] == 0
        and summary["path_failures"] == 0
        and elapsed < 60.0
    )
    _report(
        "tower intertwining",
        ok,
        f"combined sup {summary['max_combined_sup']:.4f}, "
        f"path sup {summary['max_path_sup']:.4f}, {elapsed:.2f}s",
    )
    assert ok


def test_reports_are_deterministic():
    started = time.perf_counter()
    counts = {
        "gram": 5,
        "align": 5,
        "geodesic": 2,
        "spectrum": 5,
        "commutant": 4,
        "circle": 2,
        "group": 2,
        "intertwine": 1,
    }
    mismatched = []
    for name, count in counts.items():
        first = dumps_report(run_suite(name, SEED, count))
        second = dumps_report(run_suite(name, SEED, count))
        if first.encode() != second.encode():
            mismatched.append(name)
    elapsed = time.perf_counter() - started
    ok = not mismatched
    _report(
        "report determinism",
        ok,
        f"mismatched suites {mismatched or 'none'}, {elapsed:.2f}s",
    )
    assert ok
