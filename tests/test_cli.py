import json
import os
import subprocess
import sys

import numpy as np
import pytest

import state_transport
from state_transport.cli import EXIT_PASS, EXIT_USAGE, EXIT_VIOLATION, main
from state_transport.group import finite_cyclic_action, integer_action
from state_transport.circle import arc_transport
from state_transport.serialize import encode_group_action, encode_matrix, encode_vector
from state_transport.suites import (
    circle_instance,
    commutant_instance,
    random_state,
    random_unitary,
)
from state_transport.transport import commutant_transport, projection_transport


def _write_geodesic_config(path, rng):
    xi = random_state(rng, 4)
    eta = random_state(rng, 4)
    config = {
        "command": "geodesic",
        "xi": encode_vector(xi),
        "eta": encode_vector(eta),
    }
    path.write_text(json.dumps(config))


def test_run_geodesic_pass(tmp_path, rng):
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "report.json"
    csv = tmp_path / "path.csv"
    _write_geodesic_config(cfg, rng)
    code = main(["run", "--config", str(cfg), "--out", str(out),
                 "--csv", str(csv)])
    assert code == EXIT_PASS
    report = json.loads(out.read_text())
    assert report["pass"] is True
    assert report["measured"]["terminal_error"] < 1e-8
    lines = csv.read_text().strip().split("\n")
    assert lines[0] == "t,distance_to_target,length_so_far"
    assert len(lines) == 34
    last = lines[-1].split(",")
    assert float(last[1]) < 1e-8  # converged to the target


def test_run_malformed_config(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{not json")
    assert main(["run", "--config", str(cfg)]) == EXIT_USAGE


def test_run_unknown_command(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "nope"}))
    assert main(["run", "--config", str(cfg)]) == EXIT_USAGE


def test_run_missing_field(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "geodesic", "xi": [[1.0, 0.0]]}))
    assert main(["run", "--config", str(cfg)]) == EXIT_USAGE


def test_run_hypothesis_violation_reports(tmp_path):
    # states with different block statistics violate the commutant
    # transport hypothesis; the report records it and the exit code is 1
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "report.json"
    xi = np.array([1.0, 0, 0, 0], dtype=complex)
    eta = np.array([0, 0, 1.0, 0], dtype=complex)
    cfg.write_text(json.dumps({
        "command": "commutant",
        "n": 2,
        "multiplicity": 2,
        "xi": encode_vector(xi),
        "eta": encode_vector(eta),
        "eps": 0.01,
    }))
    code = main(["run", "--config", str(cfg), "--out", str(out)])
    assert code == EXIT_VIOLATION
    report = json.loads(out.read_text())
    assert report["pass"] is False
    assert "violated_hypothesis" in report


def _projection_case(rng):
    e = np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex)
    xi = random_state(rng, 4)
    u = np.zeros((4, 4), dtype=complex)
    u[:2, :2], u[2:, 2:] = random_unitary(rng, 2), random_unitary(rng, 2)
    eta = u @ xi
    config = {"e": encode_matrix(e), "xi": encode_vector(xi), "eta": encode_vector(eta)}
    return config, "projection_commutator", \
        projection_transport(e, xi, eta).commutator_bound([e])


def _commutant_case(rng):
    mu, xi, eta = commutant_instance(rng, 2, 2, 0.1)
    config = {"n": 2, "multiplicity": 2, "eps": 0.1,
              "xi": encode_vector(xi), "eta": encode_vector(eta)}
    units = [mu.unit(i, j) for i in range(2) for j in range(2)]
    return config, "unit_commutator", \
        commutant_transport(mu, xi, eta, 0.1).path.commutator_bound(units)


def _circle_case(rng):
    block, model, xi, eta = circle_instance(rng, 2, 32)
    config = {"z": encode_matrix(model.z), "block_n": 2, "eps": 0.09,
              "xi": encode_vector(xi), "eta": encode_vector(eta)}
    return config, "z_commutator", \
        arc_transport(block, model, xi, eta, [], 0.09).z_commutator_sup


@pytest.mark.parametrize("command, case", [("projection", _projection_case),
                                           ("commutant", _commutant_case),
                                           ("circle", _circle_case)])
def test_run_reports_the_certified_commutator_bound(tmp_path, rng, command, case):
    config, key, bound = case(rng)
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "report.json"
    cfg.write_text(json.dumps({"command": command, **config}))
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_PASS
    assert json.loads(out.read_text())["measured"][key] == bound


def test_verify_suite_pass(tmp_path):
    out = tmp_path / "suite.json"
    code = main(["verify", "--suite", "spectrum", "--seed", "7",
                 "--instances", "5", "--out", str(out)])
    assert code == EXIT_PASS
    summary = json.loads(out.read_text())
    assert summary["pass"] is True
    assert summary["instances"] == 5


def test_verify_deterministic_output(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for out in (a, b):
        assert main(["verify", "--suite", "gram", "--seed", "3",
                     "--instances", "8", "--out", str(out)]) == EXIT_PASS
    assert a.read_bytes() == b.read_bytes()


def test_run_deterministic_output(tmp_path, rng):
    cfg = tmp_path / "cfg.json"
    _write_geodesic_config(cfg, rng)
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for out in (a, b):
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_PASS
    assert a.read_bytes() == b.read_bytes()


def test_run_group_detour(tmp_path, rng):
    # Z acting on three copies of C^16; source and target share one orbit,
    # so the transport detours through the third copy
    d = 16
    u0 = random_unitary(rng, d)
    z = np.zeros((d, d))
    action = integer_action([np.block([[u0, z, z], [z, u0, z], [z, z, u0]])])
    x = random_state(rng, d)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "command": "group",
        "action": encode_group_action(action),
        "xi": encode_vector(np.concatenate([x, np.zeros(2 * d)])),
        "eta": encode_vector(np.concatenate([np.exp(0.4j) * x, np.zeros(2 * d)])),
        "gens": [[1], [-1]],
        "eps": 0.1,
    }))
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for out in (a, b):
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_PASS
    assert json.loads(a.read_text())["pass"] is True
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("forged, code, error", [
    (None, EXIT_PASS, None),
    ("table", EXIT_VIOLATION, "UnsupportedGroupError"),
    ("rep", EXIT_VIOLATION, "NotUnitaryError"),
])
def test_run_group_finite_action(tmp_path, rng, forged, code, error):
    # Z/4 through diag(1, i, -1, -i) on two copies of C^4 with orthogonal
    # orbits; a forged table (Klein four) or a rep scaled by 3 is rejected
    u = np.diag(np.exp(2j * np.pi * np.arange(4) / 4))
    z = np.zeros((4, 4))
    action = encode_group_action(finite_cyclic_action(4, np.block([[u, z], [z, u]])))
    if forged == "table":
        action["table"] = [[a ^ b for b in range(4)] for a in range(4)]
    elif forged == "rep":
        action["rep"][1] = encode_matrix(3 * np.block([[u, z], [z, u]]))
    x = random_state(rng, 4)
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "report.json"
    cfg.write_text(json.dumps({
        "command": "group",
        "action": action,
        "xi": encode_vector(np.concatenate([x, np.zeros(4)])),
        "eta": encode_vector(np.concatenate([np.zeros(4), 1j * x])),
        "gens": [1],
        "eps": 0.5,
    }))
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == code
    report = json.loads(out.read_text())
    if error is None:
        assert report["pass"] is True
        assert report["measured"]["terminal_error"] < 1e-12
    else:
        assert report["violated_hypothesis"].startswith(error)


_SRC = os.path.dirname(os.path.dirname(state_transport.__file__))
_PERFBENCH = os.path.join(os.path.dirname(_SRC), "perfbench")
# scipy.linalg's package body imports its Schur module, so that module is in
# sys.modules once scipy.linalg has executed, and only then.
_EXECUTED = "'scipy.linalg._decomp_schur' in sys.modules"


def _fresh_python(code: str) -> str:
    """Standard output of ``code`` run in a new interpreter that imports
    this checkout's state_transport and perfbench's modules."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [_SRC, _PERFBENCH] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


def test_import_does_not_load_scipy_optimize():
    code = "import sys, state_transport; print('scipy.optimize' in sys.modules)"
    assert _fresh_python(code).strip() == "False"


def test_import_registers_scipy_linalg_without_executing_it():
    code = f"import sys, state_transport; print('scipy.linalg' in sys.modules, {_EXECUTED})"
    assert _fresh_python(code).split() == ["True", "False"]


def test_one_tiny_op_of_each_workload_leaves_scipy_linalg_unexecuted():
    code = f"""
import sys, state_transport, state_transport.serialize, workloads
for name, workload in sorted(workloads.WORKLOADS.items()):
    rec = workloads.run_op(state_transport, workload, workload.inputs(1, True)[0])
    print(name, rec.failed, {_EXECUTED})
"""
    assert _fresh_python(code).split() == [
        "small-certs", "False", "False", "spectral-mid", "False", "False",
        "tower-256", "False", "False"]


def test_perfbench_tracer_installs_over_the_lazy_scipy_linalg():
    # The tracer reads sys.modules["scipy.linalg"], which the library keeps
    # registered, and wraps its schur, which executes the module; uninstall
    # restores the original.
    code = """
import sys, state_transport, state_transport.serialize
from tracer import Tracer
lazy = state_transport.linalg._scipy_linalg
tracer = Tracer().install()
traced = lazy.schur
tracer.uninstall()
print(lazy is sys.modules["scipy.linalg"], traced is not lazy.schur,
      traced.__wrapped__ is lazy.schur)
"""
    assert _fresh_python(code).split() == ["True", "True", "True"]


def test_no_subcommand_is_usage_error(capsys):
    assert main([]) == EXIT_USAGE
    capsys.readouterr()


def test_bad_suite_name_is_usage_error(capsys):
    assert main(["verify", "--suite", "bogus"]) == EXIT_USAGE
    capsys.readouterr()


def _run_intertwine_config(tmp_path, name, **config):
    cfg = tmp_path / f"{name}.json"
    cfg.write_text(json.dumps({"command": "intertwine", **config}))
    out = tmp_path / f"{name}-report.json"
    csv = tmp_path / f"{name}-rounds.csv"
    code = main(["run", "--config", str(cfg), "--out", str(out), "--csv", str(csv)])
    return code, out, csv


def test_run_intertwine(tmp_path, monkeypatch):
    # The states agree on level 3, not on the ambient level 4, where they
    # would be equal up to a phase and every round trivial.
    back_and_forth = state_transport.cli.back_and_forth
    states = []

    def kept(tower, xi, eta, *args):
        states.append((xi, eta))
        return back_and_forth(tower, xi, eta, *args)

    monkeypatch.setattr(state_transport.cli, "back_and_forth", kept)
    config = {"branchings": [2] * 4, "ambient": 16, "rounds": 3, "seed": 5}
    code, out, csv = _run_intertwine_config(tmp_path, "a", **config)
    assert code == EXIT_PASS
    (xi, eta), = states
    assert abs(np.vdot(xi, eta)) < 0.99
    assert json.loads(out.read_text())["pass"] is True
    lines = csv.read_text().strip().split("\n")
    assert lines[0] == "round,side,gap,terminal,commutation,budget"
    assert [line.split(",")[0] for line in lines[1:]] == ["1", "2", "3"]
    code, out_b, csv_b = _run_intertwine_config(tmp_path, "b", **config)
    assert code == EXIT_PASS
    assert out.read_bytes() == out_b.read_bytes()
    assert csv.read_bytes() == csv_b.read_bytes()


@pytest.mark.parametrize("branchings, ambient", [([3, 3], 9), ([4, 4], 16), ([3, 2], 12)])
def test_run_intertwine_builds_the_configured_branchings(tmp_path, monkeypatch,
                                                         branchings, ambient):
    # the tower is built from the branchings themselves, not as a binary
    # tower with as many levels
    back_and_forth = state_transport.cli.back_and_forth
    towers = []

    def kept(tower, *args):
        towers.append(tower)
        return back_and_forth(tower, *args)

    monkeypatch.setattr(state_transport.cli, "back_and_forth", kept)
    code, out, _ = _run_intertwine_config(tmp_path, "tower", branchings=branchings,
                                          ambient=ambient, rounds=2)
    assert code == EXIT_PASS
    assert json.loads(out.read_text())["pass"] is True
    assert [tower.sizes for tower in towers] == [np.cumprod(branchings).tolist()]


def test_run_intertwine_zero_rounds(tmp_path):
    code, out, _ = _run_intertwine_config(
        tmp_path, "zero", branchings=[2] * 4, ambient=16, rounds=0)
    assert code == EXIT_PASS
    assert json.loads(out.read_text())["measured"] == {"rounds": 0}


def test_run_intertwine_bad_tower_is_usage_error(tmp_path):
    # a level that does not divide the ambient, or more rounds than levels
    for branchings, ambient, rounds in (([2, 2, 2], 12, 0), ([2, 2, 2], 12, 3),
                                        ([2] * 4, 16, 5)):
        code, _, _ = _run_intertwine_config(
            tmp_path, f"bad{rounds}", branchings=branchings, ambient=ambient, rounds=rounds)
        assert code == EXIT_USAGE


def _commutant_config(rng, eps):
    config, _, _ = _commutant_case(rng)
    return {"command": "commutant", **config, "eps": eps}


def _group_config(rng, eps):
    u = np.diag(np.exp(2j * np.pi * np.arange(4) / 4))
    z = np.zeros((4, 4))
    x = random_state(rng, 4)
    action = finite_cyclic_action(4, np.block([[u, z], [z, u]]))
    return {"command": "group", "action": encode_group_action(action),
            "xi": encode_vector(np.concatenate([x, np.zeros(4)])),
            "eta": encode_vector(np.concatenate([np.zeros(4), 1j * x])),
            "gens": [1], "eps": eps}


def _intertwine_config(rng, eps):
    return {"command": "intertwine", "branchings": [2] * 4, "ambient": 16, "rounds": 3,
            "eps": eps}


@pytest.mark.parametrize("eps", [0.0, -0.1, float("nan"), float("inf")])
@pytest.mark.parametrize("config", [_commutant_config, _group_config, _intertwine_config])
def test_run_bad_tolerance_is_usage_error(tmp_path, rng, capsys, config, eps):
    # a tolerance that is not finite and > 0 is a bad config: exit 2 and no
    # report, not a violated hypothesis or a NaN in the report
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "report.json"
    cfg.write_text(json.dumps(config(rng, eps)))
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_USAGE
    assert not out.exists()
    assert "finite and > 0" in capsys.readouterr().err
