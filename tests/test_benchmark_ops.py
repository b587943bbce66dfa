"""Every op of each benchmark workload's tiny pool runs without a failure.

The ops, inputs and certificate bounds are the benchmark's own, read from
``perfbench/workloads.py``, so a missed certificate shows here before a
benchmark run counts it as a failed op.
"""

import importlib.util
import sys
from pathlib import Path

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
