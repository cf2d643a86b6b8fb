"""The benchmark's workloads still run against the library's entry points.

``perfbench/workloads.py`` is imported read-only and each workload's op
runs twice at its small size: the two reports must be byte-equal, and
each op must yield one subset accuracy per selection it makes.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def _workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)    # dataclasses look their module up
    spec.loader.exec_module(module)
    return module.WORKLOADS


# One selection per part and method for the synthetic op, one per k for the sweep.
SELECTIONS = {"orth-l2norm-perm-baselines": 4, "external-ksweep": 3}


@pytest.mark.parametrize("name", sorted(SELECTIONS))
def test_workload_op_runs_twice_to_the_same_report(tmp_path, monkeypatch, name):
    workload = _workloads(monkeypatch)[name]
    inputs = workload.prepare(0, str(tmp_path / "inputs"), True)
    first = workload.op(inputs, 0, str(tmp_path / "first"))
    second = workload.op(inputs, 0, str(tmp_path / "second"))
    assert first.report and first.report == second.report
    assert len(first.subset_accuracy) == SELECTIONS[name]
    assert all(0.0 <= v <= 1.0 for v in first.subset_accuracy)
