"""The benchmark's workloads still run against the library's entry points.

``perfbench/workloads.py`` and ``perfbench/tracing.py`` are imported
read-only.  Each workload's op runs twice at its small size: the two
reports must be byte-equal, and each op must yield one subset accuracy
per selection it makes.  The op also runs under the tracer, which binds
to library signatures: its report must equal the untraced one, every
sampled neighbor-table row must match the exact scan, and every traced
layer must still resolve.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# Traced layers that no longer exist in the library: ``select_smallest``
# was folded into ``core.rank_select``, and the benchmark still lists it.
STALE_LAYERS = ["cutstats.select_smallest"]
# Layers whose work counts the tracer takes from their arguments, by workload.
COUNTED = {"orth-l2norm-perm-baselines": {"knn.build_neighbor_table", "kernels.neighbor_table",
                                          "kernels.herding_greedy", "mlp.train_mlp"},
           "external-ksweep": {"knn.build_neighbor_table", "kernels.neighbor_table",
                               "io.read_dataset_csv", "io.read_embedding_csv"}}


def _load(monkeypatch, name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)    # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def _workloads(monkeypatch):
    return _load(monkeypatch, "workloads").WORKLOADS


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


@pytest.mark.parametrize("name", sorted(SELECTIONS))
def test_traced_op_reports_the_untraced_bytes_and_checks_its_tables(tmp_path, monkeypatch,
                                                                    name):
    workload = _workloads(monkeypatch)[name]
    tracing = _load(monkeypatch, "tracing")
    inputs = workload.prepare(0, str(tmp_path / "inputs"), True)
    untraced = workload.op(inputs, 0, str(tmp_path / "untraced"))
    tracer = tracing.Tracer()
    traced, _ = tracer.run_op(0, workload.op, inputs, 0, str(tmp_path / "traced"))
    assert traced.report == untraced.report
    matched, checked = tracer.check_tables()
    assert checked > 0 and matched == checked
    assert COUNTED[name] <= {span["name"] for span in tracer.dump()}
    assert [n for n in tracing.LAYERS if tracing._resolve(n) is None] == STALE_LAYERS
