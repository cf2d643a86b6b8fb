"""The benchmark's workloads still run against the library's entry points.

``perfbench/workloads.py`` and ``perfbench/tracing.py`` are imported
read-only.  Each workload's op runs twice at its small size: the two
reports must be byte-equal, and each op must yield one subset accuracy
per selection it makes.  The op also runs under the tracer, which binds
to library signatures: its report must equal the untraced one, every
sampled neighbor-table row must match the exact scan, and every traced
layer must still resolve.  Three traced ops per workload make pinned
per-op calls of every layer, the benchmark's per-layer ``.calls`` metrics.
The external workload's embedding is also built at full size, where its
classes form pivot groups in the gram path.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import full_sort, spy_ranked
from icut import kernels
from icut.io import read_embedding_csv

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


# Per-op calls of each traced layer over three ops at the small size, as the
# benchmark's per-layer metrics read them; layers absent here make none.  A
# refactor that leaves each stage's work alone leaves these counts alone.
CALLS = {
    "orth-l2norm-perm-baselines": {
        "datagen.generate_synthetic": 4, "datagen.inject_label_noise": 4, "io.write_csv": 4,
        "mlp.evaluate": 4, "mlp.train_mlp": 6, "representation.compute_representation": 2,
        "kernels.herding_greedy": 2, "knn.build_neighbor_table": 1, "kernels.neighbor_table": 1,
        "cutstats.cutstats_scores": 1, "baselines.herding_select": 1, "mlp.entropy_scores": 1,
        "mlp.forgetting_counts": 1},
    "external-ksweep": {
        "io.read_dataset_csv": 1, "io.read_embedding_csv": 1,
        "representation.load_external_representation": 1, "knn.build_neighbor_table": 1,
        "kernels.neighbor_table": 1, "datagen.inject_label_noise": 1, "io.write_csv": 1,
        "cutstats.cutstats_scores": 3},
}


@pytest.mark.parametrize("name", sorted(CALLS))
def test_traced_ops_make_the_pinned_calls_per_layer(tmp_path, monkeypatch, name):
    workloads = _load(monkeypatch, "workloads")
    tracing = _load(monkeypatch, "tracing")
    workload = workloads.WORKLOADS[name]
    inputs = workload.prepare(0, str(tmp_path / "inputs"), True)
    tracer = tracing.Tracer()
    seeds = workloads.data_seeds(0)
    for op, seed in enumerate(seeds):
        tracer.run_op(op, workload.op, inputs, seed, str(tmp_path / f"op{op}"))
    metrics, _ = tracer.layer_metrics(len(seeds))
    calls = {layer: metrics[layer + ".calls"][0] for layer in tracing.LAYERS}
    assert calls == {layer: CALLS[name].get(layer, 0) for layer in tracing.LAYERS}


def test_full_size_external_embedding_skips_far_groups_and_stays_exact(tmp_path, monkeypatch):
    # The small op's 400 rows form one group, so only the full-size input
    # reaches the skip rule: its 5 classes lie far apart, and each block of
    # rows is marked against its own class's columns only.  No row's first
    # k + 1 distances tie, so no row goes to the rank fallback.
    workloads = _load(monkeypatch, "workloads")
    inputs = workloads.WORKLOADS["external-ksweep"].prepare(0, str(tmp_path), False)
    ids, X = read_embedding_csv(inputs["embedding"])
    n, k = X.shape[0], max(workloads.K_GRID)
    widths, mark = [], kernels._mark

    def spied(d, *rest):
        widths.append(d.shape[1])
        return mark(d, *rest)

    monkeypatch.setattr(kernels, "_mark", spied)
    sent = spy_ranked(monkeypatch)
    pos, d2 = kernels.neighbor_table(X, ids, k)
    assert n == 5000 and max(widths) < n / 2
    assert sent == []
    rows = np.random.default_rng(0).choice(n, size=100, replace=False)
    expected, dists = full_sort(X, ids, k, rows)
    assert np.array_equal(pos[rows], expected)
    assert np.array_equal(d2[rows], dists)
