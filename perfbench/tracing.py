"""Span tracing of icut's layers from outside the package.

The tracer swaps each traced public function, wherever an ``icut.*``
module binds it, for a wrapper that records a span.  Call sites are
found by function object rather than by name, so spans keep working when
a refactor moves a call from one module to another.  Spans and counts
are kept in memory; the caller writes them out when the run ends.

The work counts (``knn.gram_gflop``, ``herding.evals``,
``mlp.train_rows``, ``io.read_mb``) are computed from the sizes of the
arguments and files, not measured, so they repeat exactly for equal
inputs.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from collections import defaultdict

import numpy as np

# One entry per traced layer function, as "<icut module>.<function>".
LAYERS = (
    "datagen.generate_synthetic", "datagen.inject_label_noise",
    "representation.compute_representation", "representation.load_external_representation",
    "io.read_dataset_csv", "io.read_embedding_csv", "io.write_csv",
    "knn.build_neighbor_table", "kernels.neighbor_table",
    "cutstats.cutstats_scores", "cutstats.select_smallest",
    "baselines.herding_select", "kernels.herding_greedy",
    "mlp.train_mlp", "mlp.evaluate", "mlp.entropy_scores", "mlp.forgetting_counts",
)
# Pipeline entry points whose own time is reported together as ``experiment.self_s``.
EXPERIMENT = ("experiment.run_experiment", "experiment.run_seed", "experiment.run_ablation")
COUNTS = ("knn.rows", "knn.width", "knn.gram_gflop", "herding.evals",
          "mlp.train_rows", "io.read_mb")
OP = "op"

# Rows per neighbor table compared against the exact scan.
CHECK_ROWS = 16


def _resolve(qualname):
    module, fn = qualname.split(".")
    try:
        return getattr(importlib.import_module("icut." + module), fn)
    except (ImportError, AttributeError):
        return None  # layer removed by a refactor: it reports zero calls


def _first_args(fn, args, kwargs):
    """Argument values in signature order, however the caller passed them."""
    return list(inspect.signature(fn).bind(*args, **kwargs).arguments.values())


class Tracer:
    """Records spans ``(name, start, end, parent, op)`` and layer work counts."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)
        self.tables = []
        self.op = -1
        self._stack = []
        self._patched = []
        self._wrappers = {}
        for name in LAYERS + EXPERIMENT:
            fn = _resolve(name)
            if fn is not None:
                self._wrappers[id(fn)] = (fn, self._wrap(name, fn))

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(len(self.spans) - 1)

    def _close(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close()
            self._count(name, fn, args, kwargs, result)
            return result

        return wrapper

    def _count(self, name, fn, args, kwargs, result):
        c = self.counts
        if name == "kernels.neighbor_table":
            n, m = np.shape(_first_args(fn, args, kwargs)[0])
            c["knn.rows"] += n
            c["knn.width"] = max(c["knn.width"], float(m))
            c["knn.gram_gflop"] += 2.0 * n * n * m / 1e9
        elif name == "kernels.herding_greedy":
            X, _, count = _first_args(fn, args, kwargs)[:3]
            c["herding.evals"] += int(count) * np.shape(X)[0]
        elif name == "mlp.train_mlp":
            train, config = _first_args(fn, args, kwargs)[:2]
            c["mlp.train_rows"] += config.epochs * train.n
        elif name in ("io.read_dataset_csv", "io.read_embedding_csv"):
            c["io.read_mb"] += os.path.getsize(_first_args(fn, args, kwargs)[0]) / 1e6
        elif name == "knn.build_neighbor_table":
            rep, k = _first_args(fn, args, kwargs)[:2]
            self.tables.append((rep.representations, rep.base.ids, int(k), result))

    def install(self):
        """Swap every binding of a traced function in the loaded icut modules."""
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "icut" or modname.startswith("icut.")):
                continue
            for attr, value in list(vars(module).items()):
                fn, wrapper = self._wrappers.get(id(value), (None, None))
                if fn is value:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, value))

    def uninstall(self):
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def run_op(self, op_index, fn, *args):
        """Call ``fn`` as one traced op; returns (result, seconds)."""
        self.op = op_index
        root = len(self.spans)
        self.install()
        try:
            self._open(OP)
            try:
                result = fn(*args)
            finally:
                self._close()
        finally:
            self.uninstall()
        _, start, end, _, _ = self.spans[root]
        return result, end - start

    def check_tables(self):
        """Compare sampled rows of each stashed table with an exact scan.

        The exact order is (squared distance, ascending id), self excluded.
        Returns (matched rows, checked rows) and clears the stash.
        """
        matched = checked = 0
        for X, ids, k, table in self.tables:
            X = np.asarray(X, dtype=np.float64)
            n = X.shape[0]
            rows = np.random.default_rng(12345).choice(n, size=min(CHECK_ROWS, n), replace=False)
            for i in rows:
                diff = X - X[i]
                d2 = np.einsum("ij,ij->i", diff, diff)
                d2[i] = np.inf
                order = np.lexsort((ids, d2))[:k]
                ok = (np.array_equal(table.neighbor_ids[i], ids[order])
                      and np.allclose(table.distances[i], np.sqrt(d2[order]),
                                      rtol=1e-9, atol=1e-12))
                matched += int(ok)
                checked += 1
        self.tables.clear()
        return matched, checked

    def self_times(self):
        """Per-span self time: duration minus the durations of direct children."""
        out = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] is not None:
                out[s[3]] -= s[2] - s[1]
        return out

    def layer_metrics(self, ops):
        """Per-op calls and self seconds of every layer, plus per-op counts."""
        selfs = self.self_times()
        calls = defaultdict(int)
        total = defaultdict(float)
        for s, t in zip(self.spans, selfs):
            calls[s[0]] += 1
            total[s[0]] += t
        metrics = {}
        for name in LAYERS:
            metrics[name + ".calls"] = (calls[name] / ops, "count")
            metrics[name + ".self_s"] = (total[name] / ops, "s")
        metrics["experiment.self_s"] = (sum(total[n] for n in EXPERIMENT) / ops, "s")
        for name in COUNTS:
            unit = {"knn.gram_gflop": "GFLOP", "io.read_mb": "MB"}.get(name, "count")
            value = self.counts[name] if name == "knn.width" else self.counts[name] / ops
            metrics[name] = (value, unit)
        return metrics, sum(selfs)

    def dump(self):
        return [{"name": s[0], "start": s[1], "end": s[2], "parent": s[3], "op": s[4]}
                for s in self.spans]
