"""Seeded end-to-end experiment runs, ablation sweeps, and report files.

One run = for each seed: obtain data, corrupt labels, represent, select
a subset, train the downstream model on it, evaluate on the test split.
Reports come out as a full-precision CSV plus an aligned text table with
rounded percentages; both are byte-identical across reruns.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from typing import Optional, Sequence, Tuple

import numpy as np

from . import io
from .baselines import herding_select, random_scores
from .core import (METHODS, REPRESENTATION_KINDS, LabeledDataset, Metrics,
                   SelectionResult, as_int, rank_select, subset_accuracy, summarize_runs)
from .cutstats import CutstatsConfig, cutstats_scores
from .datagen import NoiseSpec, SyntheticSpec, generate_synthetic, inject_label_noise
from .knn import build_neighbor_table
from .mlp import MlpConfig, entropy_scores, evaluate, forgetting_counts, train_mlp
from .representation import (compute_representation, load_external_representation,
                             perturb_representation)

ABLATION_KINDS = ("invariance_error", "dimension_sweep", "k_sweep", "tau_sweep")

METRIC_FIELDS = ("subset_accuracy", "classifier_accuracy", "balanced_error",
                 "alpha_hat", "gamma_hat", "nonabstain_rate")


class StageError(RuntimeError):
    """An experiment stage failed; carries the stage name for reporting."""

    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"[{stage}] {cause}")
        self.stage = stage
        self.cause = cause


def _staged(stage: str, fn, *args, **kw):
    try:
        return fn(*args, **kw)
    except StageError:
        raise
    except Exception as exc:
        raise StageError(stage, exc) from exc


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one end-to-end run needs; exactly one data source."""

    synthetic: Optional[SyntheticSpec] = None
    train_path: Optional[str] = None
    test_path: Optional[str] = None
    noise: NoiseSpec = NoiseSpec(flip_probability=0.45)
    representation_kind: str = "l2norm"
    embedding_path: Optional[str] = None
    method: str = "cutstats"
    cutstats: CutstatsConfig = CutstatsConfig()
    mlp: MlpConfig = MlpConfig()
    seeds: Tuple[int, ...] = (0, 1, 2)
    output_dir: str = "."
    train_downstream: bool = True
    invariance_target: Optional[float] = None   # perturb l2norm rep to this error

    def __post_init__(self):
        object.__setattr__(self, "seeds", tuple(as_int(s, "each seed") for s in self.seeds))
        if (self.synthetic is None) == (self.train_path is None):
            raise ValueError("exactly one of synthetic spec and train_path is required")
        if self.representation_kind not in REPRESENTATION_KINDS:
            raise ValueError(f"unknown representation kind {self.representation_kind!r}")
        if self.test_path is not None and self.train_path is None:
            raise ValueError("a test path needs a train path (file source)")
        if self.representation_kind == "external" and self.embedding_path is None:
            raise ValueError("external representation requires an embedding path")
        if self.embedding_path is not None and self.representation_kind != "external":
            raise ValueError("an embedding path needs the external representation")
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if len(self.seeds) == 0:
            raise ValueError("seeds must be non-empty")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError("seeds must be distinct")
        if self.invariance_target is not None:
            if not 0.0 <= self.invariance_target < math.inf:
                raise ValueError("target error must be non-negative")
            if self.representation_kind != "l2norm":
                raise ValueError("a target error needs the l2norm representation")
            if self.method not in ("cutstats", "herding"):
                raise ValueError("a target error needs a representation-based method "
                                 "(cutstats or herding)")


def select(config: ExperimentConfig, noisy: LabeledDataset, seed: int = 0,
           memo: Optional[dict] = None, width: Optional[int] = None):
    """Run the configured selector on ``noisy``; returns (selection, realized_error).

    The single selector dispatch: ``run_seed`` and ``icut select`` call it.
    Every score-based method ends in the one ``rank_select`` below; herding and
    full keep their own pick order.  An empty selection (round(tau*n) = 0) is a
    ``[select]`` error, raised before any caller writes or trains on it.
    ``memo`` keeps each stage output under the swept values it depends on
    (target error, k), so an ablation builds it once per seed; the table is
    built ``width`` wide (default k), read to column k.
    """
    memo = {} if memo is None else memo

    def once(key, stage, fn, *args, **kw):
        if key not in memo:
            memo[key] = _staged(stage, fn, *args, **kw)
        return memo[key]

    tau, k, target = config.cutstats.tau, config.cutstats.k, config.invariance_target
    realized = selected = None
    if config.method == "full":
        scores, selected = np.zeros(noisy.n), noisy.ids.copy()
    elif config.method == "random":
        scores = random_scores(noisy.n, seed)
    elif config.method in ("entropy", "forget"):
        forget = config.method == "forget"
        scorer = once("scorer", "train", train_mlp, noisy, config.mlp, seed, trace=forget)
        scores = forgetting_counts(scorer.trace) if forget else entropy_scores(scorer, noisy)
    else:  # representation-based selectors
        if config.representation_kind == "external":
            rep = once("rep", "represent", load_external_representation, noisy,
                       config.embedding_path)
        else:
            rep = once("rep", "represent", compute_representation, noisy,
                       config.representation_kind)
        if target is not None:
            rep, realized = once(("perturbed", target), "represent", perturb_representation,
                                 rep, target, seed=seed)
        if config.method == "herding":
            herded = _staged("select", herding_select, rep, tau)
            scores, selected = herded.scores, herded.selected
        else:
            table = once(("table", target), "select", build_neighbor_table, rep, width or k)
            scores = once(("scores", target, k), "select", cutstats_scores, rep,
                          table.head(k), config.cutstats)
    if selected is None:
        selected = rank_select(scores, noisy.ids, tau)
    if selected.size == 0:
        raise StageError("select", ValueError(
            f"empty selection: round(tau*n) = 0 at tau={tau}, n={noisy.n}"))
    return SelectionResult(scores=scores, selected=selected), realized


def _corrupted_data(config: ExperimentConfig, seed: int):
    """The seed's training split with its noisy labels, and its test split (or None)."""
    if config.synthetic is not None:
        train, test = _staged("generate", generate_synthetic, config.synthetic, seed)
    else:
        train = _staged("load", io.read_dataset_csv, config.train_path)
        test = _staged("load", io.read_dataset_csv, config.test_path) if config.test_path else None
    if config.noise.flip_probability > 0.0:
        train = _staged("corrupt", inject_label_noise, train, config.noise, seed)
    return train, test


def run_seed(config: ExperimentConfig, seed: int, data=None, memo=None, width=None
             ) -> Tuple[Metrics, dict]:
    """One deterministic pipeline pass; extras carry the realized knob values.

    An ablation shares a seed's ``_corrupted_data`` and ``select`` memo across points.
    """
    noisy, test = data or _corrupted_data(config, seed)
    selection, realized = select(config, noisy, seed, memo, width)
    metrics = Metrics(nonabstain_rate=selection.selected.size / noisy.n)
    sub = noisy.restrict(selection.selected)
    if noisy.true_labels is not None:
        metrics = replace(
            metrics, subset_accuracy=_staged("select", subset_accuracy, selection, noisy))
        if noisy.num_classes == 2:
            ones = sub.noisy_labels == 1
            zeros = ~ones
            metrics = replace(
                metrics,
                alpha_hat=float(np.mean(sub.true_labels[ones] == 0)) if ones.any() else 0.0,
                gamma_hat=float(np.mean(sub.true_labels[zeros] == 1)) if zeros.any() else 0.0)
        else:
            metrics = replace(metrics, alpha_hat=1.0 - metrics.subset_accuracy,
                              gamma_hat=1.0 - metrics.subset_accuracy)
    if test is not None and config.train_downstream:
        model = _staged("train", train_mlp, sub, config.mlp, seed)
        scored = _staged("evaluate", evaluate, model, test)
        metrics = replace(metrics, classifier_accuracy=scored.classifier_accuracy,
                          balanced_error=scored.balanced_error)
    return metrics, {"realized_error": realized}


def _fmt_pct(v: float) -> str:
    return f"{100.0 * v:.2f}"


def _emit(output_dir: str, stem: str, header, csv_rows, txt_rows) -> Tuple[str, str]:
    os.makedirs(output_dir, exist_ok=True)
    csv_path = os.path.join(output_dir, stem + ".csv")
    txt_path = os.path.join(output_dir, stem + ".txt")
    with io.unlink_on_failure(csv_path, txt_path):
        io.write_csv(csv_path, header, csv_rows)
        io.write_text_table(txt_path, header, txt_rows)
    return csv_path, txt_path


def run_experiment(config: ExperimentConfig) -> dict:
    """All seeds, then one report pair (CSV fractions, text percentages)."""
    per_seed = [(seed, run_seed(config, seed)[0]) for seed in sorted(config.seeds)]
    metrics = [m for _, m in per_seed]
    summary = summarize_runs(metrics)
    header = ["seed"] + list(METRIC_FIELDS)
    csv_rows = [[str(seed)] + [io.format_float(getattr(m, f)) for f in METRIC_FIELDS]
                for seed, m in per_seed]
    for stat, col in (("mean", 0), ("std", 1)):
        csv_rows.append([stat] + [io.format_float(summary[f][col]) for f in METRIC_FIELDS])
    txt_rows = [[str(seed)] + [_fmt_pct(getattr(m, f)) for f in METRIC_FIELDS]
                for seed, m in per_seed]
    txt_rows.append(["mean±std"] + [f"{_fmt_pct(summary[f][0])}±{_fmt_pct(summary[f][1])}"
                                    for f in METRIC_FIELDS])
    csv_path, txt_path = _staged("report", _emit, config.output_dir, "report",
                                 header, csv_rows, txt_rows)
    return {"metrics": metrics, "summary": summary,
            "csv_path": csv_path, "txt_path": txt_path}


def run_bounds(params, d_range: Sequence[int], output_dir: str = ".") -> dict:
    """Feasibility window over d, written as the bounds CSV."""
    from .theory import feasibility_window

    report = feasibility_window(params, d_range)
    os.makedirs(output_dir, exist_ok=True)
    path = os.path.join(output_dir, "bounds.csv")
    io.write_bounds_csv(report, path)
    return {"report": report, "csv_path": path}


def ablation_configs(kind: str, config: ExperimentConfig, grid: Sequence) -> list:
    """One checked config per grid point, so a bad point fails before any point runs."""
    if len(grid) == 0:
        raise ValueError("empty ablation grid")
    if kind == "invariance_error":
        return [replace(config, invariance_target=float(p)) for p in grid]
    if kind == "dimension_sweep":
        if config.synthetic is None:
            raise ValueError("dimension sweep requires a synthetic source")
        return [replace(config, synthetic=replace(config.synthetic, d=p)) for p in grid]
    if kind == "k_sweep":
        return [replace(config, cutstats=replace(config.cutstats, k=p)) for p in grid]
    if kind == "tau_sweep":
        return [replace(config, cutstats=replace(config.cutstats, tau=float(p))) for p in grid]
    raise ValueError(f"unknown ablation kind {kind!r}")


def run_ablation(kind: str, config: ExperimentConfig, grid: Sequence) -> dict:
    """A row per grid point, over every seed, with the realized knob values.

    Seeds are the outer loop: a seed obtains and corrupts its data once (not in
    a dimension sweep: they depend on d), and ``select`` builds each later stage
    once unless the swept value changes it. A k sweep builds one table at its
    largest k, a tau sweep scores once; selection and the MLP run per point.
    """
    configs = ablation_configs(kind, config, grid)
    width = max(cfg.cutstats.k for cfg in configs)
    runs = [[] for _ in configs]
    for seed in sorted(config.seeds):
        # a dimension sweep's data depend on d, so its points share nothing
        shared = () if kind == "dimension_sweep" else (_corrupted_data(config, seed), {}, width)
        for cfg, point_runs in zip(configs, runs):
            point_runs.append(run_seed(cfg, seed, *shared))
    header = [kind, "realized", "subset_acc_mean", "subset_acc_std",
              "classifier_acc_mean", "classifier_acc_std"]
    csv_rows, txt_rows, points = [], [], []
    for point, point_runs in zip(grid, runs):
        summary = summarize_runs([m for m, _ in point_runs])
        realized = [x["realized_error"] for _, x in point_runs if x["realized_error"] is not None]
        realized_mean = float(np.mean(realized)) if realized else float(point)
        subset, classifier = summary["subset_accuracy"], summary["classifier_accuracy"]
        points.append((float(point), realized_mean, subset, classifier))
        stats = subset + classifier                 # two (mean, std) pairs
        csv_rows.append([io.format_float(v) for v in (point, realized_mean) + stats])
        txt_rows.append([io.format_float(point), f"{realized_mean:.4f}"]
                        + [_fmt_pct(v) for v in stats])
    csv_path, txt_path = _staged("report", _emit, config.output_dir,
                                 f"ablation_{kind}", header, csv_rows, txt_rows)
    return {"rows": points, "csv_path": csv_path, "txt_path": txt_path}
