"""The benchmark's two workloads: inputs, one op each, and output checks.

Every op goes through icut's public entry points (``run_experiment`` and
``run_ablation``) and emits a report file whose bytes are the op's
output.  A run with ``--seed s`` cycles its ops through the data seeds
``3s, 3s+1, 3s+2``; ``--seed 0`` thus uses the acceptance seeds 0, 1, 2,
for which the report digests are pinned below.

The synthetic workload chains two data sets in one op: orthogonal d=100
with the l2norm representation and cutstats (k-NN on one column is most
of that part), then permutation d=5 with herding, entropy and forget
(MLP training and greedy herding, no k-NN).  One op thus moves with
either kind of change, and the per-layer metrics tell them apart.  The
orthogonal part uses n_train=10000 and the external workload n=5000,
not the acceptance sizes, so that a run holds enough ops for a steady
median.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

import numpy as np

import icut
from icut import io

DATA_SEEDS_PER_RUN = 3
DEFAULT_SEED = 0


def data_seeds(seed: int) -> List[int]:
    return [DATA_SEEDS_PER_RUN * seed + j for j in range(DATA_SEEDS_PER_RUN)]


@dataclass
class OpResult:
    report: bytes                      # emitted report file(s), concatenated
    subset_accuracy: List[float]       # one per selection made
    classifier_accuracy: List[float]   # empty when no downstream model is trained


@dataclass
class Workload:
    name: str
    rows_per_op: int                   # n_train summed over the selections of one op
    prepare: Callable[[int, str, bool], dict]
    op: Callable[[dict, int, str], OpResult]
    band: Callable[[List[OpResult]], bool]
    pins: Dict[int, str]               # data seed -> sha256 of the op's report bytes


def _read(path: str) -> bytes:
    with open(path, "rb") as f:
        return f.read()


# --- synthetic workload -----------------------------------------------------


@dataclass(frozen=True)
class Part:
    """One generated data set of a synthetic op and the methods run on it.

    ``band`` checks the part's results, one OpResult per data seed, each
    holding one entry per method.
    """
    group: str
    n_train: int
    kind: str
    methods: Tuple[str, ...]
    band: Callable[[List[OpResult]], bool]


def _synthetic(name, parts) -> Workload:
    """Each op runs one experiment per part and method on generated data."""
    def prepare(seed: int, workdir: str, small: bool) -> dict:
        specs = []
        for part in parts:
            n = 400 if small else part.n_train
            specs.append(icut.SyntheticSpec(group=part.group, n_train=n, n_test=n // 4))
        return {"specs": specs}

    def op(inputs: dict, data_seed: int, outdir: str) -> OpResult:
        results = []
        for part, spec in zip(parts, inputs["specs"]):
            for method in part.methods:
                cfg = icut.ExperimentConfig(
                    synthetic=spec,
                    noise=icut.NoiseSpec(0.45),
                    representation_kind=part.kind,
                    method=method,
                    cutstats=icut.CutstatsConfig(k=20, tau=0.4, priors=(0.5, 0.5)),
                    seeds=(data_seed,),
                    output_dir=os.path.join(outdir, f"{part.group}-{method}"),
                )
                results.append(icut.run_experiment(cfg))
        return OpResult(
            report=b"".join(_read(r["csv_path"]) for r in results),
            subset_accuracy=[r["metrics"][0].subset_accuracy for r in results],
            classifier_accuracy=[r["metrics"][0].classifier_accuracy for r in results],
        )

    def band(results: List[OpResult]) -> bool:
        start = 0
        for part in parts:
            cut = slice(start, start + len(part.methods))
            start = cut.stop
            view = [OpResult(r.report, r.subset_accuracy[cut], r.classifier_accuracy[cut])
                    for r in results]
            if not part.band(view):
                return False
        return True

    rows = sum(part.n_train * len(part.methods) for part in parts)
    return Workload(name, rows, prepare, op, band, PINS[name])


def _mean_within(lo: float, hi: float):
    """Subset accuracy averaged over the data seeds lies in [lo, hi]."""
    def band(results: List[OpResult]) -> bool:
        return lo <= float(np.mean([v for r in results for v in r.subset_accuracy])) <= hi
    return band


def _each_method_within(lo: float, hi: float):
    """Per method, classifier accuracy averaged over the data seeds lies in [lo, hi]."""
    def band(results: List[OpResult]) -> bool:
        per_method = np.mean([r.classifier_accuracy for r in results], axis=0)
        return bool(np.all((lo <= per_method) & (per_method <= hi)))
    return band


# --- external-embedding workload --------------------------------------------

EXTERNAL_CLASSES = 5
EXTERNAL_FEATURES = 16
EXTERNAL_WIDTH = 32
K_GRID = [10, 20, 40]


def _external(name, n_train, band) -> Workload:
    """Each op is a k sweep over a dataset CSV and an embedding CSV."""
    def prepare(seed: int, workdir: str, small: bool) -> dict:
        """Writes a Gaussian-mixture dataset CSV and its embedding CSV."""
        n = 400 if small else n_train
        rng = np.random.default_rng(np.random.SeedSequence([seed, 9]))
        true = rng.integers(0, EXTERNAL_CLASSES, size=n)
        centers = 10.0 * rng.standard_normal((EXTERNAL_CLASSES, EXTERNAL_FEATURES))
        features = centers[true] + rng.standard_normal((n, EXTERNAL_FEATURES))
        lift = rng.standard_normal((EXTERNAL_FEATURES, EXTERNAL_WIDTH)) / np.sqrt(EXTERNAL_FEATURES)
        embedding = features @ lift + 0.1 * rng.standard_normal((n, EXTERNAL_WIDTH))
        ids = np.arange(n, dtype=np.int64)
        os.makedirs(workdir, exist_ok=True)
        paths = {"train": os.path.join(workdir, "dataset.csv"),
                 "embedding": os.path.join(workdir, "embedding.csv")}
        dataset = icut.LabeledDataset(features=features, noisy_labels=true,
                                      num_classes=EXTERNAL_CLASSES, ids=ids, true_labels=true)
        io.write_dataset_csv(dataset, paths["train"])
        io.write_embedding_csv(ids, embedding, paths["embedding"])
        return paths

    def op(inputs: dict, data_seed: int, outdir: str) -> OpResult:
        cfg = icut.ExperimentConfig(
            train_path=inputs["train"],
            noise=icut.NoiseSpec(0.45, num_classes=EXTERNAL_CLASSES),
            representation_kind="external",
            embedding_path=inputs["embedding"],
            method="cutstats",
            cutstats=icut.CutstatsConfig(k=20, tau=0.4),
            seeds=(data_seed,),
            output_dir=outdir,
        )
        result = icut.run_ablation("k_sweep", cfg, K_GRID)
        return OpResult(report=_read(result["csv_path"]),
                        subset_accuracy=[row[2][0] for row in result["rows"]],
                        classifier_accuracy=[])

    return Workload(name, n_train * len(K_GRID), prepare, op, band, PINS[name])


def _every_grid_point_at_least(lo: float):
    def band(results: List[OpResult]) -> bool:
        return all(v >= lo for r in results for v in r.subset_accuracy)
    return band


# sha256 of each op's report bytes for the data seeds of --seed 0,
# taken at the commit that introduced the benchmark.
PINS: Dict[str, Dict[int, str]] = {
    # The orthogonal report followed by the three permutation reports.
    "orth-l2norm-perm-baselines": {
        0: "8352e35bf6a52b2c51117b90b11c16886acc97ce8de69ccbce604e771394b876",
        1: "94af2caa061008f947d78d9c1e764348e5a4db0f27367165cd6dd33ec0b5bf7c",
        2: "270524ba35cb21e43383c6e34eafb8fcc75240af41d0317415a7d3df8954f020",
    },
    "external-ksweep": {
        0: "61f1c689c4ee66c9d803c84b245af52223d3c9e9f3a8e823ecfc062bdb15d9b8",
        1: "faff089639488be786427d25bb301ccfe9bb0b4ffed574f1c98663679e5d411f",
        2: "e339366f7c737a218a81761c601328bb4c2f9f0e7283b1882b33c0c4acc7a680",
    },
}

WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    _synthetic("orth-l2norm-perm-baselines", (
        # Acceptance criterion 03: l2norm subset accuracy within [69, 80]%.
        Part("orthogonal", 10000, "l2norm", ("cutstats",), _mean_within(0.69, 0.80)),
        # Criteria 04 and 05: no baseline beats training on clean labels
        # (90.93 + 3%), and each beats a coin flip.
        Part("permutation", 20000, "identity", ("herding", "entropy", "forget"),
             _each_method_within(0.50, 0.9393)),
    )),
    # Criterion 09: external multiclass subset accuracy at least 95%.
    _external("external-ksweep", 5000, _every_grid_point_at_least(0.95)),
)}
