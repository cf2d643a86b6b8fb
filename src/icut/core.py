"""Shared domain types, metrics, and run aggregation."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields
from typing import Optional, Sequence

import numpy as np

METHODS = ("cutstats", "random", "entropy", "forget", "herding", "full")
REPRESENTATION_KINDS = ("identity", "l2norm", "sort", "external")


def round_half_up(x: float) -> int:
    """round(x) with .5 going up, as in the retained-count rule."""
    return int(np.floor(x + 0.5))


def as_int(value, field: str) -> int:
    """``value`` as a Python int; a non-integral or non-finite value raises ``ValueError``.

    Ints of any size, numpy ints among them, and integral floats pass;
    ``int()`` alone would truncate 2.5 to 2 and fail on NaN without the name.
    """
    if isinstance(value, numbers.Integral):
        return int(value)
    if isinstance(value, numbers.Real) and math.isfinite(value) and value == math.floor(value):
        return int(value)
    raise ValueError(f"{field} must be an integer, got {value!r}")


def seeded_rng(seed, stream: int) -> np.random.Generator:
    """The generator of one seeded stage: each stage passes its own literal ``stream``
    tag.  ``seed`` goes through ``as_int`` and keeps its low 63 bits, so -1 and
    2**64 + 5 are seeds and 0.5 is a ``ValueError``."""
    return np.random.default_rng(
        np.random.SeedSequence([as_int(seed, "seed") & (2**63 - 1), stream]))


def _int64(values, field: str) -> np.ndarray:
    """``values`` as int64; a value the cast would change raises ``ValueError``.

    Non-integral, non-finite and out-of-range floats, uint64 values past
    int64 and non-numeric entries are refused before the cast, which would
    truncate or wrap them.
    """
    a = np.asarray(values)
    if a.dtype.kind == "f":
        # every comparison with NaN is false
        ok = np.all((a >= -2.0**63) & (a < 2.0**63) & (np.floor(a) == a))
    elif a.dtype.kind == "u":
        ok = a.size == 0 or a.max() <= np.iinfo(np.int64).max
    else:
        ok = a.dtype.kind in "bi"
    if not ok:
        raise ValueError(f"{field} must be integers within the int64 range")
    return a.astype(np.int64, copy=False)


def id_positions(ids: np.ndarray, wanted: np.ndarray) -> Optional[np.ndarray]:
    """Positions in ``ids`` (nonempty) of each of ``wanted``; None if one is missing."""
    order = np.argsort(ids, kind="stable")
    pos = order[np.minimum(np.searchsorted(ids, wanted, sorter=order), ids.size - 1)]
    return pos if np.array_equal(ids[pos], wanted) else None


@dataclass(frozen=True)
class LabeledDataset:
    """A feature matrix with noisy labels and (when known) true labels.

    ``noisy_labels`` is what every selector and trainer consumes; for clean
    data it simply equals ``true_labels``.  ``true_labels`` is None for
    external data without ground truth.
    """

    features: np.ndarray
    noisy_labels: np.ndarray
    num_classes: int
    ids: np.ndarray
    true_labels: Optional[np.ndarray] = None

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=np.float64)
        noisy = _int64(self.noisy_labels, "noisy_labels")
        ids = _int64(self.ids, "ids")
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "noisy_labels", noisy)
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "num_classes", as_int(self.num_classes, "num_classes"))
        if self.true_labels is not None:
            object.__setattr__(self, "true_labels", _int64(self.true_labels, "true_labels"))
        n = feats.shape[0]
        if feats.ndim != 2 or n < 1 or feats.shape[1] < 1:
            raise ValueError("features must be a nonempty n x d matrix")
        if not np.all(np.isfinite(feats)):
            raise ValueError("non-finite feature value")
        if noisy.shape != (n,) or ids.shape != (n,):
            raise ValueError("label/id lengths must match the feature row count")
        if self.true_labels is not None and self.true_labels.shape != (n,):
            raise ValueError("true_labels length must match the feature row count")
        if self.num_classes < 2:
            raise ValueError("num_classes must be at least 2")
        for labels in (noisy,) + ((self.true_labels,) if self.true_labels is not None else ()):
            if labels.min() < 0 or labels.max() >= self.num_classes:
                raise ValueError("labels must lie in [0, num_classes)")
        ordered = np.sort(ids)
        if np.any(ordered[1:] == ordered[:-1]):
            raise ValueError("ids must be unique")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]

    def index_of(self, ids: np.ndarray) -> np.ndarray:
        """Positions of the given ids in dataset order."""
        pos = id_positions(self.ids, ids)
        if pos is None:
            raise ValueError("unknown sample id")
        return pos

    def restrict(self, ids: np.ndarray) -> "LabeledDataset":
        """The sub-dataset holding exactly the given ids, in the given order."""
        pos = self.index_of(np.asarray(ids, dtype=np.int64))
        return LabeledDataset(
            features=self.features[pos],
            noisy_labels=self.noisy_labels[pos],
            num_classes=self.num_classes,
            ids=self.ids[pos],
            true_labels=None if self.true_labels is None else self.true_labels[pos],
        )


@dataclass(frozen=True)
class SelectionResult:
    """Per-sample scores plus the retained ids."""

    scores: np.ndarray          # aligned with the dataset order scores came from
    selected: np.ndarray        # retained ids, selection order

    def __post_init__(self):
        object.__setattr__(self, "scores", np.asarray(self.scores, dtype=np.float64))
        object.__setattr__(self, "selected", np.asarray(self.selected, dtype=np.int64))
        if not np.all(np.isfinite(self.scores)):
            raise ValueError("scores must be finite")


@dataclass(frozen=True)
class Metrics:
    """Evaluation numbers for one run; every field is a fraction in [0,1]."""

    classifier_accuracy: float = 0.0
    subset_accuracy: float = 0.0
    balanced_error: float = 0.0
    alpha_hat: float = 0.0
    gamma_hat: float = 0.0
    nonabstain_rate: float = 0.0

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"{f.name} = {v} outside [0, 1]")


def subset_accuracy(selection: SelectionResult, dataset: LabeledDataset) -> float:
    """Fraction of selected samples whose noisy label equals the true label."""
    if dataset.true_labels is None:
        raise ValueError("ground truth unavailable")
    if selection.selected.size == 0:
        raise ValueError("empty selection")
    pos = dataset.index_of(selection.selected)
    return float(np.mean(dataset.noisy_labels[pos] == dataset.true_labels[pos]))


def balanced_error(predictions: Sequence[int], truth: Sequence[int]) -> float:
    """Macro-average of per-class miss rates over the classes present in ``truth``.

    For binary labels this is the usual
    1/2 (P(pred=1 | y=0) + P(pred=0 | y=1)).
    """
    pred = np.asarray(predictions, dtype=np.int64)
    true = np.asarray(truth, dtype=np.int64)
    if pred.shape != true.shape or pred.ndim != 1:
        raise ValueError("predictions and truth must be equal-length 1-D sequences")
    classes = np.unique(true)
    if classes.size < 2:
        raise ValueError("class-conditional rate undefined")
    return float(np.mean([np.mean(pred[true == c] != c) for c in classes]))


def summarize_runs(metrics: Sequence[Metrics]) -> dict:
    """Field-wise mean and sample std (ddof=1; 0.0 for a single run)."""
    if len(metrics) == 0:
        raise ValueError("no runs to summarize")
    out = {}
    for f in fields(Metrics):
        vals = np.array([getattr(m, f.name) for m in metrics], dtype=np.float64)
        std = float(vals.std(ddof=1)) if vals.size > 1 else 0.0
        out[f.name] = (float(vals.mean()), std)
    return out


def rank_select(scores: np.ndarray, ids: np.ndarray, tau: float) -> np.ndarray:
    """Ids of the round(tau*n) smallest scores, ties by ascending id."""
    scores = np.asarray(scores, dtype=np.float64)
    ids = np.asarray(ids, dtype=np.int64)
    if not (0.0 < tau <= 1.0):
        raise ValueError("tau must lie in (0, 1]")
    if scores.shape != ids.shape:
        raise ValueError("scores and ids must have equal length")
    if not np.all(np.isfinite(scores)):
        raise ValueError("scores must be finite")
    m = round_half_up(tau * scores.size)
    order = np.lexsort((ids, scores))
    return ids[order[:m]]
