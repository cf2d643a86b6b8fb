"""Exact k-nearest-neighbor tables and leave-one-out majority prediction."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from . import kernels
from .representation import RepresentedDataset


@dataclass(frozen=True)
class NeighborTable:
    """Each sample's k nearest other samples, nearest first.

    ``neighbor_ids`` hold sample ids; ``neighbor_rows`` the corresponding
    dataset-order positions (what downstream code indexes labels with).
    Ties in distance are broken by ascending sample id.
    """

    k: int
    neighbor_ids: np.ndarray
    neighbor_rows: np.ndarray
    distances: np.ndarray

    def __post_init__(self):
        n = self.neighbor_ids.shape[0]
        if any(a.shape != (n, self.k)
               for a in (self.neighbor_ids, self.neighbor_rows, self.distances)):
            raise ValueError("inconsistent table shapes")
        if np.any(np.diff(self.distances, axis=1) < 0):
            raise ValueError("each row's distances must be non-decreasing")

    def head(self, k: int) -> "NeighborTable":
        """The first k columns: under the (distance, id) order, the k-nearest table."""
        if not (1 <= k <= self.k):
            raise ValueError(f"k must satisfy 1 <= k <= {self.k}, got k={k}")
        return NeighborTable(k=k, neighbor_ids=self.neighbor_ids[:, :k],
                             neighbor_rows=self.neighbor_rows[:, :k],
                             distances=self.distances[:, :k])


def build_neighbor_table(rep: RepresentedDataset, k: int) -> NeighborTable:
    """Brute-force exact l2 nearest neighbors in representation space."""
    n = rep.base.n
    if not (1 <= k <= n - 1):
        raise ValueError(f"k must satisfy 1 <= k <= n-1, got k={k}, n={n}")
    ids = rep.base.ids
    # kernels break ties by rank; rank = position of the id in ascending id order
    rank = np.empty(n, dtype=np.int64)
    rank[np.argsort(ids, kind="stable")] = np.arange(n)
    rows, d2 = kernels.neighbor_table(rep.representations, rank, k)
    return NeighborTable(
        k=k,
        neighbor_ids=ids[rows],
        neighbor_rows=rows,
        distances=np.sqrt(np.maximum(d2, 0.0)),
    )


def knn_predict(table: NeighborTable, labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Leave-one-out majority vote; vote ties go to the smallest class id."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape[0] != table.neighbor_rows.shape[0]:
        raise ValueError("labels length must match the table")
    votes = np.zeros((labels.shape[0], num_classes), dtype=np.int64)
    neighbor_labels = labels[table.neighbor_rows]
    np.add.at(votes, (np.arange(labels.shape[0])[:, None], neighbor_labels), 1)
    return votes.argmax(axis=1)  # argmax takes the first (smallest) class on ties


def estimate_class_accuracies(predicted: np.ndarray, true_labels: np.ndarray) -> Tuple[float, float]:
    """Empirical (lambda0, lambda1) = per-class agreement rates, binary."""
    pred = np.asarray(predicted, dtype=np.int64)
    true = np.asarray(true_labels, dtype=np.int64)
    if pred.shape != true.shape:
        raise ValueError("length mismatch")
    out = []
    for c in (0, 1):
        mask = true == c
        if not mask.any():
            raise ValueError("class-conditional rate undefined")
        out.append(float(np.mean(pred[mask] == c)))
    return out[0], out[1]
