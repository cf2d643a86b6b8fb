"""The cut-statistic z-score.

For sample i with noisy label yhat_i, neighbor weights
w_ij = 1 / (1 + ||F(x_i) - F(x_j)||_2) over its k nearest neighbors in
representation space:

    J_i     = sum_j w_ij * 1[yhat_j != yhat_i]
    mu_i    = (1 - P(yhat_i)) * sum_j w_ij
    sigma_i = sqrt(P(yhat_i) * (1 - P(yhat_i)) * sum_j w_ij**2)
    z_i     = (J_i - mu_i) / sigma_i

Low z = the label agrees with its neighborhood more than chance predicts
= likely clean.  ``core.rank_select`` retains the round(tau*n) smallest z.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .core import as_int
from .knn import NeighborTable
from .representation import RepresentedDataset


@dataclass(frozen=True)
class CutstatsConfig:
    k: int = 20
    tau: float = 0.4
    priors: Union[str, Sequence[float]] = "empirical"

    def __post_init__(self):
        object.__setattr__(self, "k", as_int(self.k, "k"))
        if self.k < 1:
            raise ValueError("k must be positive")
        if not (0.0 < self.tau <= 1.0):
            raise ValueError("tau must lie in (0, 1]")
        if isinstance(self.priors, str):
            if self.priors != "empirical":
                raise ValueError("priors must be 'empirical' or an explicit sequence")
        else:
            p = np.asarray(self.priors, dtype=np.float64)
            if not (np.all(p >= 0) and abs(p.sum() - 1.0) <= 1e-9):
                raise ValueError("fixed priors must be non-negative and sum to 1")
            object.__setattr__(self, "priors", tuple(float(v) for v in p))


def class_priors(noisy_labels: np.ndarray, num_classes: int,
                 config: CutstatsConfig) -> np.ndarray:
    if isinstance(config.priors, str):
        counts = np.bincount(noisy_labels, minlength=num_classes)
        return counts / counts.sum()
    p = np.asarray(config.priors, dtype=np.float64)
    if p.size != num_classes:
        raise ValueError("fixed priors must cover every class")
    return p


def cutstats_scores(rep: RepresentedDataset, table: NeighborTable,
                    config: CutstatsConfig) -> np.ndarray:
    """Per-sample z-scores; smaller = more consistent with its neighborhood."""
    ds = rep.base
    if table.neighbor_rows.shape[0] != ds.n:
        raise ValueError(f"table has {table.neighbor_rows.shape[0]} rows, dataset has {ds.n}")
    priors = class_priors(ds.noisy_labels, ds.num_classes, config)
    p_i = priors[ds.noisy_labels]
    if np.any(p_i <= 0.0) or np.any(p_i >= 1.0):
        raise ValueError("degenerate prior: P(yhat) in {0, 1} gives sigma = 0")
    w = 1.0 / (1.0 + table.distances)
    disagree = ds.noisy_labels[table.neighbor_rows] != ds.noisy_labels[:, None]
    J = np.einsum("ij,ij->i", w, disagree.astype(np.float64))
    sum_w = w.sum(axis=1)
    sum_w2 = np.einsum("ij,ij->i", w, w)
    mu = (1.0 - p_i) * sum_w
    sigma = np.sqrt(p_i * (1.0 - p_i) * sum_w2)
    return (J - mu) / sigma

