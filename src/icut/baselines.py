"""Comparison selectors: random scores and herding.

Random, like cutstats, entropy and forgetting (``mlp.entropy_scores``,
``mlp.forgetting_counts``), is a per-sample score that ``core.rank_select``
ranks.  Herding keeps its own pick order: a greedy mean-matching scan per
noisy class in the chosen representation space.
"""

from __future__ import annotations

import warnings

import numpy as np

from . import kernels
from .core import SelectionResult, round_half_up, seeded_rng
from .representation import RepresentedDataset


def random_scores(n: int, seed: int) -> np.ndarray:
    """Uniform scores; ranking them draws round(tau*n) ids without replacement."""
    return seeded_rng(seed, 29).random(n)


def _class_shares(labels: np.ndarray, num_classes: int, total: int) -> np.ndarray:
    """Floor of each class's proportional share; remainders to largest classes.

    For total <= n the remainder is below the number of non-empty classes,
    each of which is then under its size, so one extra pick each suffices.
    """
    sizes = np.bincount(labels, minlength=num_classes)
    shares = (total * sizes) // labels.size
    by_size = np.lexsort((np.arange(num_classes), -sizes))
    shares[by_size[: total - int(shares.sum())]] += 1
    return shares


def herding_select(rep: RepresentedDataset, tau: float) -> SelectionResult:
    """Greedy per-class mean matching in representation space.

    Each noisy class contributes its proportional share of round(tau*n);
    within a class, samples are added one at a time to keep the running
    mean of the picked set as close as possible to the class mean.
    """
    if not (0.0 < tau <= 1.0):
        raise ValueError("tau must lie in (0, 1]")
    base = rep.base
    X = rep.representations
    total = round_half_up(tau * base.n)
    shares = _class_shares(base.noisy_labels, base.num_classes, total)
    scores = np.full(base.n, float(base.n))
    picked_ids = []
    for c in range(base.num_classes):
        rows = np.flatnonzero(base.noisy_labels == c)
        if rows.size == 0:
            warnings.warn(f"class {c} has no samples; skipped")
            continue
        if shares[c] == 0:
            continue
        rows = rows[np.argsort(base.ids[rows], kind="stable")]
        Xc = X[rows]
        picks = kernels.herding_greedy(Xc, Xc.mean(axis=0), int(shares[c]))
        chosen = rows[picks]
        scores[chosen] = np.arange(picks.size, dtype=np.float64)
        picked_ids.append(base.ids[chosen])
    selected = np.concatenate(picked_ids) if picked_ids else np.empty(0, dtype=np.int64)
    return SelectionResult(scores=scores, selected=selected)
