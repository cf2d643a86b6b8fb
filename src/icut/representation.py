"""Representation maps and controlled corruption.

Three built-in maps (identity, the rotation-invariant l2 norm, the
permutation-invariant coordinate sort) plus ingestion of externally
computed embeddings.  ``perturb_representation`` adds calibrated Gaussian
noise to the l2norm map so its realized invariance error hits a requested
level -- the knob behind the invariance-error ablation.  Its calibration
applies no group action (||g.x|| = ||x||), but still draws each group
element, so the random stream and every result stay those of one that does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .core import LabeledDataset, REPRESENTATION_KINDS
from .datagen import draw_group_element
from .kernels import OVERFLOW

# Monte Carlo (x, g.x) pairs, and the relative band around the target.
CALIBRATION_TRIALS = 4000
CALIBRATION_TOLERANCE = 0.05


@dataclass(frozen=True)
class RepresentedDataset:
    base: LabeledDataset
    representations: np.ndarray
    kind: str

    def __post_init__(self):
        reps = np.asarray(self.representations, dtype=np.float64)
        if reps.ndim == 1:
            reps = reps[:, None]
        object.__setattr__(self, "representations", reps)
        if self.kind not in REPRESENTATION_KINDS:
            raise ValueError(f"unknown representation kind {self.kind!r}")
        if reps.shape[0] != self.base.n:
            raise ValueError("representation row count must match the dataset")
        if self.kind == "l2norm" and reps.shape[1] != 1:
            raise ValueError("l2norm representations must be one-dimensional")
        if self.kind in ("identity", "sort") and reps.shape[1] != self.base.d:
            raise ValueError("identity/sort representations must keep the feature width")
        if self.kind == "sort" and np.any(np.diff(reps, axis=1) < 0):
            raise ValueError("sort representations must be row-wise non-decreasing")

    @property
    def m(self) -> int:
        return self.representations.shape[1]


def compute_representation(dataset: LabeledDataset, kind: str) -> RepresentedDataset:
    if kind == "identity":
        reps = dataset.features.copy()
    elif kind == "l2norm":
        with np.errstate(over="ignore"):  # squares from about 1e154 up overflow
            reps = np.linalg.norm(dataset.features, axis=1)[:, None]
        if not np.all(np.isfinite(reps)):
            raise ValueError(OVERFLOW)
    elif kind == "sort":
        reps = np.sort(dataset.features, axis=1)
    else:
        raise ValueError(f"unknown representation kind {kind!r}")
    return RepresentedDataset(base=dataset, representations=reps, kind=kind)


def load_external_representation(dataset: LabeledDataset, path) -> RepresentedDataset:
    """Embedding CSV (`id,r0,...,r{m-1}`) matched to the dataset by id."""
    from .io import read_embedding_csv  # local import; io depends on core only

    ids, reps = read_embedding_csv(path)
    if ids.shape[0] != dataset.n:
        raise ValueError(
            f"row-count mismatch: embedding file has {ids.shape[0]} rows, dataset has {dataset.n}"
        )
    if not np.array_equal(np.sort(ids), np.sort(dataset.ids)):
        raise ValueError("id mismatch between embedding file and dataset")
    if not np.all(np.isfinite(reps)):
        raise ValueError("non-finite embedding value")
    # re-order file rows into dataset order
    order = np.argsort(ids, kind="stable")
    lookup = order[np.searchsorted(ids, dataset.ids, sorter=order)]
    return RepresentedDataset(base=dataset, representations=reps[lookup], kind="external")


def perturb_representation(rep: RepresentedDataset, target_error: float,
                           group: str = "orthogonal",
                           seed: int = 0) -> Tuple[RepresentedDataset, float]:
    """Gaussian-corrupt an l2norm representation to a target invariance error.

    The corrupted map is F'(x) = ||x|| + noise(sigma), fresh noise per
    evaluation.  The scale is found by bisection against the Monte Carlo
    estimate of E|F'(x) - F'(g.x)| over ``CALIBRATION_TRIALS`` pairs until
    the realized error is within ``CALIBRATION_TOLERANCE`` relative of
    ``target_error``.  Returns the perturbed dataset and the realized error.

    No group action is applied: ||g.x|| = ||x|| for every rotation and
    permutation.  Each pair still draws its group element, so the unit noise
    that follows, sigma and the result equal those of acting on each x.
    """
    if rep.kind != "l2norm":
        raise ValueError("perturbation is defined for the l2norm representation")
    if target_error < 0:
        raise ValueError("target error must be non-negative")
    if target_error == 0.0:
        return rep, 0.0
    if not np.all(np.isfinite(rep.representations)):
        raise ValueError(OVERFLOW)

    root = np.random.SeedSequence([int(seed) & (2**63 - 1), 19])
    measure_seed, apply_seed = root.spawn(2)

    # One (x, g.x) value pair and one unit-noise pair per trial, drawn
    # once and shared by every sigma: realized(sigma) is then a cheap
    # reduction and, crucially, exactly monotone in sigma, so bisection
    # cannot stall on Monte Carlo jitter.
    rng = np.random.default_rng(measure_seed)
    rows = rng.integers(rep.base.n, size=CALIBRATION_TRIALS)
    base_vals = np.array([np.linalg.norm(rep.base.features[r]) for r in rows])
    for _ in rows:
        draw_group_element(group, rep.base.d, rng)
    acted_vals = base_vals  # ||g.x|| = ||x||
    u1 = rng.standard_normal(CALIBRATION_TRIALS)
    u2 = rng.standard_normal(CALIBRATION_TRIALS)

    def realized(sigma: float) -> float:
        return float(np.mean(np.abs(base_vals + sigma * u1 - acted_vals - sigma * u2)))

    lo, hi = 0.0, max(target_error, 1e-6)
    for _ in range(60):
        if realized(hi) >= target_error:
            break
        hi *= 2.0
    else:
        raise ValueError("calibration failed to bracket the target error")
    sigma, got = hi, realized(hi)
    for _ in range(200):
        if abs(got - target_error) <= CALIBRATION_TOLERANCE * target_error:
            break
        mid = 0.5 * (lo + hi)
        got_mid = realized(mid)
        if got_mid < target_error:
            lo = mid
        else:
            hi = mid
        sigma, got = mid, got_mid
    if abs(got - target_error) > CALIBRATION_TOLERANCE * target_error:
        raise ValueError("calibration failed to converge")

    noise_rng = np.random.default_rng(apply_seed)
    noisy = rep.representations + sigma * noise_rng.standard_normal(rep.representations.shape)
    return RepresentedDataset(base=rep.base, representations=noisy, kind=rep.kind), got
