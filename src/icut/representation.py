"""Representation maps and controlled corruption.

Three built-in maps (identity, the rotation-invariant l2 norm, the
permutation-invariant coordinate sort) plus ingestion of externally
computed embeddings.  ``perturb_representation`` adds Gaussian noise to the
l2norm map so its realized invariance error hits a requested level -- the
knob behind the invariance-error ablation.  The noise scale is set in closed
form from the noise itself, and the error is measured on the returned rows;
inputs on which the noise rounds away or overflows fail with a named error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .core import LabeledDataset, REPRESENTATION_KINDS, id_positions, seeded_rng
from .kernels import OVERFLOW

# Relative band around the target that the realized error must fall in.
CALIBRATION_TOLERANCE = 0.05
CALIBRATION_MISSED = ("realized invariance error misses the target: the calibrated noise "
                      "rounds away against the l2norm values, or overflows float64")


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
        reps = dataset.features   # shared: no stage writes into a representation
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
    # The file row of each dataset id.  Dataset ids are unique and the counts
    # match, so finding every one of them makes the file's ids the same set.
    lookup = id_positions(ids, dataset.ids)
    if lookup is None:
        raise ValueError("id mismatch between embedding file and dataset")
    if not np.all(np.isfinite(reps)):
        raise ValueError("non-finite embedding value")
    return RepresentedDataset(base=dataset, representations=reps[lookup], kind="external")


def perturb_representation(rep: RepresentedDataset, target_error: float,
                           seed: int = 0) -> Tuple[RepresentedDataset, float]:
    """Gaussian-corrupt an l2norm representation to a target invariance error.

    The corrupted map is F'(x) = ||x|| + sigma*u, fresh noise u per
    evaluation; F'(x) and F'(g.x) differ only in their noise, since
    ||g.x|| = ||x||.  Two unit draws u1, u2 per row give sigma in closed
    form, sigma = target / mean|u1 - u2|, and the representation returned is
    F' = F + sigma*u1.  The realized error is measured on those rows against
    a second evaluation F + sigma*u2; if it misses the target by more than
    ``CALIBRATION_TOLERANCE`` relative (the noise rounds away against large
    values, or overflows), ``CALIBRATION_MISSED`` is raised.  Returns the
    perturbed dataset and the realized error.
    """
    if rep.kind != "l2norm":
        raise ValueError("perturbation is defined for the l2norm representation")
    if not 0.0 <= target_error < math.inf:
        raise ValueError("target error must be non-negative")
    rng = seeded_rng(seed, 19)
    if target_error == 0.0:
        return rep, 0.0
    values = rep.representations
    if not np.all(np.isfinite(values)):
        raise ValueError(OVERFLOW)

    u1 = rng.standard_normal(values.shape)
    u2 = rng.standard_normal(values.shape)
    sigma = target_error / float(np.mean(np.abs(u1 - u2)))
    with np.errstate(over="ignore", invalid="ignore"):  # a NaN or inf fails the test below
        noisy = values + sigma * u1
        realized = float(np.mean(np.abs(noisy - (values + sigma * u2))))
    if not abs(realized - target_error) <= CALIBRATION_TOLERANCE * target_error:
        raise ValueError(CALIBRATION_MISSED)
    return RepresentedDataset(base=rep.base, representations=noisy, kind=rep.kind), realized
