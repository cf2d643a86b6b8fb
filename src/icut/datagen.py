"""Synthetic benchmark generation for the orthogonal and permutation groups.

The orthogonal family draws features uniformly per coordinate and labels
by thresholding

    h(x) = k1*sin(c1*x.x) + k2*sin(c2*x.x)**2 + k3*cos(c3*x.x)

at zero, with (c1, c2, c3, k1, k2, k3) = ORTHOGONAL_PARAMS; h depends on
x only through x.x, so labels are invariant under any rotation.  The
permutation family uses

    h(x) = sum_{k=1..l} sum_i sin(x_i**k),   l = PERMUTATION_POWERS,

thresholded at the mean of h over the training split (the same threshold
is reused for the test split); h is a symmetric sum, so labels are
invariant under any coordinate permutation.  The powers x_i**k are running
products, one multiply per power, so h differs from a libm pow evaluation
only by rounding, a few ulps.  For a very wide custom feature
range an ulp of x_i**5 is no longer small against 2*pi; there sin(x_i**5),
and so a label, depends on rounding under any formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .core import LabeledDataset, as_int, seeded_rng

GROUPS = ("orthogonal", "permutation")

ORTHOGONAL_PARAMS = (1.0, 2.0, 3.0, 2.0, 3.0, 4.0)  # (c1, c2, c3, k1, k2, k3)
PERMUTATION_POWERS = 5

# Per-coordinate feature supports.  The generating functions' band
# structure is scale sensitive, and these widths set the synthetic
# benchmarks' difficulty; see the package README for how they were chosen.
DEFAULT_RANGE = {"orthogonal": (-0.624, 0.624), "permutation": (-1.35, 1.35)}
DEFAULT_DIM = {"orthogonal": 100, "permutation": 5}


@dataclass(frozen=True)
class SyntheticSpec:
    group: str
    d: Optional[int] = None         # None = group default
    n_train: int = 20000
    n_test: int = 5000
    feature_range: Optional[Tuple[float, float]] = None  # None = group default

    def __post_init__(self):
        if self.group not in GROUPS:
            raise ValueError(f"unknown group {self.group!r}")
        if self.d is None:
            object.__setattr__(self, "d", DEFAULT_DIM[self.group])
        for name in ("d", "n_train", "n_test"):
            object.__setattr__(self, name, as_int(getattr(self, name), name))
        if self.feature_range is None:
            object.__setattr__(self, "feature_range", DEFAULT_RANGE[self.group])
        lo, hi = self.feature_range
        if not (lo < hi):
            raise ValueError("degenerate feature range")
        if self.d < 1 or self.n_train < 1 or self.n_test < 1:
            raise ValueError("d and split sizes must be positive")
        # Sampling needs hi - lo, the l2norm map and the orthogonal h need x.x,
        # and the permutation h needs x_i^PERMUTATION_POWERS, finite in float64.
        # math.prod is the labeler's own running product, and rounding is
        # monotone, so no |x_i| <= top can overflow where top's product does not.
        top = max(abs(lo), abs(hi))
        if not math.isfinite(hi - lo):
            raise ValueError("feature range too wide: hi - lo overflows float64")
        if not math.isfinite(self.d * top * top):
            raise ValueError("feature range too wide: d * max(lo^2, hi^2) overflows float64")
        if (self.group == "permutation"
                and not math.isfinite(math.prod([top] * PERMUTATION_POWERS))):
            raise ValueError(f"feature range too wide: max(|lo|, |hi|)^{PERMUTATION_POWERS} "
                             "overflows float64")


@dataclass(frozen=True)
class NoiseSpec:
    flip_probability: float
    num_classes: int = 2

    def __post_init__(self):
        object.__setattr__(self, "num_classes", as_int(self.num_classes, "num_classes"))
        if not (0.0 <= self.flip_probability <= 1.0):
            raise ValueError("flip probability must lie in [0, 1]")
        if self.num_classes < 2:
            raise ValueError("need at least 2 classes")


def _h_orthogonal(X: np.ndarray) -> np.ndarray:
    c1, c2, c3, k1, k2, k3 = ORTHOGONAL_PARAMS
    s = np.einsum("ij,ij->i", X, X)
    return k1 * np.sin(c1 * s) + k2 * np.sin(c2 * s) ** 2 + k3 * np.cos(c3 * s)


def _h_permutation(X: np.ndarray) -> np.ndarray:
    # x^k as a running product, one multiply per power: numpy sends X ** k
    # for k >= 3 through libm pow per element, about 100x slower.  x^k
    # takes k - 1 roundings, so h differs from a pow evaluation only by
    # rounding, a few ulps.
    out = np.sin(X).sum(axis=1)
    P = X.copy()
    for _ in range(2, PERMUTATION_POWERS + 1):
        P *= X
        out += np.sin(P).sum(axis=1)
    return out


def generating_function(spec: SyntheticSpec, X: np.ndarray) -> np.ndarray:
    """h(x) row-wise for the spec's group."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if spec.group == "orthogonal":
        return _h_orthogonal(X)
    return _h_permutation(X)


def generate_synthetic(spec: SyntheticSpec,
                       seed: int = 0) -> Tuple[LabeledDataset, LabeledDataset]:
    """Deterministic (train, test) splits for the spec and seed.

    Both splits are labeled by one function: the orthogonal threshold is
    zero, the permutation threshold is the train-split mean of h.
    """
    rng = seeded_rng(seed, 11)
    lo, hi = spec.feature_range
    total = spec.n_train + spec.n_test
    X = rng.uniform(lo, hi, size=(total, spec.d))
    h = generating_function(spec, X)
    threshold = 0.0 if spec.group == "orthogonal" else float(h[: spec.n_train].mean())
    y = (h >= threshold).astype(np.int64)

    def make(X_part, y_part):
        n = X_part.shape[0]
        return LabeledDataset(
            features=X_part,
            noisy_labels=y_part.copy(),
            num_classes=2,
            ids=np.arange(n, dtype=np.int64),
            true_labels=y_part,
        )

    train = make(X[: spec.n_train], y[: spec.n_train])
    test = make(X[spec.n_train :], y[spec.n_train :])
    return train, test


def inject_label_noise(dataset: LabeledDataset, noise: NoiseSpec,
                       seed: int = 0) -> LabeledDataset:
    """Flip each true label w.p. p to a uniformly chosen different class."""
    if dataset.true_labels is None:
        raise ValueError("ground truth unavailable")
    C = noise.num_classes
    if dataset.num_classes > C:
        raise ValueError("noise spec covers fewer classes than the dataset")
    rng = seeded_rng(seed, 13)
    n = dataset.n
    flips = rng.random(n) < noise.flip_probability
    offsets = rng.integers(1, C, size=n)
    noisy = np.where(flips, (dataset.true_labels + offsets) % C, dataset.true_labels)
    return LabeledDataset(
        features=dataset.features,
        noisy_labels=noisy.astype(np.int64),
        num_classes=C,
        ids=dataset.ids,
        true_labels=dataset.true_labels,
    )
