"""Synthetic generators, the group-action oracles, and label-noise injection."""

import numpy as np
import pytest

from icut import (LabeledDataset, NoiseSpec, SyntheticSpec, generate_synthetic,
                  generating_function, inject_label_noise)
from icut.datagen import DEFAULT_DIM, DEFAULT_RANGE, ORTHOGONAL_PARAMS, PERMUTATION_POWERS
from conftest import apply_group_action, haar_rotation, oracle_permutation_h, random_dataset


# --- spec construction -------------------------------------------------------


def test_spec_fills_group_defaults():
    spec = SyntheticSpec(group="orthogonal")
    assert spec.d == DEFAULT_DIM["orthogonal"]
    assert spec.feature_range == DEFAULT_RANGE["orthogonal"]


def test_spec_rejects_unknown_group():
    with pytest.raises(ValueError, match="unknown group"):
        SyntheticSpec(group="translation")


def test_spec_rejects_degenerate_range():
    with pytest.raises(ValueError, match="degenerate feature range"):
        SyntheticSpec(group="orthogonal", feature_range=(1.0, 1.0))


@pytest.mark.parametrize("group,feature_range,message", [
    ("orthogonal", (-1e308, 1e308), "hi - lo overflows"),
    ("orthogonal", (-1e300, 1e300), r"d \* max\(lo\^2, hi\^2\) overflows"),
    ("permutation", (0.0, 1e200), r"d \* max\(lo\^2, hi\^2\) overflows"),
    ("permutation", (-1e100, 1e100), r"max\(\|lo\|, \|hi\|\)\^5 overflows"),
], ids=["span", "orthogonal-norm", "permutation-norm", "permutation-power"])
def test_spec_rejects_ranges_that_overflow(group, feature_range, message):
    with pytest.raises(ValueError, match="feature range too wide: " + message):
        SyntheticSpec(group=group, feature_range=feature_range)


def test_spec_rejects_empty_splits():
    with pytest.raises(ValueError, match="positive"):
        SyntheticSpec(group="orthogonal", n_train=0)
    with pytest.raises(ValueError, match="positive"):
        SyntheticSpec(group="orthogonal", n_test=0)
    with pytest.raises(ValueError, match="positive"):
        SyntheticSpec(group="orthogonal", d=0)      # None, not 0, means the group default


@pytest.mark.parametrize("field,value", [
    ("d", 2.5), ("n_train", 100.5), ("n_test", float("nan")), ("d", float("inf")), ("d", "5"),
])
def test_spec_rejects_non_integer_sizes(field, value):
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        SyntheticSpec(group="permutation", **{field: value})


def test_spec_stores_integral_sizes_as_int():
    spec = SyntheticSpec(group="permutation", d=np.int64(3), n_train=np.int32(40), n_test=20.0)
    assert (spec.d, spec.n_train, spec.n_test) == (3, 40, 20)
    assert all(type(v) is int for v in (spec.d, spec.n_train, spec.n_test))
    train, test = generate_synthetic(spec, 0)
    assert train.features.shape == (40, 3) and test.features.shape == (20, 3)


# --- generating functions ----------------------------------------------------


def test_orthogonal_generator_matches_hand_formula():
    spec = SyntheticSpec(group="orthogonal", d=4)
    rng = np.random.default_rng(0)
    X = rng.normal(size=(50, 4))
    c1, c2, c3, k1, k2, k3 = ORTHOGONAL_PARAMS
    s = (X * X).sum(axis=1)
    want = k1 * np.sin(c1 * s) + k2 * np.sin(c2 * s) ** 2 + k3 * np.cos(c3 * s)
    assert np.allclose(generating_function(spec, X), want, atol=1e-12)


def test_permutation_generator_matches_hand_formula():
    spec = SyntheticSpec(group="permutation", d=3)
    rng = np.random.default_rng(1)
    X = rng.uniform(-1.0, 1.0, size=(40, 3))
    want = oracle_permutation_h(X, PERMUTATION_POWERS)
    assert np.allclose(generating_function(spec, X), want, atol=1e-12)


def test_permutation_labels_match_pow_oracle_labels():
    # h from running products differs from the pow form by a few ulps; at the
    # default spec no sample lies that close to the threshold, so the labels,
    # and everything downstream, agree exactly
    spec = SyntheticSpec(group="permutation")
    for seed in range(20):
        train, test = generate_synthetic(spec, seed)
        h = oracle_permutation_h(np.vstack([train.features, test.features]),
                                 PERMUTATION_POWERS)
        y = (h >= h[: train.n].mean()).astype(np.int64)
        assert np.array_equal(train.true_labels, y[: train.n]), seed
        assert np.array_equal(test.true_labels, y[train.n :]), seed


def test_orthogonal_generator_is_rotation_invariant():
    spec = SyntheticSpec(group="orthogonal", d=6)
    rng = np.random.default_rng(2)
    X = rng.uniform(-0.6, 0.6, size=(100, 6))
    Q = haar_rotation(6, rng)
    assert np.max(np.abs(generating_function(spec, X)
                         - generating_function(spec, X @ Q.T))) <= 1e-9


def test_permutation_generator_is_symmetric():
    spec = SyntheticSpec(group="permutation", d=5)
    rng = np.random.default_rng(3)
    X = rng.uniform(-1.3, 1.3, size=(100, 5))
    perm = rng.permutation(5)
    assert np.max(np.abs(generating_function(spec, X)
                         - generating_function(spec, X[:, perm]))) <= 1e-9


# --- generate_synthetic ------------------------------------------------------


def test_generation_is_deterministic_per_seed():
    spec = SyntheticSpec(group="orthogonal", d=8, n_train=200, n_test=50)
    a_train, a_test = generate_synthetic(spec, seed=5)
    b_train, b_test = generate_synthetic(spec, seed=5)
    assert np.array_equal(a_train.features, b_train.features)
    assert np.array_equal(a_test.features, b_test.features)
    assert np.array_equal(a_train.true_labels, b_train.true_labels)


def test_different_seeds_differ():
    spec = SyntheticSpec(group="orthogonal", d=8, n_train=200, n_test=50)
    a, _ = generate_synthetic(spec, seed=5)
    b, _ = generate_synthetic(spec, seed=6)
    assert not np.array_equal(a.features, b.features)


def test_generated_data_starts_clean():
    train, test = generate_synthetic(
        SyntheticSpec(group="permutation", n_train=500, n_test=100))
    for split in (train, test):
        assert np.array_equal(split.noisy_labels, split.true_labels)
        assert split.num_classes == 2


def test_features_respect_range():
    spec = SyntheticSpec(group="orthogonal", d=4, n_train=300, n_test=50,
                         feature_range=(-0.25, 0.25))
    train, _ = generate_synthetic(spec)
    assert train.features.min() >= -0.25 and train.features.max() <= 0.25


def test_permutation_threshold_is_shared_between_splits():
    spec = SyntheticSpec(group="permutation", n_train=2000, n_test=500)
    train, test = generate_synthetic(spec, seed=9)
    h_train = generating_function(spec, train.features)
    threshold = h_train.mean()
    want = (generating_function(spec, test.features) >= threshold).astype(int)
    assert np.array_equal(test.true_labels, want)


def test_permutation_mean_threshold_near_balance():
    train, _ = generate_synthetic(SyntheticSpec(group="permutation"), seed=0)
    frac = train.true_labels.mean()
    assert 0.40 <= frac <= 0.60


def test_labels_invariant_under_sampled_group_actions():
    # zero violations over 10^4 random (sample, action) pairs, both groups
    for group, d in (("orthogonal", 12), ("permutation", 5)):
        spec = SyntheticSpec(group=group, d=d, n_train=800, n_test=1)
        train, _ = generate_synthetic(spec, seed=4)
        h = generating_function(spec, train.features)
        threshold = 0.0 if group == "orthogonal" else h.mean()
        rng = np.random.default_rng(11)
        rows = rng.integers(train.n, size=10**4)
        acted = np.stack([apply_group_action(group, train.features[i], rng)
                          for i in rows])
        labels = (generating_function(spec, acted) >= threshold).astype(int)
        assert np.array_equal(labels, train.true_labels[rows])


# --- group actions (the conftest oracles) -------------------------------------


def test_haar_rotation_is_special_orthogonal():
    rng = np.random.default_rng(7)
    for d in (2, 5, 9):
        Q = haar_rotation(d, rng)
        assert np.allclose(Q @ Q.T, np.eye(d), atol=1e-12)
        assert abs(np.linalg.det(Q) - 1.0) < 1e-9


def test_orthogonal_action_preserves_norm():
    rng = np.random.default_rng(8)
    x = rng.normal(size=30)
    gx = apply_group_action("orthogonal", x, 3)
    assert abs(np.linalg.norm(gx) - np.linalg.norm(x)) <= 1e-9


def test_orthogonal_action_on_unit_vector_stays_on_circle():
    gx = apply_group_action("orthogonal", np.array([1.0, 0.0]), 5)
    assert abs(np.linalg.norm(gx) - 1.0) <= 1e-9


def test_permutation_action_preserves_multiset():
    x = np.array([3.0, -1.0, 2.0, 2.0, 7.0])
    gx = apply_group_action("permutation", x, 4)
    assert np.array_equal(np.sort(gx), np.sort(x))


def test_group_action_rejects_unknown_group():
    with pytest.raises(ValueError, match="unknown group"):
        apply_group_action("affine", np.ones(3), 0)


def test_group_action_rejects_empty_vector():
    with pytest.raises(ValueError, match="nonempty"):
        apply_group_action("orthogonal", np.empty(0), 0)


# --- label noise -------------------------------------------------------------


def test_noise_p_zero_changes_nothing():
    ds = random_dataset(100, 3, seed=2)
    noisy = inject_label_noise(ds, NoiseSpec(0.0))
    assert np.array_equal(noisy.noisy_labels, ds.true_labels)


def test_noise_p_one_binary_flips_everything():
    ds = random_dataset(100, 3, seed=2)
    noisy = inject_label_noise(ds, NoiseSpec(1.0))
    assert np.array_equal(noisy.noisy_labels, 1 - ds.true_labels)


def test_noise_multiclass_flips_land_on_other_classes():
    ds = random_dataset(200, 2, num_classes=4, seed=3)
    noisy = inject_label_noise(ds, NoiseSpec(1.0, num_classes=4))
    assert np.all(noisy.noisy_labels != ds.true_labels)
    assert noisy.noisy_labels.max() < 4


def test_noise_flip_fraction_concentrates():
    # binomial 3 sigma at p=0.45, n=20000 is ~0.0106
    ds = random_dataset(20000, 1, seed=4)
    noisy = inject_label_noise(ds, NoiseSpec(0.45), seed=4)
    frac = np.mean(noisy.noisy_labels != ds.true_labels)
    assert abs(frac - 0.45) <= 0.0106


def test_noise_is_deterministic_per_seed():
    ds = random_dataset(300, 2, seed=5)
    a = inject_label_noise(ds, NoiseSpec(0.3), seed=1)
    b = inject_label_noise(ds, NoiseSpec(0.3), seed=1)
    c = inject_label_noise(ds, NoiseSpec(0.3), seed=2)
    assert np.array_equal(a.noisy_labels, b.noisy_labels)
    assert not np.array_equal(a.noisy_labels, c.noisy_labels)


def test_noise_requires_ground_truth():
    ds = random_dataset(10, 2, with_truth=False)
    with pytest.raises(ValueError, match="ground truth unavailable"):
        inject_label_noise(ds, NoiseSpec(0.5))


def test_noise_spec_validation():
    with pytest.raises(ValueError, match="flip probability"):
        NoiseSpec(1.5)
    with pytest.raises(ValueError, match="at least 2"):
        NoiseSpec(0.5, num_classes=1)


@pytest.mark.parametrize("count", [2.5, float("nan"), "3"])
def test_noise_spec_rejects_non_integer_class_count(count):
    with pytest.raises(ValueError, match="^num_classes must be an integer"):
        NoiseSpec(0.1, num_classes=count)


def test_noise_rejects_narrower_class_count_than_data():
    ds = random_dataset(20, 2, num_classes=3, seed=6)
    with pytest.raises(ValueError, match="fewer classes"):
        inject_label_noise(ds, NoiseSpec(0.5, num_classes=2))
