"""Domain types, metrics, and the shared ranking rule."""

import math
import re
import types

import numpy as np
import pytest

from icut import baselines, datagen, mlp, representation, theory
from icut import (LabeledDataset, Metrics, MlpConfig, NoiseSpec, SelectionResult,
                  SyntheticSpec, balanced_error, check_sorted_density, compute_representation,
                  generate_synthetic, inject_label_noise, perturb_representation,
                  random_scores, rank_select, round_half_up, subset_accuracy, summarize_runs,
                  train_mlp, validate_prop1_monte_carlo)
from icut.core import seeded_rng
from icut.theory import theory_checks
from conftest import legacy_rng, random_dataset


# --- seeded_rng --------------------------------------------------------------

SMALL = random_dataset(40, 3, seed=4)

# (module whose seeded_rng the stage calls, the stage's stream tag, one call at a seed)
SEEDED_ENTRY_POINTS = {
    "generate_synthetic": (datagen, 11, lambda s: generate_synthetic(
        SyntheticSpec("orthogonal", d=3, n_train=20, n_test=10), s)),
    "inject_label_noise": (datagen, 13, lambda s: inject_label_noise(SMALL, NoiseSpec(0.3), s)),
    "perturb_representation": (representation, 19, lambda s: perturb_representation(
        compute_representation(SMALL, "l2norm"), 0.1, s)),
    "train_mlp": (mlp, 23, lambda s: train_mlp(
        SMALL, MlpConfig(hidden_units=4, epochs=1, batch_size=16), s)),
    "random_scores": (baselines, 29, lambda s: random_scores(10, s)),
    "validate_prop1_monte_carlo": (theory, 31, lambda s: validate_prop1_monte_carlo(
        0.3, 0.2, 0.7, 0.7, trials=10**4, seed=s)),
    "check_sorted_density": (theory, 37, lambda s: check_sorted_density(2, 10**5, seed=s)),
    "theory_checks": (theory, 41, lambda s: theory_checks(trials=10**4, tuples=1, seed=s)),
}


@pytest.mark.parametrize("name", list(SEEDED_ENTRY_POINTS))
def test_seeded_entry_points_refuse_non_integral_seeds_and_keep_their_streams(
        monkeypatch, name):
    module, stream, call = SEEDED_ENTRY_POINTS[name]
    for bad in (0.5, math.nan, math.inf, "1"):
        # theory_checks refuses at the call, before its first check runs
        with pytest.raises(ValueError, match=re.escape(f"seed must be an integer, got {bad!r}")):
            call(bad)
    states = []

    def spy(seed, tag):
        rng = seeded_rng(seed, tag)
        if tag == stream:
            states.append(rng.bit_generator.state)
        return rng

    monkeypatch.setattr(module, "seeded_rng", spy)
    for seed in (0, 3, -1, 2**64 + 5, np.int64(7), 7.0):
        states.clear()
        result = call(seed)
        if isinstance(result, types.GeneratorType):
            list(result)
        assert states[0] == legacy_rng(seed, stream).bit_generator.state, seed


# --- round_half_up -----------------------------------------------------------


def test_round_half_up_halves_go_up():
    assert round_half_up(0.5) == 1
    assert round_half_up(1.5) == 2
    assert round_half_up(2.5) == 3


def test_round_half_up_plain_cases():
    assert round_half_up(2.4) == 2
    assert round_half_up(2.6) == 3
    assert round_half_up(0.0) == 0


# --- LabeledDataset ----------------------------------------------------------


def test_dataset_basic_shape_properties():
    ds = random_dataset(7, 3)
    assert ds.n == 7 and ds.d == 3
    assert ds.features.dtype == np.float64
    assert ds.noisy_labels.dtype == np.int64


def test_dataset_rejects_empty_features():
    with pytest.raises(ValueError, match="nonempty"):
        LabeledDataset(features=np.empty((0, 3)), noisy_labels=np.empty(0, dtype=int),
                       num_classes=2, ids=np.empty(0, dtype=int))


def test_dataset_rejects_length_mismatch():
    with pytest.raises(ValueError, match="match the feature row count"):
        LabeledDataset(features=np.zeros((3, 2)), noisy_labels=np.zeros(2, dtype=int),
                       num_classes=2, ids=np.arange(3))
    with pytest.raises(ValueError, match="^true_labels length must match the feature row count$"):
        LabeledDataset(features=np.zeros((3, 2)), noisy_labels=np.zeros(3, dtype=int),
                       num_classes=2, ids=np.arange(3), true_labels=np.zeros(2, dtype=int))


def test_dataset_rejects_out_of_range_labels():
    with pytest.raises(ValueError, match="lie in"):
        LabeledDataset(features=np.zeros((2, 2)), noisy_labels=np.array([0, 2]),
                       num_classes=2, ids=np.arange(2))


def test_dataset_rejects_duplicate_ids():
    with pytest.raises(ValueError, match="unique"):
        LabeledDataset(features=np.zeros((2, 2)), noisy_labels=np.zeros(2, dtype=int),
                       num_classes=2, ids=np.array([4, 4]))


def test_dataset_finds_duplicate_ids_anywhere():
    with pytest.raises(ValueError, match="unique"):
        LabeledDataset(features=np.zeros((4, 2)), noisy_labels=np.zeros(4, dtype=int),
                       num_classes=2, ids=np.array([9, -3, 5, -3]))


@pytest.mark.parametrize("field,values", [
    ("ids", [0.5, 1.5, 2.5]),
    ("ids", [0.0, np.nan, 2.0]),
    ("ids", [0.0, 1.0, np.inf]),
    ("ids", [0.0, 1.0, 2.0**63]),
    ("ids", np.array([0, 1, 2**63], dtype=np.uint64)),
    ("ids", np.array([0, 1, 2**70], dtype=object)),
    ("noisy_labels", [0.0, 0.9, 1.7]),
    ("noisy_labels", [0.0, 1.0, -np.inf]),
    ("true_labels", [0.0, 1.0, 0.5]),
])
def test_dataset_rejects_values_the_int64_cast_would_change(field, values):
    fields = dict(features=np.zeros((3, 2)), noisy_labels=np.zeros(3, dtype=int),
                  num_classes=2, ids=np.arange(3), true_labels=np.zeros(3, dtype=int))
    fields[field] = values
    with pytest.raises(ValueError, match=f"^{field} must be integers"):
        LabeledDataset(**fields)


def test_dataset_takes_integral_floats_and_the_int64_extremes():
    ds = LabeledDataset(features=np.zeros((3, 2)), noisy_labels=[0.0, 1.0, -0.0],
                        num_classes=2, ids=[-2.0**63, 2.0**63 - 1024, 7.0],
                        true_labels=np.array([1, 0, 1], dtype=np.uint8))
    assert ds.ids.tolist() == [-2**63, 2**63 - 1024, 7]
    assert ds.noisy_labels.tolist() == [0, 1, 0]
    assert ds.true_labels.dtype == np.int64


def test_dataset_rejects_too_few_classes():
    with pytest.raises(ValueError, match="at least 2"):
        LabeledDataset(features=np.zeros((2, 2)), noisy_labels=np.zeros(2, dtype=int),
                       num_classes=1, ids=np.arange(2))


@pytest.mark.parametrize("count", [2.5, np.nan, "2"])
def test_dataset_rejects_non_integer_class_count(count):
    with pytest.raises(ValueError, match="^num_classes must be an integer"):
        LabeledDataset(features=np.zeros((2, 2)), noisy_labels=np.zeros(2, dtype=int),
                       num_classes=count, ids=np.arange(2))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_dataset_rejects_nonfinite_features(bad):
    feats = np.zeros((3, 2))
    feats[1, 0] = bad
    with pytest.raises(ValueError, match="non-finite feature value"):
        LabeledDataset(features=feats, noisy_labels=np.zeros(3, dtype=int),
                       num_classes=2, ids=np.arange(3))


def test_restrict_preserves_requested_order():
    ds = random_dataset(10, 2, seed=3, shuffle_ids=True)
    want = ds.ids[[7, 2, 5]]
    sub = ds.restrict(want)
    assert np.array_equal(sub.ids, want)
    assert np.array_equal(sub.features, ds.features[[7, 2, 5]])
    assert np.array_equal(sub.noisy_labels, ds.noisy_labels[[7, 2, 5]])


def test_index_of_unknown_id_raises():
    ds = random_dataset(5, 2)
    with pytest.raises(ValueError, match="unknown sample id"):
        ds.index_of(np.array([99]))


# --- SelectionResult ---------------------------------------------------------


def test_selection_rejects_nonfinite_scores():
    with pytest.raises(ValueError, match="finite"):
        SelectionResult(scores=np.array([0.0, np.nan]), selected=np.arange(1))


# --- Metrics -----------------------------------------------------------------


def test_metrics_rejects_out_of_range_values():
    with pytest.raises(ValueError, match="outside"):
        Metrics(classifier_accuracy=1.2)
    with pytest.raises(ValueError, match="outside"):
        Metrics(balanced_error=-0.1)


# --- subset_accuracy ---------------------------------------------------------


def _selection_of(ids):
    ids = np.asarray(ids, dtype=np.int64)
    return SelectionResult(scores=np.zeros(ids.size), selected=ids)


def test_subset_accuracy_noiseless_is_one():
    ds = random_dataset(20, 3, seed=1)
    assert subset_accuracy(_selection_of(ds.ids), ds) == 1.0


def test_subset_accuracy_direct_count():
    ds = LabeledDataset(features=np.zeros((4, 1)), noisy_labels=[0, 1, 1, 1],
                        num_classes=2, ids=np.arange(4), true_labels=[0, 0, 1, 1])
    assert subset_accuracy(_selection_of(ds.ids), ds) == 0.75


def test_subset_accuracy_invariant_to_sample_order():
    ds = LabeledDataset(features=np.zeros((4, 1)), noisy_labels=[0, 1, 1, 1],
                        num_classes=2, ids=np.arange(4), true_labels=[0, 0, 1, 1])
    assert subset_accuracy(_selection_of([3, 0, 2, 1]), ds) == 0.75


def test_subset_accuracy_requires_truth():
    ds = random_dataset(4, 1, with_truth=False)
    with pytest.raises(ValueError, match="ground truth unavailable"):
        subset_accuracy(_selection_of(ds.ids), ds)


def test_subset_accuracy_rejects_empty_selection():
    ds = random_dataset(4, 1)
    sel = SelectionResult(scores=np.zeros(4), selected=np.empty(0, dtype=int))
    with pytest.raises(ValueError, match="empty selection"):
        subset_accuracy(sel, ds)


# --- balanced_error ----------------------------------------------------------


def test_balanced_error_perfect_is_zero():
    assert balanced_error([0, 1, 0, 1], [0, 1, 0, 1]) == 0.0


def test_balanced_error_constant_prediction_on_balanced_truth():
    assert balanced_error([1, 1, 1, 1], [0, 0, 1, 1]) == 0.5


def test_balanced_error_direct_substitution():
    assert balanced_error([0, 1, 1, 1], [0, 0, 1, 1]) == 0.25


def test_balanced_error_label_flip_symmetry():
    rng = np.random.default_rng(5)
    truth = rng.integers(0, 2, size=60)
    pred = rng.integers(0, 2, size=60)
    assert balanced_error(pred, truth) == balanced_error(1 - pred, 1 - truth)


def test_balanced_error_rejects_unequal_lengths():
    with pytest.raises(ValueError, match="^predictions and truth must be equal-length 1-D"):
        balanced_error([0, 1], [0, 1, 1])


def test_balanced_error_invariant_to_sample_order():
    rng = np.random.default_rng(6)
    truth = rng.integers(0, 2, size=40)
    pred = rng.integers(0, 2, size=40)
    perm = rng.permutation(40)
    assert balanced_error(pred, truth) == balanced_error(pred[perm], truth[perm])


def test_balanced_error_undefined_without_both_classes():
    with pytest.raises(ValueError, match="undefined"):
        balanced_error([0, 0], [0, 0])
    with pytest.raises(ValueError, match="undefined"):
        balanced_error([0, 1], [0, 0])


# --- summarize_runs ----------------------------------------------------------


def test_summarize_single_run_has_zero_std():
    out = summarize_runs([Metrics(classifier_accuracy=0.8)])
    assert out["classifier_accuracy"] == (0.8, 0.0)


def test_summarize_mean_and_sample_std():
    runs = [Metrics(classifier_accuracy=v) for v in (0.6, 0.7, 0.8)]
    mean, std = summarize_runs(runs)["classifier_accuracy"]
    assert abs(mean - 0.7) < 1e-15
    assert abs(std - 0.1) < 1e-12


def test_summarize_identical_runs_have_near_zero_std():
    runs = [Metrics(subset_accuracy=0.4)] * 3
    mean, std = summarize_runs(runs)["subset_accuracy"]
    assert mean == pytest.approx(0.4, rel=1e-15)
    assert std == pytest.approx(0.0, abs=1e-15)


def test_summarize_mean_within_input_range():
    runs = [Metrics(subset_accuracy=v) for v in (0.2, 0.9, 0.5)]
    mean, _ = summarize_runs(runs)["subset_accuracy"]
    assert 0.2 <= mean <= 0.9


def test_summarize_rejects_no_runs():
    with pytest.raises(ValueError, match="no runs"):
        summarize_runs([])


# --- rank_select -------------------------------------------------------------


def test_rank_select_full_tau_keeps_everything():
    ids = np.array([4, 1, 9])
    assert set(rank_select(np.array([3.0, 1.0, 2.0]), ids, 1.0)) == {4, 1, 9}


def test_rank_select_takes_smallest_scores():
    ids = np.arange(4)
    out = rank_select(np.array([0.9, 0.1, 0.5, 0.2]), ids, 0.5)
    assert list(out) == [1, 3]


def test_rank_select_breaks_ties_by_ascending_id():
    ids = np.array([7, 3, 5, 1])
    out = rank_select(np.array([2.0, 2.0, 2.0, 2.0]), ids, 0.5)
    assert list(out) == [1, 3]


def test_rank_select_count_uses_round_half_up():
    ids = np.arange(5)
    assert rank_select(np.arange(5.0), ids, 0.5).size == 3  # 2.5 rounds up


def test_rank_select_rejects_nonfinite_scores():
    with pytest.raises(ValueError, match="finite"):
        rank_select(np.array([np.inf, 0.0]), np.arange(2), 0.5)


def test_rank_select_rejects_bad_tau():
    with pytest.raises(ValueError, match="tau"):
        rank_select(np.zeros(2), np.arange(2), 0.0)
    with pytest.raises(ValueError, match=r"tau must lie in \(0, 1\]"):
        rank_select(np.zeros(2), np.arange(2), float("nan"))
