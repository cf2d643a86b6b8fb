"""Comparison selectors: random, entropy and forgetting scores ranked by
``rank_select``, and herding."""

import numpy as np
import pytest

from icut import (LabeledDataset, NoiseSpec, RepresentedDataset, SelectionResult,
                  compute_representation, herding_select, inject_label_noise,
                  random_scores, rank_select, round_half_up, subset_accuracy)
from icut.baselines import _class_shares
from conftest import random_dataset


# --- random ---------------------------------------------------------------------


def _random_ids(ds, tau, seed=0):
    return rank_select(random_scores(ds.n, seed), ds.ids, tau)


def test_random_full_tau_keeps_all_ids():
    ds = random_dataset(10, 2, seed=1)
    assert set(_random_ids(ds, 1.0)) == set(ds.ids)


def test_random_is_deterministic_per_seed():
    ds = random_dataset(100, 2, seed=2)
    a = _random_ids(ds, 0.4, seed=5)
    b = _random_ids(ds, 0.4, seed=5)
    c = _random_ids(ds, 0.4, seed=6)
    assert np.array_equal(a, b)
    assert not np.array_equal(np.sort(a), np.sort(c))


def test_random_selects_exact_count():
    ds = random_dataset(101, 2, seed=3)
    assert _random_ids(ds, 0.5).size == round_half_up(0.5 * 101)


def test_random_subset_accuracy_tracks_clean_fraction():
    ds = random_dataset(20000, 1, seed=4)
    noisy = inject_label_noise(ds, NoiseSpec(0.45), seed=4)
    scores = random_scores(noisy.n, 0)
    sel = SelectionResult(scores=scores, selected=rank_select(scores, noisy.ids, 0.4))
    clean_fraction = np.mean(noisy.noisy_labels == noisy.true_labels)
    # 4 binomial sigmas over the 8000 retained samples
    sigma = np.sqrt(clean_fraction * (1 - clean_fraction) / sel.selected.size)
    assert abs(subset_accuracy(sel, noisy) - clean_fraction) <= 4 * sigma


def test_random_count_must_be_an_integer():
    with pytest.raises(ValueError, match="^n must be an integer, got 2.5"):
        random_scores(2.5, 0)
    assert np.array_equal(random_scores(4.0, 0), random_scores(4, 0))


def test_random_count_must_be_non_negative():
    with pytest.raises(ValueError, match="^n must be non-negative, got n=-1$"):
        random_scores(-1, 0)
    assert random_scores(0, 0).shape == (0,)


def test_random_rejects_bad_tau():
    with pytest.raises(ValueError, match="tau"):
        _random_ids(random_dataset(4, 1), 0.0)


# --- entropy and forgetting scores, ranked --------------------------------------


def test_entropy_all_equal_falls_back_to_lowest_ids():
    ds = random_dataset(6, 1, seed=5, shuffle_ids=True)
    assert list(rank_select(np.full(6, 0.3), ds.ids, 0.5)) == sorted(ds.ids)[:3]


def test_entropy_zero_sample_wins_smallest_slot():
    ds = random_dataset(5, 1, seed=6)
    entropy = np.array([0.5, 0.4, 0.0, 0.6, 0.2])
    assert list(rank_select(entropy, ds.ids, 0.2)) == [2]


def test_entropy_full_tau_keeps_all():
    ds = random_dataset(7, 1, seed=7)
    assert set(rank_select(np.arange(7.0), ds.ids, 1.0)) == set(ds.ids)


def test_forget_zero_counts_fall_back_to_lowest_ids():
    ds = random_dataset(6, 1, seed=8)
    assert list(rank_select(np.zeros(6), ds.ids, 0.5)) == [0, 1, 2]


def test_forget_sentinel_sample_is_excluded():
    ds = random_dataset(4, 1, seed=9)
    counts = np.array([1.0, 20.0, 0.0, 2.0])  # sample 1 never learned
    selected = rank_select(counts, ds.ids, 0.75)
    assert 1 not in selected
    assert selected.size == 3


def test_forget_full_tau_keeps_all():
    ds = random_dataset(5, 1, seed=10)
    assert set(rank_select(np.arange(5.0), ds.ids, 1.0)) == set(ds.ids)


def test_entropy_rejects_length_mismatch():
    ids = random_dataset(5, 1).ids
    with pytest.raises(ValueError, match="equal length"):
        rank_select(np.zeros(4), ids, 0.5)


def test_forget_rejects_length_mismatch():
    ids = random_dataset(5, 1).ids
    with pytest.raises(ValueError, match="equal length"):
        rank_select(np.zeros(6), ids, 0.5)


# --- herding -------------------------------------------------------------------


def test_class_shares_floor_plus_remainders_to_largest():
    labels = np.array([0, 0, 0, 1, 1])
    assert list(_class_shares(labels, 2, 4)) == [3, 1]


def test_class_shares_cap_at_class_size():
    labels = np.array([0, 0, 0, 0, 1])
    assert list(_class_shares(labels, 2, 5)) == [4, 1]


def test_herding_first_pick_is_nearest_to_class_mean():
    rng = np.random.default_rng(11)
    feats = rng.normal(size=(40, 3))
    ds = LabeledDataset(features=feats, noisy_labels=np.array([0] * 20 + [1] * 20),
                        num_classes=2, ids=np.arange(40))
    rep = compute_representation(ds, "identity")
    sel = herding_select(rep, 0.5)
    for c in (0, 1):
        rows = np.flatnonzero(np.asarray(ds.noisy_labels) == c)
        mean = feats[rows].mean(axis=0)
        nearest = rows[np.argmin(np.linalg.norm(feats[rows] - mean, axis=1))]
        first = min(rows, key=lambda r: sel.scores[r])
        assert first == nearest


def test_herding_symmetric_clusters_split_evenly():
    rng = np.random.default_rng(12)
    feats = np.vstack([rng.normal(size=(30, 2)) - 5.0,
                       rng.normal(size=(30, 2)) + 5.0])
    ds = LabeledDataset(features=feats, noisy_labels=[0] * 30 + [1] * 30,
                        num_classes=2, ids=np.arange(60))
    sel = herding_select(compute_representation(ds, "identity"), 0.5)
    labels = np.asarray(ds.noisy_labels)
    picked = np.isin(ds.ids, sel.selected)
    assert picked[labels == 0].sum() == 15
    assert picked[labels == 1].sum() == 15


def test_herding_single_class_full_tau_keeps_all():
    ds = LabeledDataset(features=np.arange(8.0)[:, None],
                        noisy_labels=np.zeros(8, dtype=int), num_classes=2,
                        ids=np.arange(8))
    rep = compute_representation(ds, "identity")
    with pytest.warns(UserWarning, match="class 1 has no samples"):
        sel = herding_select(rep, 1.0)
    assert set(sel.selected) == set(ds.ids)


def test_herding_total_count_is_exact():
    ds = random_dataset(97, 3, num_classes=3, seed=13)
    sel = herding_select(compute_representation(ds, "identity"), 0.37)
    assert sel.selected.size == round_half_up(0.37 * 97)


def test_herding_rejects_nonfinite_representations():
    ds = random_dataset(5, 2, seed=14)
    rep = compute_representation(ds, "identity")
    bad = rep.representations.copy()
    bad[1, 0] = np.inf
    broken = RepresentedDataset(base=ds, representations=bad, kind="identity")
    with pytest.raises(ValueError, match="non-finite representation"):
        herding_select(broken, 0.5)


def test_herding_rejects_bad_tau():
    rep = compute_representation(random_dataset(5, 2), "identity")
    with pytest.raises(ValueError, match="tau"):
        herding_select(rep, 1.5)
