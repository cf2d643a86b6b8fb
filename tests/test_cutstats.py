"""z-score selection against a straight-line oracle and by hand."""

import numpy as np
import pytest

from icut import (CutstatsConfig, LabeledDataset, SelectionResult,
                  build_neighbor_table, class_priors, compute_representation,
                  cutstats_scores, rank_select, subset_accuracy)
from conftest import haar_rotation, oracle_zscores, random_dataset


def _scores(ds, k, priors="empirical", kind="identity"):
    rep = compute_representation(ds, kind)
    table = build_neighbor_table(rep, k)
    return cutstats_scores(rep, table, CutstatsConfig(k=k, priors=priors))


# --- config and priors --------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError, match="k must be positive"):
        CutstatsConfig(k=0)
    with pytest.raises(ValueError, match="tau"):
        CutstatsConfig(tau=0.0)
    with pytest.raises(ValueError, match="sum to 1"):
        CutstatsConfig(priors=(0.6, 0.6))
    with pytest.raises(ValueError, match="empirical"):
        CutstatsConfig(priors="uniform")


@pytest.mark.parametrize("k", [2.5, float("nan"), "5"])
def test_config_rejects_non_integer_k(k):
    with pytest.raises(ValueError, match="^k must be an integer"):
        CutstatsConfig(k=k)


def test_config_stores_integral_k_as_int():
    assert type(CutstatsConfig(k=np.int64(5)).k) is int
    assert CutstatsConfig(k=5.0).k == 5


def test_table_of_another_size_is_refused_by_name():
    rep = compute_representation(random_dataset(50, 3, seed=31), "identity")
    table = build_neighbor_table(compute_representation(random_dataset(40, 3, seed=31),
                                                        "identity"), 5)
    with pytest.raises(ValueError, match="^table has 40 rows, dataset has 50$"):
        cutstats_scores(rep, table, CutstatsConfig(k=5))


def test_empirical_priors_are_label_frequencies():
    labels = np.array([0, 0, 0, 1])
    priors = class_priors(labels, 2, CutstatsConfig())
    assert np.allclose(priors, [0.75, 0.25])


def test_fixed_priors_pass_through_and_must_cover_classes():
    labels = np.array([0, 1, 2])
    priors = class_priors(labels, 3, CutstatsConfig(priors=(0.2, 0.3, 0.5)))
    assert np.allclose(priors, [0.2, 0.3, 0.5])
    with pytest.raises(ValueError, match="cover every class"):
        class_priors(labels, 3, CutstatsConfig(priors=(0.5, 0.5)))


def test_degenerate_prior_is_rejected():
    ds = LabeledDataset(features=np.arange(4.0)[:, None],
                        noisy_labels=np.zeros(4, dtype=int), num_classes=2,
                        ids=np.arange(4))
    with pytest.raises(ValueError, match="degenerate prior"):
        _scores(ds, k=1)  # empirical P(0) = 1


# --- hand-checked z values -----------------------------------------------------


def _pair(labels):
    return LabeledDataset(features=np.array([[0.0], [1.0]]), noisy_labels=labels,
                          num_classes=2, ids=np.arange(2))


def test_lone_agreeing_neighbor_gives_z_minus_one():
    z = _scores(_pair([1, 1]), k=1, priors=(0.5, 0.5))
    assert np.allclose(z, [-1.0, -1.0], atol=1e-12)


def test_lone_disagreeing_neighbor_gives_z_plus_one():
    z = _scores(_pair([0, 1]), k=1, priors=(0.5, 0.5))
    assert np.allclose(z, [1.0, 1.0], atol=1e-12)


def test_matches_straight_line_oracle_on_random_instances():
    rng = np.random.default_rng(77)
    worst = 0.0
    for trial in range(100):
        n = int(rng.integers(8, 51))
        d = int(rng.integers(1, 6))
        k = int(rng.integers(1, min(6, n)))
        num_classes = int(rng.integers(2, 4))
        feats = rng.uniform(-1.0, 1.0, size=(n, d))
        labels = rng.integers(0, num_classes, size=n)
        labels[:num_classes] = np.arange(num_classes)  # every class present
        ids = rng.permutation(2 * n)[:n]
        ds = LabeledDataset(features=feats, noisy_labels=labels,
                            num_classes=num_classes, ids=ids)
        if trial % 2 == 0:
            priors = "empirical"
            vec = np.bincount(labels, minlength=num_classes) / n
        else:
            raw = rng.uniform(0.2, 1.0, size=num_classes)
            vec = raw / raw.sum()
            priors = tuple(vec)
        z = _scores(ds, k=k, priors=priors)
        want = oracle_zscores(feats, ids, labels, k, vec)
        worst = max(worst, float(np.max(np.abs(z - want))))
    assert worst <= 1e-9


def test_flipping_an_agreeing_neighbor_raises_z():
    ds = random_dataset(30, 2, seed=21)
    rep = compute_representation(ds, "identity")
    table = build_neighbor_table(rep, k=4)
    config = CutstatsConfig(k=4, priors=(0.5, 0.5))
    base = cutstats_scores(rep, table, config)
    i = 0
    agreeing = [j for j in table.neighbor_rows[i]
                if ds.noisy_labels[j] == ds.noisy_labels[i]]
    j = agreeing[0]
    flipped_labels = ds.noisy_labels.copy()
    flipped_labels[j] = 1 - flipped_labels[j]
    flipped_ds = LabeledDataset(features=ds.features, noisy_labels=flipped_labels,
                                num_classes=2, ids=ds.ids)
    flipped_rep = compute_representation(flipped_ds, "identity")
    flipped = cutstats_scores(flipped_rep, table, config)
    assert flipped[i] > base[i]


def test_l2norm_ranking_invariant_under_global_rotation():
    rng = np.random.default_rng(22)
    feats = rng.uniform(-1.0, 1.0, size=(120, 5))
    labels = rng.integers(0, 2, size=120)
    Q = haar_rotation(5, rng)
    base = LabeledDataset(features=feats, noisy_labels=labels, num_classes=2,
                          ids=np.arange(120))
    rotated = LabeledDataset(features=feats @ Q.T, noisy_labels=labels,
                             num_classes=2, ids=np.arange(120))
    assert np.array_equal(np.argsort(_scores(base, 7, kind="l2norm"), kind="stable"),
                          np.argsort(_scores(rotated, 7, kind="l2norm"), kind="stable"))


def test_scores_are_deterministic():
    ds = random_dataset(50, 3, seed=23)
    assert np.array_equal(_scores(ds, k=5), _scores(ds, k=5))


# --- selection ------------------------------------------------------------------


def test_select_full_tau_retains_everything():
    selected = rank_select(np.array([3.0, 1.0, 2.0]), np.array([10, 20, 30]), 1.0)
    assert set(selected) == {10, 20, 30}


def test_select_takes_smallest_half():
    scores = np.array([-1.0, -1.0, 1.0, 1.0])
    assert list(rank_select(scores, np.arange(4), 0.5)) == [0, 1]


def test_clean_data_selection_is_always_pure():
    ds = random_dataset(40, 2, seed=24)  # noisy labels equal the truth
    z = _scores(ds, k=3)
    sel = SelectionResult(scores=z, selected=rank_select(z, ds.ids, 0.4))
    assert subset_accuracy(sel, ds) == 1.0
