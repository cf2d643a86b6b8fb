"""Exact neighbor tables against an independent O(n^2) scan."""

import re

import numpy as np
import pytest

from icut import (LabeledDataset, build_neighbor_table, compute_representation,
                  estimate_class_accuracies, herding_select, knn_predict, kernels)
from conftest import haar_rotation, oracle_neighbors, random_dataset


def _rep(features, ids=None, kind="identity"):
    features = np.asarray(features, dtype=float)
    if features.ndim == 1:
        features = features[:, None]
    n = features.shape[0]
    ds = LabeledDataset(features=features, noisy_labels=np.zeros(n, dtype=int),
                        num_classes=2, ids=np.arange(n) if ids is None else ids)
    return compute_representation(ds, kind)


# --- table construction ------------------------------------------------------


def test_three_point_line_neighbors():
    table = build_neighbor_table(_rep([0.0, 1.0, 10.0]), k=1)
    assert list(table.neighbor_rows[:, 0]) == [1, 0, 1]
    assert np.allclose(table.distances[:, 0], [1.0, 1.0, 9.0])


def test_duplicate_point_is_listed_first_at_distance_zero():
    table = build_neighbor_table(_rep([[2.0, 2.0], [5.0, 1.0], [2.0, 2.0]]), k=2)
    assert table.neighbor_rows[0, 0] == 2
    assert table.distances[0, 0] == 0.0
    assert table.neighbor_rows[2, 0] == 0
    assert table.distances[2, 0] == 0.0


def test_equidistant_tie_goes_to_lower_id():
    # point 0 sits exactly between ids 1 and 2
    table = build_neighbor_table(_rep([0.0, -1.0, 1.0]), k=1)
    assert table.neighbor_ids[0, 0] == 1


def test_tie_rule_follows_ids_not_row_order():
    # same geometry, but the higher row holds the lower id
    ids = np.array([5, 9, 3])
    table = build_neighbor_table(_rep([0.0, -1.0, 1.0], ids=ids), k=1)
    assert table.neighbor_ids[0, 0] == 3
    assert table.neighbor_rows[0, 0] == 2


def test_k_bounds_are_enforced():
    rep = _rep([0.0, 1.0, 2.0])
    for k in (0, 3):
        with pytest.raises(ValueError, match="k must satisfy"):
            build_neighbor_table(rep, k)


def test_matches_independent_scan_on_random_instances():
    rng = np.random.default_rng(42)
    for trial in range(25):
        n = int(rng.integers(8, 41))
        d = int(rng.integers(1, 5))
        k = int(rng.integers(1, min(6, n)))
        feats = rng.uniform(-1.0, 1.0, size=(n, d))
        if trial % 3 == 0:  # force exact duplicates to exercise ties
            feats[n // 2] = feats[0]
        ids = rng.permutation(3 * n)[:n]
        rep = _rep(feats, ids=ids)
        table = build_neighbor_table(rep, k)
        rows, dists = oracle_neighbors(feats, ids, k)
        assert np.array_equal(table.neighbor_rows, rows)
        assert np.array_equal(table.neighbor_ids, ids[rows])
        assert np.allclose(table.distances, dists, atol=1e-12)


def test_distances_are_symmetric():
    ds = random_dataset(60, 4, seed=13)
    rep = compute_representation(ds, "identity")
    table = build_neighbor_table(rep, k=59)
    dist = np.zeros((60, 60))
    for i in range(60):
        dist[i, table.neighbor_rows[i]] = table.distances[i]
    assert np.max(np.abs(dist - dist.T)) <= 1e-12


def test_l2norm_table_invariant_under_global_rotation():
    rng = np.random.default_rng(14)
    feats = rng.uniform(-1.0, 1.0, size=(80, 6))
    Q = haar_rotation(6, rng)
    base = build_neighbor_table(_rep(feats, kind="l2norm"), k=5)
    rotated = build_neighbor_table(_rep(feats @ Q.T, kind="l2norm"), k=5)
    assert np.array_equal(base.neighbor_ids, rotated.neighbor_ids)


@pytest.mark.parametrize("data", ["normal", "integer_grid"])
@pytest.mark.parametrize("kind, d", [("l2norm", 5), ("sort", 5), ("identity", 3)])
def test_narrower_table_is_the_head_of_a_wider_one(kind, d, data):
    # widths 1 (sorted scan), 5 (gram path) and 3; the grid makes many exact ties
    rng = np.random.default_rng(16)
    n, kmax = 120, 12
    feats = (rng.standard_normal((n, d)) if data == "normal"
             else rng.integers(-2, 3, size=(n, d)).astype(float))
    rep = _rep(feats, ids=rng.permutation(3 * n)[:n], kind=kind)
    wide = build_neighbor_table(rep, kmax)
    for k in range(1, kmax + 1):
        head, exact = wide.head(k), build_neighbor_table(rep, k)
        assert head.k == k
        assert np.array_equal(head.neighbor_ids, exact.neighbor_ids)
        assert np.array_equal(head.neighbor_rows, exact.neighbor_rows)
        assert np.array_equal(head.distances, exact.distances)


def test_head_rejects_widths_outside_the_table():
    table = build_neighbor_table(_rep([0.0, 1.0, 2.0, 4.0]), k=2)
    for k in (0, 3):
        with pytest.raises(ValueError, match="k must satisfy 1 <= k <= 2"):
            table.head(k)


def _scaled(ds, factor):
    return LabeledDataset(features=ds.features * factor, noisy_labels=ds.noisy_labels,
                          num_classes=ds.num_classes, ids=ds.ids)


@pytest.mark.parametrize("kind", ["identity", "sort", "l2norm"])
def test_overflowing_scale_is_a_named_error(kind):
    # squares of 1e160 overflow: the l2norm map refuses to compute them, and
    # the others' squared distances would, so tables and herding refuse those
    ds = _scaled(random_dataset(30, 4, seed=21), 1e160)
    if kind == "l2norm":
        with pytest.raises(ValueError, match=re.escape(kernels.OVERFLOW)):
            compute_representation(ds, kind)
        return
    rep = compute_representation(ds, kind)
    with pytest.raises(ValueError, match=re.escape(kernels.OVERFLOW)):
        build_neighbor_table(rep, 5)
    with pytest.raises(ValueError, match=re.escape(kernels.OVERFLOW)):
        herding_select(rep, 0.5)


def test_large_finite_scale_stays_exact():
    ds = _scaled(random_dataset(60, 6, seed=22, shuffle_ids=True), 1e150)
    rep = compute_representation(ds, "identity")
    table = build_neighbor_table(rep, 5)
    rows, dists = oracle_neighbors(ds.features, ds.ids, 5)
    assert np.array_equal(table.neighbor_rows, rows)
    assert np.allclose(table.distances, dists, rtol=1e-12, atol=0.0)


def test_table_shape_validation():
    from icut import NeighborTable
    with pytest.raises(ValueError, match="inconsistent table shapes"):
        NeighborTable(k=2, neighbor_ids=np.zeros((3, 1), dtype=int),
                      neighbor_rows=np.zeros((3, 1), dtype=int),
                      distances=np.zeros((3, 2)))
    with pytest.raises(ValueError, match="inconsistent table shapes"):
        NeighborTable(k=2, neighbor_ids=np.zeros((3, 2), dtype=int),
                      neighbor_rows=np.zeros((3, 1), dtype=int),
                      distances=np.zeros((3, 2)))
    with pytest.raises(ValueError, match="non-decreasing"):
        NeighborTable(k=2, neighbor_ids=np.zeros((1, 2), dtype=int),
                      neighbor_rows=np.zeros((1, 2), dtype=int),
                      distances=np.array([[2.0, 1.0]]))


# --- leave-one-out prediction --------------------------------------------------


def test_unanimous_neighbors_win():
    labels = np.array([1, 1, 1, 0])
    table = build_neighbor_table(_rep([0.0, 0.1, 0.2, 5.0]), k=2)
    pred = knn_predict(table, labels, num_classes=2)
    assert pred[0] == 1 and pred[1] == 1


def test_vote_tie_goes_to_smallest_class():
    table = build_neighbor_table(_rep([0.0, -1.0, 1.0]), k=2)
    pred = knn_predict(table, np.array([0, 0, 1]), num_classes=2)
    assert pred[0] == 0


def test_separated_clusters_recover_labels_exactly():
    rng = np.random.default_rng(15)
    a = rng.normal(size=(40, 3)) * 0.1
    b = rng.normal(size=(40, 3)) * 0.1 + 10.0
    feats = np.vstack([a, b])
    labels = np.array([0] * 40 + [1] * 40)
    table = build_neighbor_table(_rep(feats), k=5)
    pred = knn_predict(table, labels, num_classes=2)
    assert np.array_equal(pred, labels)
    assert estimate_class_accuracies(pred, labels) == (1.0, 1.0)


def test_predict_length_validation():
    table = build_neighbor_table(_rep([0.0, 1.0, 2.0]), k=1)
    with pytest.raises(ValueError, match="labels length"):
        knn_predict(table, np.zeros(2, dtype=int), num_classes=2)


# --- class-conditional accuracies ----------------------------------------------


def test_class_accuracies_perfect():
    assert estimate_class_accuracies([0, 1, 0, 1], [0, 1, 0, 1]) == (1.0, 1.0)


def test_class_accuracies_constant_zero_predictor():
    assert estimate_class_accuracies([0, 0, 0, 0], [0, 0, 1, 1]) == (1.0, 0.0)


def test_class_accuracies_direct_count():
    assert estimate_class_accuracies([0, 1, 1, 1], [0, 0, 1, 1]) == (0.5, 1.0)


def test_class_accuracies_validation():
    with pytest.raises(ValueError, match="length mismatch"):
        estimate_class_accuracies([0, 1], [0, 1, 1])
    with pytest.raises(ValueError, match="undefined"):
        estimate_class_accuracies([0, 0], [0, 0])
