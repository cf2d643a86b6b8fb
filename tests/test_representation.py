"""Representation maps, external embeddings, and the calibrated perturbation."""

import re

import numpy as np
import pytest

from icut import (LabeledDataset, RepresentedDataset, compute_representation,
                  load_external_representation, perturb_representation)
from icut.io import write_embedding_csv
from icut.representation import CALIBRATION_MISSED
from conftest import apply_group_action, oracle_perturbation, random_dataset


# --- built-in maps -----------------------------------------------------------


def test_l2norm_of_3_4_is_5():
    ds = LabeledDataset(features=[[3.0, 4.0]], noisy_labels=[0], num_classes=2,
                        ids=[0])
    rep = compute_representation(ds, "l2norm")
    assert rep.representations.shape == (1, 1)
    assert rep.representations[0, 0] == 5.0


def test_sort_orders_each_row():
    ds = LabeledDataset(features=[[2.0, -1.0, 0.0]], noisy_labels=[0], num_classes=2,
                        ids=[0])
    rep = compute_representation(ds, "sort")
    assert list(rep.representations[0]) == [-1.0, 0.0, 2.0]


def test_sort_is_idempotent():
    ds = random_dataset(30, 6, seed=1)
    once = compute_representation(ds, "sort").representations
    again = np.sort(once, axis=1)
    assert np.array_equal(once, again)


def test_identity_shares_the_feature_array():
    ds = random_dataset(20, 4, seed=2)
    rep = compute_representation(ds, "identity")
    assert np.array_equal(rep.representations, ds.features)
    assert np.shares_memory(rep.representations, ds.features)   # shared, not copied


def test_compute_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown representation kind"):
        compute_representation(random_dataset(4, 2), "pca")


def test_represented_dataset_validation():
    ds = random_dataset(4, 3)
    with pytest.raises(ValueError, match="one-dimensional"):
        RepresentedDataset(base=ds, representations=np.zeros((4, 2)), kind="l2norm")
    with pytest.raises(ValueError, match="row count"):
        RepresentedDataset(base=ds, representations=np.zeros((3, 1)), kind="l2norm")
    with pytest.raises(ValueError, match="non-decreasing"):
        RepresentedDataset(base=ds, representations=np.array([[1.0, 0.0, 2.0]] * 4),
                           kind="sort")


def test_invariant_maps_are_invariant_over_many_actions():
    rng = np.random.default_rng(3)
    X = rng.uniform(-1.0, 1.0, size=(200, 8))
    worst_norm = 0.0
    for _ in range(10**4):
        x = X[rng.integers(200)]
        gx = apply_group_action("orthogonal", x, rng)
        worst_norm = max(worst_norm,
                         abs(np.linalg.norm(gx) - np.linalg.norm(x)))
    assert worst_norm <= 1e-9
    for _ in range(10**4):
        x = X[rng.integers(200)]
        gx = apply_group_action("permutation", x, rng)
        assert np.array_equal(np.sort(gx), np.sort(x))


# --- external embeddings -----------------------------------------------------


def _write_embedding(tmp_path, ids, mat, name="emb.csv"):
    path = tmp_path / name
    write_embedding_csv(np.asarray(ids), np.asarray(mat, dtype=float), path)
    return path


def test_external_round_trip_matches_by_id(tmp_path):
    ds = random_dataset(6, 2, seed=4, shuffle_ids=True)
    rng = np.random.default_rng(5)
    mat = rng.normal(size=(6, 16))
    # write rows in a scrambled order to prove matching is by id, not row
    order = rng.permutation(6)
    path = _write_embedding(tmp_path, ds.ids[order], mat[order])
    rep = load_external_representation(ds, path)
    assert rep.kind == "external"
    assert rep.m == 16
    assert np.allclose(rep.representations, mat, atol=0)


def test_external_missing_row_is_count_mismatch(tmp_path):
    ds = random_dataset(5, 2, seed=6)
    path = _write_embedding(tmp_path, ds.ids[:4], np.zeros((4, 3)))
    with pytest.raises(ValueError, match="row-count mismatch"):
        load_external_representation(ds, path)


def test_external_wrong_id_is_id_mismatch(tmp_path):
    ds = random_dataset(5, 2, seed=7)
    ids = ds.ids.copy()
    ids[0] = 999
    path = _write_embedding(tmp_path, ids, np.zeros((5, 3)))
    with pytest.raises(ValueError, match="id mismatch"):
        load_external_representation(ds, path)


# Same row count, but one id repeats in place of another: the largest
# (found past the end of the sorted file ids) or one in the middle.
@pytest.mark.parametrize("slot,copy", [(4, 3), (2, 1)], ids=["largest", "middle"])
def test_external_repeated_id_is_id_mismatch(tmp_path, slot, copy):
    ds = random_dataset(5, 2, seed=7)
    ids = ds.ids.copy()
    ids[slot] = ids[copy]
    path = _write_embedding(tmp_path, ids, np.zeros((5, 3)))
    with pytest.raises(ValueError, match="^id mismatch between embedding file and dataset$"):
        load_external_representation(ds, path)


def test_external_nonfinite_value_is_rejected(tmp_path):
    ds = random_dataset(5, 2, seed=8)
    mat = np.zeros((5, 3))
    mat[2, 1] = np.nan
    path = _write_embedding(tmp_path, ds.ids, mat)
    with pytest.raises(ValueError, match="non-finite embedding"):
        load_external_representation(ds, path)


# --- calibrated perturbation --------------------------------------------------


def _l2_rep(n=800, d=30, seed=11):
    return compute_representation(random_dataset(n, d, seed=seed), "l2norm")


def test_perturb_zero_target_is_identity():
    rep = _l2_rep()
    out, realized = perturb_representation(rep, 0.0)
    assert realized == 0.0
    assert np.array_equal(out.representations, rep.representations)


def test_perturb_hits_target_within_tolerance():
    rep = _l2_rep()
    _, realized = perturb_representation(rep, 0.297, seed=3)
    assert 0.282 <= realized <= 0.312  # 5% relative band around the target


def test_perturb_realized_error_is_monotone_in_target():
    rep = _l2_rep()
    _, low = perturb_representation(rep, 0.10, seed=3)
    _, high = perturb_representation(rep, 0.30, seed=3)
    assert low < high


def test_perturb_changes_the_representation():
    rep = _l2_rep()
    out, _ = perturb_representation(rep, 0.2, seed=4)
    assert out.kind == "l2norm"
    assert not np.array_equal(out.representations, rep.representations)


def test_perturb_requires_l2norm():
    rep = compute_representation(random_dataset(20, 3, seed=12), "identity")
    with pytest.raises(ValueError, match="l2norm"):
        perturb_representation(rep, 0.1)


def test_perturb_rejects_negative_target():
    with pytest.raises(ValueError, match="non-negative"):
        perturb_representation(_l2_rep(), -0.1)


@pytest.mark.parametrize("target", [float("nan"), float("inf"), -float("inf")])
def test_perturb_rejects_nonfinite_target(target):
    with pytest.raises(ValueError, match="non-negative"):
        perturb_representation(_l2_rep(), target)


def test_perturb_matches_the_closed_form_oracle():
    rep = _l2_rep()
    out, realized = perturb_representation(rep, 0.2, seed=4)
    want, want_realized = oracle_perturbation(rep.representations[:, 0].tolist(), 0.2, seed=4)
    assert out.representations[:, 0] == pytest.approx(want, rel=1e-12, abs=0.0)
    assert realized == pytest.approx(want_realized, rel=1e-12, abs=0.0)
    assert realized == pytest.approx(0.2, rel=1e-12, abs=0.0)


def test_perturb_noise_lost_to_rounding_is_a_named_error():
    # At norms near 1e17 one ulp is 16, so noise of scale 0.1 rounds away.
    ds = random_dataset(50, 4)
    big = LabeledDataset(features=ds.features * 1e17, noisy_labels=ds.noisy_labels,
                         num_classes=2, ids=ds.ids, true_labels=ds.true_labels)
    with pytest.raises(ValueError, match=re.escape(CALIBRATION_MISSED)):
        perturb_representation(compute_representation(big, "l2norm"), 0.1)
    out, _ = perturb_representation(compute_representation(ds, "l2norm"), 0.1)
    assert np.all(out.representations != compute_representation(ds, "l2norm").representations)


def test_perturb_overflowing_noise_is_a_named_error():
    with pytest.raises(ValueError, match=re.escape(CALIBRATION_MISSED)):
        perturb_representation(_l2_rep(), 1e308)
