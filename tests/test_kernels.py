"""The exact kernels against plain-scan oracles: same tables, same picks."""

import numpy as np
import pytest

from conftest import oracle_herding, oracle_neighbors
from icut import kernels


def _case(n, d, seed, with_duplicates=False):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    if with_duplicates:
        X[n // 2] = X[0]
        X[n - 1] = X[1]
    rank = rng.permutation(n).astype(np.int64)
    return X, rank


def test_neighbor_table_matches_full_sort():
    # narrow and wide inputs, with duplicated rows so distance ties occur
    for d in (1, 3, 16, 40):
        X, rank = _case(300, d, seed=d, with_duplicates=True)
        pos, d2 = kernels.neighbor_table(X, rank, 10)
        diffs = X[:, None, :] - X[None, :, :]
        full = np.einsum("ijk,ijk->ij", diffs, diffs)
        np.fill_diagonal(full, np.inf)
        for i in range(300):
            order = np.lexsort((rank, full[i]))[:10]
            assert np.array_equal(pos[i], order)
            assert np.allclose(d2[i], full[i][order], atol=1e-12)
        # the duplicated rows are each other's nearest neighbor at distance 0
        assert pos[0, 0] == 150 and pos[150, 0] == 0 and d2[0, 0] == 0.0


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
@pytest.mark.parametrize("offset", [0.0, 1e5, 1e7])
def test_neighbor_table_is_exact_under_translation_and_scale(offset, scale):
    X, rank = _case(400, 20, seed=7)
    X = X * scale + offset
    pos, d2 = kernels.neighbor_table(X, rank, 10)
    rows, dists = oracle_neighbors(X, rank, 10)
    assert np.array_equal(pos, rows)
    assert np.allclose(np.sqrt(d2), dists, rtol=1e-12, atol=0.0)


def test_neighbor_table_breaks_distance_ties_by_rank():
    X = np.array([[0.0], [1.0], [2.0], [1.0]])
    rank = np.array([0, 3, 2, 1], dtype=np.int64)
    pos, d2 = kernels.neighbor_table(X, rank, 2)
    # rows 1 and 3 are identical; row 0 sees both at distance 1, rank picks 3
    assert pos[0, 0] == 3 and pos[0, 1] == 1
    assert d2[0, 0] == d2[0, 1] == 1.0


@pytest.mark.parametrize("seed,d", [(4, 4), (8, 1), (12, 16)])
def test_herding_matches_plain_loop_oracle(seed, d):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(200, d))
    mu = X.mean(axis=0)
    assert np.array_equal(kernels.herding_greedy(X, mu, 50), oracle_herding(X, mu, 50))


def test_herding_first_pick_is_nearest_to_target():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(64, 3))
    mu = X.mean(axis=0)
    picks = kernels.herding_greedy(X, mu, 10)
    assert picks[0] == np.argmin(np.linalg.norm(X - mu, axis=1))
    assert len(set(picks.tolist())) == 10


def test_herding_pulls_running_mean_toward_target():
    rng = np.random.default_rng(6)
    X = rng.normal(size=(120, 2)) + np.array([3.0, -1.0])
    mu = X.mean(axis=0)
    picks = kernels.herding_greedy(X, mu, 30)
    random_gap = np.linalg.norm(X[:30].mean(axis=0) - mu)
    herded_gap = np.linalg.norm(X[picks].mean(axis=0) - mu)
    assert herded_gap <= random_gap
