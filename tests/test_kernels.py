"""The exact kernels against plain-scan oracles: same tables, same picks."""

import tracemalloc
from fractions import Fraction

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


def _full_sort(X, rank, k, rows):
    """Each listed row's k nearest others by a sort of all its squared distances."""
    pos = np.empty((len(rows), k), dtype=np.int64)
    d2 = np.empty((len(rows), k))
    for r, i in enumerate(rows):
        diff = X - X[i]
        full = np.einsum("ij,ij->i", diff, diff)
        full[i] = np.inf
        pos[r] = np.lexsort((rank, full))[:k]
        d2[r] = full[pos[r]]
    return pos, d2


def test_neighbor_table_matches_full_sort():
    # narrow and wide inputs, with duplicated rows so distance ties occur
    for d in (1, 3, 16, 40):
        X, rank = _case(300, d, seed=d, with_duplicates=True)
        pos, d2 = kernels.neighbor_table(X, rank, 10)
        rows, dists = _full_sort(X, rank, 10, range(300))
        assert np.array_equal(pos, rows)
        assert np.array_equal(d2, dists)
        # the duplicated rows are each other's nearest neighbor at distance 0
        assert pos[0, 0] == 150 and pos[150, 0] == 0 and d2[0, 0] == 0.0


def _gram_case(kind, n, rng):
    if kind == "duplicates":
        return rng.normal(size=(40, 8))[rng.integers(0, 40, size=n)]
    if kind == "grid":
        return rng.integers(0, 4, size=(n, 5)).astype(float)
    if kind == "offset":
        return rng.normal(size=(n, 16)) + 1e7
    return rng.normal(size=(n, int(kind.split("-")[1])))


# 300 rows in blocks of 64: four full blocks and a partial one of 44.  A
# small rescoring budget splits each block into several chunks of rows: a
# budget of 1 rescores one row at a time.  Width 1 takes the sorted scan,
# whose candidates go through the same chunked rescoring.
@pytest.mark.parametrize("kind,k,budget", [
    *(pytest.param(kind, k, None, id=f"{kind}-{k}")
      for kind, k in [("width-2", 10), ("width-5", 10), ("width-32", 10), ("duplicates", 10),
                      ("grid", 30), ("offset", 10), ("width-3", 299)]),
    *(pytest.param(kind, k, budget, id=f"{kind}-{k}-budget{budget}")
      for kind, k, budget in [("width-32", 10, 2000), ("duplicates", 10, 3000),
                              ("grid", 30, 1), ("offset", 10, 2000), ("width-3", 299, 1),
                              ("width-3", 299, 6000), ("width-1", 10, 200)]),
])
def test_gram_path_across_several_blocks_matches_full_sort(kind, k, budget, monkeypatch):
    monkeypatch.setattr(kernels, "BLOCK_ELEMENTS", 64 * 300)
    chunks = []
    if budget is not None:
        monkeypatch.setattr(kernels, "RESCORE_ELEMENTS", budget)
        rescore = kernels._rescore

        def counted(X, rank, r, c, counts, *rest):
            chunks.append(counts.size)
            rescore(X, rank, r, c, counts, *rest)

        monkeypatch.setattr(kernels, "_rescore", counted)
    rng = np.random.default_rng(len(kind) + k)
    X = _gram_case(kind, 300, rng)
    rank = rng.permutation(300).astype(np.int64)
    pos, d2 = kernels.neighbor_table(X, rank, k)
    rows, dists = _full_sort(X, rank, k, range(300))
    assert np.array_equal(pos, rows)
    assert np.array_equal(d2, dists)
    if budget is not None:
        assert sum(chunks) == 300 and len(chunks) > 10  # over two chunks per block


def _assert_small_and_exact(X, rank, k, rng):
    """Traced peak under 32 MB, and sampled rows (both sides of a block edge) exact."""
    n = X.shape[0]
    tracemalloc.start()
    try:
        pos, d2 = kernels.neighbor_table(X, rank, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    rows_per_block = kernels.BLOCK_ELEMENTS // n
    check = sorted({0, rows_per_block - 1, rows_per_block, n - 1,
                    *rng.choice(n, size=40, replace=False).tolist()})
    rows, dists = _full_sort(X, rank, k, check)
    assert np.array_equal(pos[check], rows)
    assert np.array_equal(d2[check], dists)


def test_gram_path_memory_does_not_grow_with_n_squared():
    # One 4000 x 4000 block of distances alone is 128 MB; the reused block
    # buffers hold 2 x 8 MB (float32 blocks use the first half of each) and
    # the candidate mask 1 MB.
    rng = np.random.default_rng(9)
    n = 4000
    X = rng.normal(size=(n, 32))
    _assert_small_and_exact(X, rng.permutation(n).astype(np.int64), 20, rng)


@pytest.mark.parametrize("kind", ["identical", "underflow", "underflow-width-1"])
def test_tie_heavy_gram_blocks_stay_small_and_exact(kind):
    # Every entry of every block is a candidate: identical rows, or rows whose
    # rescored squared distances underflow to 0 (each block goes to float64
    # after the first).  At width 1 the underflow makes every row's ties run
    # over the whole input, each run holding several values, so every row
    # proposes all n - 1 others.  Rescoring in chunks keeps the memory bound.
    rng = np.random.default_rng(10)
    n = 4000
    if kind == "identical":
        X = np.tile(rng.normal(size=32), (n, 1))
    elif kind == "underflow":
        X = rng.normal(size=(n, 32)) * 1e-170
    else:
        X = rng.normal(size=(n, 1)) * 1e-170
    _assert_small_and_exact(X, rng.permutation(n).astype(np.int64), 20, rng)


@pytest.mark.parametrize("clustered", [False, True], ids=["spread", "clustered"])
def test_clustered_blocks_fall_back_to_float64(clustered, monkeypatch):
    # float32's margin spans a whole tight cluster, about n / 5 candidates a
    # row: the first block is marked again in float64, and so is every later
    # one.  Spread rows keep every block in float32.
    rng = np.random.default_rng(11)
    n, k = 2000, 20
    X = rng.normal(size=(n, 32))
    if clustered:   # 5 centres, spread 1e-3
        X = rng.normal(size=(5, 32))[rng.integers(0, 5, size=n)] + 1e-3 * X
    rank = rng.permutation(n).astype(np.int64)
    dtypes, slots = [], []
    mark, rescore = kernels._mark, kernels._rescore

    def marked(d, *rest):
        dtypes.append(d.dtype)
        return mark(d, *rest)

    def counted(X, rank, r, c, counts, *rest):
        slots.append(int(counts.sum()))
        rescore(X, rank, r, c, counts, *rest)

    monkeypatch.setattr(kernels, "_mark", marked)
    monkeypatch.setattr(kernels, "_rescore", counted)
    pos, d2 = kernels.neighbor_table(X, rank, k)
    rows, dists = _full_sort(X, rank, k, range(n))
    assert np.array_equal(pos, rows)
    assert np.array_equal(d2, dists)
    blocks = -(-n // (kernels.BLOCK_ELEMENTS // n))
    if clustered:
        assert dtypes == [np.float32] + [np.float64] * blocks
    else:
        assert dtypes == [np.float32] * blocks
    assert sum(slots) < 2 * k * n          # near k a row, not n / 5 = 400


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_mark_keeps_every_near_entry_when_negatives_lead_the_row(dtype):
    # One hand-built row of rounded squared distances: its own entry (+inf),
    # -0.0 and k + 2 small negative values among non-negative ones.  The
    # partition through the integer view orders the negatives first and in
    # reverse, so it cuts at another value than the float k-th; every entry
    # within 2 t of the float k-th is still marked, and nothing past the
    # margin of 8 t.
    k, t = 5, 2.0**-10
    rng = np.random.default_rng(13)
    values = np.concatenate([-t * np.arange(1, k + 3) / 8, [-0.0],
                             t * np.array([0.0, 0.5, 1.5, 2.5, 6.0, 9.0, 40.0])])
    d = np.concatenate([[np.inf], rng.permutation(values)]).astype(dtype)[None, :]
    p, mask = np.empty_like(d), np.empty(d.shape, dtype=bool)
    total = kernels._mark(d, p, np.array([8 * t], dtype=dtype), k, mask)
    row, marked = d[0], mask[0]
    kth = np.partition(row, k - 1)[k - 1]
    assert p[0, k - 1] != kth                # the integer k-th is another value
    assert total == marked.sum()
    assert marked[row <= kth + 2 * t].all()
    assert not marked[row > 8 * t].any()


# float32 candidates after the power-of-two scale: one column 1e30 times the
# others (whose float32 products flush to zero), rows just under the overflow
# bound, and all rows alike with every other row a neighbor
@pytest.mark.parametrize("kind", ["mixed-columns", "huge", "identical"])
def test_gram_path_is_exact_at_extreme_scales(kind):
    X, rank = _case(400, 20, seed=12)
    k = 10
    if kind == "mixed-columns":
        X[:, 0] *= 1e30
    elif kind == "huge":
        X *= 1e150
    else:
        X = np.tile(X[0], (400, 1))
        k = 399
    pos, d2 = kernels.neighbor_table(X, rank, k)
    rows, dists = oracle_neighbors(X, rank, k)
    assert np.array_equal(pos, rows)
    assert np.allclose(np.sqrt(d2), dists, rtol=1e-12, atol=0.0)


SHIFTS = [(offset, scale) for offset in (0.0, 1e5, 1e7) for scale in (1e-3, 1.0, 1e3)]


# width 20 runs the gram path, width 1 the sorted scan
@pytest.mark.parametrize("width,offset,scale", [
    pytest.param(w, o, s, id=f"{o}-{s}" if w == 20 else f"width1-{o}-{s}")
    for w in (20, 1) for o, s in SHIFTS])
def test_neighbor_table_is_exact_under_translation_and_scale(width, offset, scale):
    X, rank = _case(400, width, seed=7)
    X = X * scale + offset
    pos, d2 = kernels.neighbor_table(X, rank, 10)
    rows, dists = oracle_neighbors(X, rank, 10)
    assert np.array_equal(pos, rows)
    assert np.allclose(np.sqrt(d2), dists, rtol=1e-12, atol=0.0)


def _assert_matches_oracle(x, rank, k):
    pos, d2 = kernels.neighbor_table(x[:, None], rank, k)
    rows, dists = oracle_neighbors(x, rank, k)
    assert np.array_equal(pos, rows)
    assert np.array_equal(np.sqrt(d2), dists)


def _assert_matches_full_sort(x, rank, k):
    # rounded squared gaps, as the kernel computes them: the oracle's square
    # roots would merge neighboring values
    pos, d2 = kernels.neighbor_table(x[:, None], rank, k)
    diffs = x[:, None] - x[None, :]
    full = diffs * diffs
    np.fill_diagonal(full, np.inf)
    for i in range(x.size):
        order = np.lexsort((rank, full[i]))[:k]
        assert np.array_equal(pos[i], order)
        assert np.array_equal(d2[i], full[i][order])


def test_width_one_integer_grid_with_long_tie_runs_on_both_sides():
    # 12 values, 25 rows each: a row of an inner value has 24 others at distance
    # 0 and 25 on each side at distance 1, so its 30th distance ties both ways
    rng = np.random.default_rng(1)
    x = rng.permutation(np.repeat(np.arange(12.0), 25))
    _assert_matches_oracle(x, rng.permutation(x.size), 30)


def test_width_one_duplicate_rows():
    rng = np.random.default_rng(2)
    x = rng.normal(size=40)[rng.integers(0, 40, size=300)]
    _assert_matches_oracle(x, rng.permutation(300), 10)


@pytest.mark.parametrize("n", [2, 10, 11, 12])   # 2k, 2k + 1 and 2k + 2 for k = 5
@pytest.mark.parametrize("all_others", [False, True], ids=["k5", "k_n_minus_1"])
def test_width_one_small_tables(n, all_others):
    rng = np.random.default_rng(n)
    k = n - 1 if all_others else min(5, n - 1)
    for x in (rng.normal(size=n), rng.integers(0, 3, size=n).astype(float)):
        _assert_matches_oracle(x, rng.permutation(n), k)


def test_width_one_tie_just_outside_the_window():
    # sorted by (value, rank): rows 1, 2, 3 (value -1), 0 (value 0), 4, 5.  Row 0's
    # window [p - 2, p + 2] holds rows 2 and 3 at distance 1, but row 1 ties
    # with them one place past the edge and has the lowest rank.
    x = np.array([0.0, -1.0, -1.0, -1.0, 5.0, 6.0])
    rank = np.array([3, 0, 4, 5, 1, 2], dtype=np.int64)
    pos, d2 = kernels.neighbor_table(x[:, None], rank, 2)
    assert pos[0].tolist() == [1, 2] and d2[0].tolist() == [1.0, 1.0]
    _assert_matches_oracle(x, rank, 2)


def test_width_one_tie_run_across_distinct_values():
    # 1 - (-j e-17) rounds to 1 for j <= 11: eleven distinct values at one
    # rounded distance from row 0, so rank order within the run is not
    # position order.  The lowest rank (row 8, j = 6) sits mid-run, past the
    # window edge and past the run's first k rows.
    x = np.concatenate([[1.0, 4.0, 9.0], -np.arange(1, 12) * 1e-17])
    rank = np.arange(x.size)[::-1].copy()
    rank[[8, 13]] = rank[[13, 8]]
    _assert_matches_full_sort(x, rank, 3)
    assert kernels.neighbor_table(x[:, None], rank, 3)[0][0].tolist() == [8, 12, 11]
    # Past the right edge: row 0's window ends at row 4 (2e-17), but row 5
    # (2e-17 too) ties with it and ranks below row 3 (1e-17) inside the window.
    x = np.array([-1.0, -5.0, -6.0, 1e-17, 2e-17, 2e-17])
    rank = np.array([0, 1, 2, 5, 3, 4], dtype=np.int64)
    _assert_matches_full_sort(x, rank, 2)
    assert kernels.neighbor_table(x[:, None], rank, 2)[0][0].tolist() == [4, 5]


def test_width_one_tie_runs_of_several_values_on_both_sides():
    # Gaps under about 1e-162 square to 0, so the 60 distinct values
    # near 0 all lie at distance 0 from one another: a middle row's ties run
    # past both window edges, each run holding many values in no rank order.
    rng = np.random.default_rng(3)
    x = np.concatenate([np.arange(-30, 30) * 1e-170, [-3.0, 1.0, 2.0]])
    rank = rng.permutation(x.size)
    _assert_matches_full_sort(x, rank, 5)
    lowest = [i for i in np.argsort(rank[:60]) if i != 30][:5]   # row 30 is 0.0
    assert kernels.neighbor_table(x[:, None], rank, 5)[0][30].tolist() == lowest


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


@pytest.mark.parametrize("d", [1, 5, 100])
@pytest.mark.parametrize("layout,n", [("duplicates", 300), ("grid", 300), ("duplicates", 301)],
                         ids=["duplicates", "grid", "duplicates-301"])
def test_herding_ties_go_to_the_earliest_row(layout, n, d):
    # exact duplicates score alike in any layout, and so do grid rows of
    # equal score: each tie must go to the earliest row, as in the oracle.
    # n = 301 puts duplicates among the last n % 4 columns of the product.
    rng = np.random.default_rng(40 + d)
    if layout == "duplicates":
        X = rng.normal(size=(30, d))[rng.integers(30, size=n)]
    else:
        X = rng.integers(-2, 3, size=(n, d)).astype(np.float64)
    mu = X.mean(axis=0)
    assert np.array_equal(kernels.herding_greedy(X, mu, 60), oracle_herding(X, mu, 60))


def test_herding_grid_near_ties_pick_a_least_exact_objective():
    # Grid rows at n = 301, d = 5 hold exact objectives an ulp apart (pick 21,
    # rows 258 and 261), which the kernel's |x|^2 + 2 c.x and the oracle's
    # running-mean form round into opposite orders.  So each pick is held
    # to the exact objective instead, in the kernel's units:
    # |x|^2 + 2 x.(S - (t+1) mu) over the untaken rows x, in rationals.
    # The kernel rounds c = S - (t+1) mu (2 roundings), the d-term dot
    # product and the final sum, so a row's computed score is within
    # e = (d + 4) eps (|x|^2 + 2 |x|.(|S| + (t+1)|mu|)) of exact, and a pick
    # exceeds the least exact score by at most 2 max e.  Among rows of
    # equal exact score, the earliest must win.
    n, d, count = 301, 5, 60
    rng = np.random.default_rng(40 + d)
    X = rng.integers(-2, 3, size=(n, d)).astype(np.float64)
    mu = X.mean(axis=0)
    rows = X.astype(np.int64).tolist()
    exact_mu = [Fraction(v) for v in mu.tolist()]
    untaken = set(range(n))
    S = np.zeros(d)
    for t, j in enumerate(kernels.herding_greedy(X, mu, count).tolist()):
        c = [int(s) - (t + 1) * m for s, m in zip(S.tolist(), exact_mu)]
        score = {r: sum(x * x + 2 * x * ci for x, ci in zip(rows[r], c)) for r in untaken}
        scale = np.abs(X) @ (np.abs(S) + (t + 1) * np.abs(mu))
        err = (d + 4) * np.finfo(np.float64).eps * ((X * X).sum(axis=1) + 2 * scale).max()
        assert j in untaken
        assert score[j] - min(score.values()) <= 2 * err, t
        assert all(score[r] != score[j] for r in untaken if r < j), t
        untaken.remove(j)
        S += X[j]


@pytest.mark.parametrize("d", [2, 3, 5, 8, 16])
def test_herding_tail_duplicate_loses_its_tie_to_the_earlier_copy(d):
    # BLAS scores the last n % 4 columns of a product apart from the rest;
    # a duplicate there, of an earlier row near the target, must still
    # score like that row and be picked after it
    rng = np.random.default_rng(d)
    for _ in range(60):
        n = 4 * int(rng.integers(2, 25)) + int(rng.integers(1, 4))
        X = rng.normal(size=(n, d))
        first = int(rng.integers(0, n - n % 4))
        X[n - 1 - int(rng.integers(0, n % 4))] = X[first]
        mu = X[first] + 1e-3 * rng.normal(size=d)
        assert np.array_equal(kernels.herding_greedy(X, mu, 3), oracle_herding(X, mu, 3))


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
