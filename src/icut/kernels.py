"""The two kernels: exact k-nearest neighbors and greedy herding.

Both are plain numpy, so every install runs the same code.  Neighbor
search has two paths, chosen by width alone.  A width-1 input (the
l2norm representation) is sorted once by (value, rank); each row takes
the 2k rows around it in that order as candidates, widened across any
run of rows tied at the k-th distance past a window edge: about
O(n log n + n k log k) work.  Wider inputs find candidates with the gram
trick on column-centered rows: O(n^2 m) work in blocks of rows that
reuse two fixed rows x n buffers and a rows x n candidate mask.  Each
block is rescored by whole-block numpy calls, not a loop over its rows,
in chunks of rows sized from their candidate counts, so a tie-heavy
block (every entry a candidate) keeps to the same budget.  Beyond the
input and the table the path needs about 25 MB, not memory that grows
with n^2.  Both paths rank their candidates by exact squared distances
computed from the input rows and break ties by ascending rank, so both
return the same (distance, ascending-rank) table, exact under any
translation or scale of the features that keeps squared distances
finite in float64.  Larger inputs (entries from about 1e153 up) and
non-finite ones raise ``ValueError``.  Herding scans every candidate once
per pick, under the same limit on its scores.
"""

from __future__ import annotations

import numpy as np

# Elements in each of the gram path's two block buffers (8 MB each).  On
# 2 cores, k-NN at n = 5000 and 20000 (m = 32) ran as fast at 2^20 as at
# 2^21 or 2^22, and about 5% slower at 2^19.
BLOCK_ELEMENTS = 2**20

# Candidate slots rescored at once, counted as chunk rows x the chunk's
# widest row x (m + 2): the gathered rows, their differences and the index
# arrays take at most 16 bytes per element, 8 MB in all.
RESCORE_ELEMENTS = BLOCK_ELEMENTS // 2

OVERFLOW = ("squared distances overflow float64: non-finite representation values, "
            "or features too large to square")

# ---------------------------------------------------------------------------
# k-nearest neighbors, exact.
#
# Output contract: for each row i, the k nearest other rows by squared
# euclidean distance, ordered by (distance, rank), where ``rank`` is the
# caller's tie-break ordering (ascending sample id).  Returned distances
# are exact squared distances of the selected pairs, ``diff . diff`` of the
# input rows, whichever path found them.
# ---------------------------------------------------------------------------


def neighbor_table(X: np.ndarray, rank: np.ndarray, k: int):
    """k smallest (squared distance, rank) pairs per row, self excluded."""
    X = np.ascontiguousarray(X, dtype=np.float64)
    rank = np.ascontiguousarray(rank, dtype=np.int64)
    # Every squared distance is at most S, the sum of squared column spans,
    # and the gram path's |c_j|^2 and 2 c_i.c_j stay within S and 2 S, so a
    # finite 4 S keeps every term and sum finite.
    with np.errstate(over="ignore", invalid="ignore"):
        span = X.max(axis=0) - X.min(axis=0)
        bound = 4.0 * (span @ span)
    if not np.isfinite(bound):
        raise ValueError(OVERFLOW)
    if X.shape[1] == 1:
        return _sorted_scan(X[:, 0], rank, k)
    return _gram_scan(X, rank, k)


def _gram_scan(X: np.ndarray, rank: np.ndarray, k: int):
    n, m = X.shape
    pos = np.empty((n, k), dtype=np.int64)
    d2 = np.empty((n, k), dtype=np.float64)
    # Distances do not change under translation, but the gram trick's
    # rounding error grows with the squared norms, so candidates come from
    # centered rows.  Row i ranks row j by e_ij = |c_j|^2 - 2 c_i.c_j, the
    # squared distance less |c_i|^2, a row constant that changes no ranking.
    # Scaling by -2 is exact, so e_ij is one dot product of m terms plus one
    # addition, off by at most about (m + 2) eps (|c_i|^2 + |c_j|^2) <= t_i,
    # with t_i = (m + 2) eps (|c_i|^2 + max |c|^2).  The row's computed k-th
    # smallest e is at most t_i below its exact value and a true member's e
    # at most t_i above its own, so every true member lies within 2 t_i of
    # the computed k-th: under half the margin of 8 t_i below.
    C = X - X.mean(axis=0)
    sq = np.einsum("ij,ij->i", C, C)
    margin = 8.0 * (m + 2) * np.finfo(np.float64).eps * (sq + sq.max())
    M2T = -2.0 * C.T
    # Three rows x n buffers, reused by every block: 17 MB in all while
    # n <= BLOCK_ELEMENTS (one row each past that), whatever n^2 is.
    rows = max(1, min(n, BLOCK_ELEMENTS // n))
    E = np.empty((rows, n))
    P = np.empty((rows, n))
    M = np.empty((rows, n), dtype=bool)
    for b0 in range(0, n, rows):
        b1 = min(b0 + rows, n)
        e, p, mask = E[:b1 - b0], P[:b1 - b0], M[:b1 - b0]
        np.matmul(C[b0:b1], M2T, out=e)
        e += sq
        e[np.arange(b1 - b0), np.arange(b0, b1)] = np.inf
        np.copyto(p, e)
        p.partition(k - 1, axis=1)
        cuts = p[:, k - 1] + margin[b0:b1]
        np.less_equal(e, cuts[:, None], out=mask)
        counts = np.count_nonzero(mask, axis=1)
        step = max(1, RESCORE_ELEMENTS // ((m + 2) * int(counts.max())))
        for r0 in range(0, b1 - b0, step):
            r1 = min(r0 + step, b1 - b0)
            _rescore(X, rank, mask[r0:r1], counts[r0:r1], b0 + r0, pos, d2)
    return pos, d2


def _rescore(X, rank, mask, counts, i0, pos, d2):
    """Rows i0, i0 + 1, ... of the table from their candidate masks, in one pass.

    Exact squared distances of every candidate, laid out one row per table
    row and padded with (inf, rank n), which sorts after every candidate;
    each row holds at least k candidates, so the first k columns in
    (distance, rank) order are the row's neighbors.
    """
    n, k = X.shape[0], pos.shape[1]
    r, c = np.divmod(np.flatnonzero(mask), n)
    diff = X.take(c, axis=0)
    diff -= X.take(i0 + r, axis=0)
    exact = np.einsum("ij,ij->i", diff, diff)
    filled = np.arange(counts.max()) < counts[:, None]
    dist = np.full(filled.shape, np.inf)
    dist[filled] = exact
    keys = np.full(filled.shape, n)
    keys[filled] = rank[c]
    order = np.lexsort((keys, dist), axis=-1)[:, :k]
    first = np.cumsum(counts) - counts
    pos[i0:i0 + counts.size] = c[first[:, None] + order]
    d2[i0:i0 + counts.size] = np.take_along_axis(dist, order, axis=1)


def _sorted_scan(x: np.ndarray, rank: np.ndarray, k: int):
    # In (value, rank) order the rounded difference x_q - x_p, and so its
    # square, is monotone on each side of p.  The k rows on either side of p
    # therefore hold every neighbor except ties at the k-th distance that lie
    # past a window edge; those rows widen across the run of equal distances.
    n = x.shape[0]
    order = np.lexsort((rank, x))
    xs, rs = x[order], rank[order]
    p = np.arange(n)
    w = min(2 * k, n - 1)                      # candidates per row
    start = np.clip(p - k, 0, n - 1 - w)       # window [start, start + w] holds p
    end = start + w
    window = start[:, None] + np.arange(w + 1)
    cand = window[window != p[:, None]].reshape(n, w)
    sel, d2 = _closest(xs, rs, p, cand, k)

    # Past the edges, [lo, start) and (end, stop) are the rows no farther
    # than the k-th distance: all ties with it.
    d2k = d2[:, -1]
    lo = _first_true(lambda q: _sq_gap(xs, q, p) <= d2k, np.zeros(n, dtype=np.int64), start)
    stop = _first_true(lambda q: _sq_gap(xs, q, p) > d2k, end + 1, np.full(n, n))
    wide = np.flatnonzero((lo < start) | (stop > end + 1))
    if wide.size:
        # Rows of one value sit in ascending rank, so when a run holds a single
        # value its first k rows are the only ones that can be picked.
        lo, start, end, stop = lo[wide], start[wide], end[wide], stop[wide]
        steps = np.arange(k)
        left = lo[:, None] + steps
        right = end[:, None] + 1 + steps
        off = np.concatenate([np.zeros((wide.size, w), dtype=bool),
                              left >= start[:, None], right >= stop[:, None]], axis=1)
        more = np.concatenate([cand[wide], left, np.minimum(right, n - 1)], axis=1)
        sel[wide], d2[wide] = _closest(xs, rs, wide, more, k, off)
        # A run of several values (distinct values whose squared gaps round
        # alike) has no such order; those rare rows rescan the whole range.
        mixed = ((xs[lo] != xs[np.maximum(start - 1, lo)])
                 | (xs[stop - 1] != xs[np.minimum(end + 1, stop - 1)]))
        for r, a, b in zip(wide[mixed], lo[mixed], stop[mixed]):
            span = np.arange(a, b)
            span = span[span != r][None, :]
            sel[r], d2[r] = _closest(xs, rs, np.array([r]), span, k)

    pos = np.empty((n, k), dtype=np.int64)
    dist = np.empty((n, k), dtype=np.float64)
    pos[order] = order[sel]
    dist[order] = d2
    return pos, dist


def _sq_gap(xs, q, p):
    diff = xs[q] - xs[p]
    return diff * diff


def _closest(xs, rs, p, cand, k, off=None):
    """Per row of ``cand``: the k smallest (squared gap to p, rank), ``off`` ones last."""
    d2 = _sq_gap(xs, cand, p[:, None])
    keys = (rs[cand], d2) if off is None else (rs[cand], d2, off)
    pick = np.lexsort(keys, axis=-1)[:, :k]
    return np.take_along_axis(cand, pick, 1), np.take_along_axis(d2, pick, 1)


def _first_true(pred, lo, hi):
    """Per element, the least q in [lo, hi) with pred(q), else hi; pred is monotone in q."""
    while np.any(live := lo < hi):
        mid = (lo + hi - 1) // 2        # in [lo, hi) where live, never hi itself
        yes = pred(mid)
        hi = np.where(live & yes, mid, hi)
        lo = np.where(live & ~yes, mid + 1, lo)
    return lo


# ---------------------------------------------------------------------------
# Greedy herding: repeatedly add the candidate minimizing the distance
# between the running selected mean and the target mean.  Minimizing
# ||(S + x_j)/(t+1) - mu|| over j is minimizing ||x_j + (S - (t+1) mu)||,
# i.e. |x_j|^2 + 2 x_j.c with the shifted center c, so each step is one
# matrix-vector product.
# ---------------------------------------------------------------------------


def herding_greedy(X: np.ndarray, mu: np.ndarray, count: int) -> np.ndarray:
    """Indices of ``count`` greedily herded rows of X toward mean ``mu``.

    Rows must be pre-sorted in tie-break order (ascending id); ties in the
    greedy objective go to the earliest row.
    """
    X = np.ascontiguousarray(X, dtype=np.float64)
    mu = np.ascontiguousarray(mu, dtype=np.float64)
    # |c| <= (2 count - 1) max |x|, so every score lies within (4 count - 1) max |x|^2.
    with np.errstate(over="ignore", invalid="ignore"):
        sq = np.einsum("ij,ij->i", X, X)
        bound = (4 * count + 1) * sq.max()
    if not np.isfinite(bound):
        raise ValueError(OVERFLOW)
    score = np.empty(X.shape[0])
    out = np.empty(count, dtype=np.int64)
    S = np.zeros(X.shape[1])
    for t in range(count):
        c = S - (t + 1) * mu
        np.matmul(X, c, out=score)
        score *= 2.0
        score += sq                # a taken row's +inf norm keeps it out
        j = int(np.argmin(score))  # first occurrence = lowest rank on ties
        out[t] = j
        sq[j] = np.inf
        S += X[j]
    return out
