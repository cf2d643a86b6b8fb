"""The two kernels: exact k-nearest neighbors and greedy herding.

Both are plain numpy, so every install runs the same code.  Neighbor
search has two paths, chosen by width alone.  A width-1 input (the
l2norm representation) is sorted once by (value, rank); each row takes
the 2k rows around it in that order as candidates, widened across any
run of rows tied at the k-th distance past a window edge: about
O(n log n + n k log k) work.  Wider inputs find candidates with the gram
trick on column-centered rows, scaled by a power of two: O(n^2 m) work
in blocks of rows that reuse two fixed rows x n buffers and a rows x n
candidate mask (17 MB; float32 blocks use the first half of each
buffer).  Each block of squared distances is one matmul, marked in
float32 within a margin derived in ``_gram_scan`` that holds every true
neighbor; its k-th smallest per row comes from a partition of the
block's integer view, whose order is the value order for non-negative
floats.  A block that marks more than 2k candidates per row (tightly
clustered rows) is marked again in float64, as is every later block, so
at most one float32 block per input is wasted.  One nonzero pass per
block finds its candidates (one per slab of rows in a tie-heavy block,
every entry a candidate), and they are rescored exactly in float64 by
whole-block numpy calls, not a loop over its rows, in chunks of rows
sized from their candidate counts, so a tie-heavy block keeps to the
same budget.  Beyond the input and the table the path needs about
25 MB, not memory that grows with n^2.  Both paths rank their
candidates by exact squared distances computed from the input rows and
break ties by ascending rank, so both return the same (distance,
ascending-rank) table, exact under any translation or scale of the
features that keeps squared distances finite in float64.  Larger inputs
(entries from about 1e153 up) and non-finite ones raise ``ValueError``.
Herding scans every candidate once per pick, under the same limit on its
scores.
"""

from __future__ import annotations

import numpy as np

# Elements in each of the gram path's two float64 block buffers (8 MB
# each; float32 blocks take the first half).  On 2 cores, k-NN at n = 5000
# and 20000 (m = 32) ran as fast at 2^20 as at 2^21 or 2^22, and about 5%
# slower at 2^19, with float64 blocks; with float32 ones, 2^19, 2^20 and
# 2^21 were within noise of one another.
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
    # centered rows, scaled by 2^-s (exactly) so that their largest entry
    # lies in [1/2, 1) and max |c|^2 in [1/4, m).  Each block of squared
    # distances d_ij = |c_i|^2 + |c_j|^2 - 2 c_i.c_j is one matmul of
    # [c_i, |c_i|^2, 1] by [-2 c_j; 1; |c_j|^2]: the -2 is exact, and no pass
    # adds the norms afterwards.  The computed d_ij are non-negative up to
    # rounding, so _mark partitions them through their integer view.
    #
    # The candidates are marked in float32, of unit roundoff u = eps32 / 2.
    # Casting c to float32 moves each entry by at most u times itself, and
    # 2 c_i.c_j by at most 2 u (|c_i|^2 + |c_j|^2); rounding |c_i|^2 and
    # |c_j|^2 to float32 moves them by u |c_i|^2 and u |c_j|^2; and the
    # (m + 2)-term product, summed in any order and stored in float32, is off
    # by at most (m + 2) u (2 |c_i| |c_j| + |c_i|^2 + |c_j|^2) <=
    # 2 (m + 2) u (|c_i|^2 + |c_j|^2).  In all d_ij is off by at most
    # (2 m + 7) u (|c_i|^2 + |c_j|^2), within t_i - 3 u (|c_i|^2 + max |c|^2)
    # for t_i = (m + 5) eps32 (|c_i|^2 + max |c|^2).  The spare term covers
    # the products of these errors while (m + 4)^2 u <= 1, and entries and
    # products below float32's normal range, off by under 2^-126 each against
    # max |c|^2 >= 1/4.  The row's computed k-th smallest d is then at most
    # t_i below its exact value and a true member's d at most t_i above its
    # own, so every true member lies within 2 t_i of the computed k-th.  The
    # integer view orders the row's negative values (all within t_i of 0,
    # -0.0 among them) first, in reverse; so a row holding k or more of them
    # cuts at one of them, not at its float k-th.  Both lie in [-t_i, 0], so
    # every true member lies within 3 t_i of the cut's base: under half the
    # margin of 8 t_i below.  The rest covers the second-order terms of any m
    # below 10^7, float64 rounding in centering and rescoring, and rounding
    # the cut, p + margin with |p| <= 2 (|c_i|^2 + max |c|^2), to float32.
    # Rescoring's subnormal sums are the exception: off by up to m 2^-1074
    # absolutely, m 2^(-1074 - 2s) in scaled units, they can rank members up
    # to twice that further out, so the margin adds four times it (capped
    # where it already passes every d).
    #
    # Tightly clustered rows can lie within that margin by the hundred.  A
    # block that marks over 2k candidates per row is marked again in
    # float64, and so is every later block.  There the same argument, with
    # no cast and the same spare term, gives t_i = (m + 3) eps64 (|c_i|^2 +
    # max |c|^2) and the same margin of 8 t_i plus the subnormal term.
    C = np.ones((n, m + 2))
    np.subtract(X, X.mean(axis=0), out=C[:, :m])
    s = int(np.frexp(max(C[:, :m].max(), -C[:, :m].min()))[1])
    np.ldexp(C[:, :m], -s, out=C[:, :m])
    sq = np.einsum("ij,ij->i", C[:, :m], C[:, :m])
    C[:, m] = sq
    subnormal = np.ldexp(float(m), min(-1072 - 2 * s, 64))

    # Two float64 rows x n buffers for a block's d and its partitioned copy
    # and a rows x n mask, reused by every block: 17 MB in all while
    # n <= BLOCK_ELEMENTS (one row each past that), whatever n^2 is.  The
    # float32 blocks are views of the buffers' first halves, so the same
    # allocations serve both precisions.  Separate 4 MB float32 buffers
    # saved no memory on average, and left the process's peak RSS varying
    # by 10 MB from run to run with where glibc trimmed its heap.
    rows = max(1, min(n, BLOCK_ELEMENTS // n))
    E = np.empty((rows, n))
    P = np.empty((rows, n))
    M = np.empty((rows, n), dtype=bool)

    def marker(dtype, steps):
        """A function marking the candidates of rows [b0, b1) in ``dtype``."""
        left = C.astype(dtype, copy=False)
        right = np.ones((m + 2, n), dtype=dtype)
        np.multiply(left[:, :m].T, -2, out=right[:m])
        right[m + 1] = sq
        margin = 8.0 * (m + steps) * np.finfo(dtype).eps * (sq + sq.max()) + subnormal
        margin = margin.astype(dtype)
        e, p = (B.reshape(-1).view(dtype)[:rows * n].reshape(rows, n) for B in (E, P))

        def mark(b0, b1, mask):
            d = e[:b1 - b0]
            np.matmul(left[b0:b1], right, out=d)
            d[np.arange(b1 - b0), np.arange(b0, b1)] = np.inf
            return _mark(d, p[:b1 - b0], margin[b0:b1], k, mask)
        return mark

    # One nonzero pass finds a block's candidates, or, when they number over
    # RESCORE_ELEMENTS / 4 (a tie-heavy block), one pass per slab of rows
    # holding at most that many mask entries, so that a pass's flat, row and
    # column indices take at most 3 MB.
    slab = max(1, RESCORE_ELEMENTS // (4 * n))
    mark, in_float64 = marker(np.float32, 5), False
    for b0 in range(0, n, rows):
        b1 = min(b0 + rows, n)
        mask = M[:b1 - b0]
        total = mark(b0, b1, mask)
        if not in_float64 and total > 2 * k * (b1 - b0):
            mark, in_float64 = marker(np.float64, 3), True
            total = mark(b0, b1, mask)
        width = b1 - b0 if total <= RESCORE_ELEMENTS // 4 else slab
        for s0 in range(b0, b1, width):
            s1 = min(s0 + width, b1)
            r, c = np.divmod(np.flatnonzero(mask[s0 - b0:s1 - b0]), n)
            counts = np.bincount(r, minlength=s1 - s0)
            r += s0
            edges = np.concatenate(([0], np.cumsum(counts)))
            step = max(1, RESCORE_ELEMENTS // ((m + 2) * int(counts.max())))
            for r0 in range(0, s1 - s0, step):
                r1 = min(r0 + step, s1 - s0)
                lo, hi = edges[r0], edges[r1]
                _rescore(X, rank, r[lo:hi], c[lo:hi], counts[r0:r1], pos, d2)
    return pos, d2


def _mark(d, p, margin, k, mask):
    """Mark each row's candidates in block ``d`` in ``mask``; return how many.

    ``d`` holds the rows' rounded squared distances (+inf at their own
    entries) and ``p`` receives its partitioned copy.  The copy is
    partitioned through its integer view, whose order is the value order for
    non-negative floats (+inf last), at about half the cost of a float
    partition; rounded negative values, -0.0 among them, sort first and in
    reverse (see _gram_scan).
    """
    np.copyto(p, d)
    p.view(f"i{p.itemsize}").partition(k - 1, axis=1)
    cuts = p[:, k - 1] + margin
    np.less_equal(d, cuts[:, None], out=mask)
    return np.count_nonzero(mask)


def _rescore(X, rank, r, c, counts, pos, d2):
    """Rows r[0], r[0] + 1, ... of the table from their candidates, in one pass.

    Candidate t is column c[t] of table row r[t], in row-major order, and
    ``counts`` holds each row's number of them.  Exact squared distances of
    every candidate, laid out one row per table row and padded with
    (inf, rank n), which sorts after every candidate; each row holds at
    least k candidates, so the first k columns in (distance, rank) order are
    the row's neighbors.
    """
    n, k, i0 = X.shape[0], pos.shape[1], r[0]
    diff = X.take(c, axis=0)
    diff -= X.take(r, axis=0)
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
# vector-matrix product.  It runs against a feature-major copy XT of the
# rows, made once per call: c @ XT streams each feature's n values in
# order, where X @ c walks n short rows (23 against 53 us per product at
# n = 20000, d = 5 on 2 cores; equal at d = 100).  Its scores can differ
# from those of X @ c by rounding, a few eps |x_j| |c| from another
# summation order, but exact duplicate rows still score identically, so
# ties still go to the earliest row.
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
    XT = np.ascontiguousarray(X.T)
    score = np.empty(X.shape[0])
    out = np.empty(count, dtype=np.int64)
    S = np.zeros(X.shape[1])
    for t in range(count):
        c = S - (t + 1) * mu
        np.matmul(c, XT, out=score)
        score *= 2.0
        score += sq                # a taken row's +inf norm keeps it out
        j = int(np.argmin(score))  # first occurrence = lowest rank on ties
        out[t] = j
        sq[j] = np.inf
        S += X[j]
    return out
