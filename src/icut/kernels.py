"""The two kernels: exact k-nearest neighbors and greedy herding.

Both are plain numpy, so every install runs the same code.  Neighbor
search has two candidate proposers, chosen by width alone, and one
ranking step.  A width-1 input (the l2norm representation) is sorted
once by (value, rank); a row proposes the rows of its 2k-row window no
farther than its k-th distance, and the tie runs at that distance past
the window edges: about O(n log n + n k log k) work.  Wider inputs
propose with the gram trick on column-centered rows, scaled by a power
of two: O(n^2 m) work in blocks of rows that reuse two fixed rows x n
buffers and a rows x n candidate mask, about 25 MB beyond the input and
the table.  Each block of squared distances is one matmul, marked in
float32 within a margin derived in ``_gram_scan`` that holds every true
neighbor, cut at the k-th smallest of its integer view, whose order is
the value order for non-negative floats.  A block that marks more than
2k candidates per row (tightly clustered rows) is marked again in
float64, as is every later block.  ``_rescore`` ranks either path's
candidates by exact squared distances of the input rows, ties broken by
ascending rank, in chunks of rows sized from their own candidate counts,
so that runs of ties keep to the same memory.  Both paths thus return
the same (distance, ascending-rank) table, exact under any translation
or scale of the features that keeps squared distances finite in float64.
Larger inputs (entries from about 1e153 up) and non-finite ones raise
``ValueError``.  Herding scans every candidate once per pick, under the
same limit on its scores.
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
# widest row x (m + 4): a candidate's gathered rows take 16 m bytes, and its
# distance, rank, mask and sort indices about 50 (traced peaks: 57 bytes at
# m = 1, 512 at m = 32), so at most 16 bytes per element, 8 MB in all.
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

    # One nonzero pass finds a block's candidates, or, past RESCORE_ELEMENTS
    # / 4 of them (a tie-heavy block), one pass per slab of rows holding at
    # most that many mask entries: a pass's indices take at most 3 MB.
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
            e = np.concatenate(([0], np.cumsum(counts)))
            _rescore_rows(X, rank, counts, lambda a, b: (r[e[a]:e[b]], c[e[a]:e[b]]), pos, d2)
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


def _rescore_rows(X, rank, counts, candidates, pos, d2):
    """Table rows from their candidates, in chunks of consecutive rows.

    ``counts`` holds each row's number of candidates (k at least), and
    ``candidates(r0, r1)`` returns those of rows [r0, r1) as flat, row-major
    (r, c): candidate t is column c[t] of table row r[t].  A chunk takes rows
    while rows x its widest row x (m + 4) fits RESCORE_ELEMENTS (one row at
    least), so a row of many candidates only shrinks the chunks around it.
    """
    budget, r0 = RESCORE_ELEMENTS // (X.shape[1] + 4), 0
    while r0 < counts.size:
        ahead = counts[r0:r0 + budget // int(counts[r0])]
        fits = np.arange(1, ahead.size + 1) * np.maximum.accumulate(ahead) <= budget
        r1 = r0 + max(1, int(np.count_nonzero(fits)))
        _rescore(X, rank, *candidates(r0, r1), counts[r0:r1], pos, d2)
        r0 = r1


def _rescore(X, rank, r, c, counts, pos, d2):
    """Rows r[0], r[0] + 1, ... of the table from their candidates, in one pass.

    Exact squared distances of every candidate (laid out as in
    ``_rescore_rows``), one row per table row, padded with (inf, rank n),
    which sorts last; the first k columns in (distance, rank) order are the
    row's neighbors.
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
    # square, is monotone on each side of p.  The rows no farther from p
    # than its k-th distance therefore form one range [lo, stop) around it:
    # the fewer than k closer rows, all inside the window of 2k rows around
    # p, and the ties at the k-th distance, [lo, lt) and [ge, stop), which
    # may reach past it.  From these rows come the candidates to rescore.
    n = x.shape[0]
    order = np.lexsort((rank, x))
    xs = x[order]
    p = np.arange(n)
    w = min(2 * k, n - 1)                      # rows in the window besides p
    start = np.clip(p - k, 0, n - 1 - w)       # window [start, start + w] holds p
    # p's own zero gap is the window's smallest, so its (k + 1)-th smallest
    # gap is the k-th of the other rows.
    gaps = np.lib.stride_tricks.sliding_window_view(xs, w + 1)[start]
    gaps -= xs[:, None]
    gaps *= gaps
    gaps.partition(k, axis=1)
    d2k = gaps[:, k].copy()
    del gaps                                   # n x (2k + 1), not kept while rescoring

    def gap(q):
        diff = xs[q] - xs[p]
        return diff * diff

    lo = _first_true(lambda q: gap(q) <= d2k, np.zeros(n, dtype=np.int64), p)
    lt = _first_true(lambda q: gap(q) < d2k, np.maximum(lo, start), p)
    ge = _first_true(lambda q: gap(q) >= d2k, p + 1, start + w + 1)
    stop = _first_true(lambda q: gap(q) > d2k, ge, np.full(n, n))
    # Rows of one value sit in ascending rank, so a tie run of a single
    # value offers only its first k rows; a run of several values (distinct
    # values whose squared gaps round alike) has no such order and offers
    # all of its rows.
    left = np.where(xs[lo] == xs[np.maximum(lt - 1, 0)], np.minimum(lo + k, lt), lt)
    right = np.where(xs[np.minimum(ge, n - 1)] == xs[stop - 1], np.minimum(ge + k, stop), stop)

    # Each row's candidates are the runs [lo, left), [lt, p), (p, ge) and
    # [ge, right), expanded for one chunk of rows at a time into a flat list.
    begin = np.stack([lo, lt, p + 1, ge], axis=1)
    size = np.stack([left - lo, p - lt, ge - p - 1, right - ge], axis=1)
    counts = size.sum(axis=1)

    def candidates(r0, r1):
        b, s = begin[r0:r1].ravel(), size[r0:r1].ravel()
        c = np.arange(int(s.sum())) + np.repeat(b - (np.cumsum(s) - s), s)
        return np.repeat(p[r0:r1], counts[r0:r1]), c

    sel, d2 = np.empty((n, k), dtype=np.int64), np.empty((n, k))
    _rescore_rows(xs[:, None], rank[order], counts, candidates, sel, d2)
    back = np.empty_like(order)
    back[order] = p                            # sorted place of each row
    return order[sel[back]], d2[back]


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
