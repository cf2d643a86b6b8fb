"""The two kernels: exact k-nearest neighbors and greedy herding.

Both are plain numpy, so every install runs the same code.  Neighbor
search has two candidate proposers, chosen by width alone, and one
ranking step.  A width-1 input (the l2norm representation) is sorted
once by (value, rank); a row proposes the rows of its 2k-row window no
farther than its k-th distance, and the tie runs at that distance past
the window edges: about O(n log n + n k log k) work.  Wider inputs
propose with the gram trick on column-centered rows, scaled by a power
of two: O(n^2 m) work at most, in blocks of rows that reuse two fixed
buffers and a candidate mask.  Rows are first grouped around up to
PIVOTS pivots (O(n P m) work); a triangle-inequality bound on each row's
k-th distance lets each block skip the groups that cannot hold a
neighbor or a tie.  Where that bound would keep more than KEPT of the
gram (rows without clusters), there is one group and the blocks span all
n columns.  Each block of squared distances is one matmul per run of
reachable columns, marked in float32 within a margin derived in
``_gram_scan`` that holds every true neighbor, cut at the k-th smallest
of its integer view, whose order is the value order for non-negative
floats.  A block that marks more than 2k candidates per row (tightly
clustered rows) is marked again in float64, as is every later block.
``_rescore`` ranks either path's candidates by exact squared distances of
the input rows, in chunks of rows sized from their own candidate counts,
so that runs of ties keep to the same memory.  It sorts each row by
distance alone, and sorts again only the rows with a tie among their
k + 1 nearest candidates, each whole row by one integer (tie run, rank)
key (``_by_rank``); in every other row the k nearest lie strictly below
the rest, so their order needs no tie-break.  It writes each table row
once, in the caller's order, through its path's scan order.  Both paths thus return one (distance, ascending-rank) table,
exact under any translation or scale of the features that keeps squared
distances finite in float64.  Larger inputs (entries from about 1e153
up) and non-finite ones raise ``ValueError``.  Herding scans every
candidate once per pick, under the same limit on its scores.

Working memory of the gram path beyond the input and its n x k table
(16 n k bytes), for n rows of width m: the float64 centered rows C and
their float32 operands, 16 n (m + 2) bytes; the two block buffers and the
mask, 17 BLOCK_ELEMENTS bytes; the rescoring chunks, 16 RESCORE_ELEMENTS;
and one pass's candidate indices, 6 RESCORE_ELEMENTS.  A fallback to
float64 adds its operand, 8 n (m + 2).  Grouped rows add their copies of X
and C in group order, 16 n (m + 1); the bounds take O(n P) and are freed
before the first block.
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
# column, distance, sorts, rank and key about 50 (traced peaks, all rows tied:
# 49 bytes at m = 1, 528 at m = 32), so at most 16 bytes per element, 8 MB.
RESCORE_ELEMENTS = BLOCK_ELEMENTS // 2

# Pivot groups of the gram path: at most PIVOTS pivots, drawn from a
# sample of about PIVOT_SAMPLE rows (every n // PIVOT_SAMPLE-th), and one
# group wherever the bound keeps more than KEPT of the gram.  Measured on
# 2 cores at n = 5000, m = 32, k = 40 (see ROADMAP): 16 pivots served 5,
# 10 and 20 clusters (8 missed 10 and 20, 32 cost 5 ms more on 5), and
# keeping groups cost more than it saved from a kept share of about 0.65.
PIVOTS = 16
PIVOT_SAMPLE = 512
KEPT = 0.5

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
    """k smallest (squared distance, rank) pairs per row, self excluded.

    ``rank`` is a permutation of 0..n-1, as the key of ``_by_rank`` needs."""
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
    #
    # Pivot groups.  Where the rows form clusters far apart, most of the gram
    # holds no neighbor.  _groups picks pivots by farthest-point traversal
    # over a strided sample of the rows c, gives each row to its nearest
    # pivot, and takes each group's centre mu_g (the mean of its rows) and
    # radius r_g (its largest row-centre distance), and each row's distance
    # delta_ig to each centre.  By the triangle inequality every row j of
    # group g lies within [delta_ig - r_g, delta_ig + r_g] of row i.  Let
    # A_i be the least delta_ig + r_g at which the groups within it hold
    # k + 1 rows: they hold k rows besides i, so i's k-th distance is at
    # most A_i, and a group with delta_ig - r_g > A_i holds no row that can
    # be i's neighbor or tie with its k-th.  Rows are ordered by group, and
    # each block of rows is multiplied and marked only against the groups
    # its rows can reach (each row reaches its own).  Those columns hold
    # every true member, so a row's k-th smallest among them is its k-th,
    # and the argument above holds as it stands.
    #
    # The bounds are taken in float64 on c.  Let R^2 = max |c|^2 and
    # lam = 4 (m + 3) eps64 R^2.  Each delta comes from the gram form
    # |c_i|^2 + |mu_g|^2 - 2 c_i.mu_g, off by at most lam / 2 (|mu_g| <= R up
    # to rounding, a centre being a mean of rows), so after the square root
    # delta and r are each off by under sqrt(lam / 2) + eps64 R, and A_i,
    # their rounded sum, by another 2 eps64 R: kappa = 2 sqrt(lam) covers
    # two such errors and the sum.  Rescoring's d_ij, in scaled units,
    # differs from |c_i - c_j|^2 by at most lam + subnormal: centering moves
    # each entry of c by eps64 / 2 of itself (entries below float64's normal
    # range by under 2^-1074), so |c_i - c_j| by under eps64 R, and the
    # rescoring sums are off by (m + 2) eps64 / 2 relatively plus the
    # subnormal term.  So with lo = delta_ig - r_g - kappa > 0, every row j
    # of g has d_ij >= lo^2 - (lam + subnormal), and i's k-th d is at most
    # (A_i + kappa)^2 + lam + subnormal.  Group g is skipped for row i when
    # lo^2 > (A_i + kappa)^2 + 8 (lam + subnormal): four times the two
    # errors, the rest covering the test's own roundings (lo <= 2R and
    # A_i <= 4R, so under 50 eps64 R^2 in all, against 6 lam >= 120 eps64
    # R^2).  Inputs whose scaled squared distances underflow skip nothing.
    C = np.ones((n, m + 2))
    np.subtract(X, X.mean(axis=0), out=C[:, :m])
    s = int(np.frexp(max(C[:, :m].max(), -C[:, :m].min()))[1])
    np.ldexp(C[:, :m], -s, out=C[:, :m])
    sq = np.einsum("ij,ij->i", C[:, :m], C[:, :m])
    C[:, m] = sq
    subnormal = np.ldexp(float(m), min(-1072 - 2 * s, 64))
    grouped = _groups(C[:, :m], sq, k, subnormal)
    if grouped is None:
        return _scan(X, rank, k, C, subnormal, [(0, n, [(0, n)])])
    order, bands = grouped
    # Scanned in group order, whose nearby rows rescore faster than the
    # caller's.  Rebinding C frees the rows in the caller's order first.
    X, rank, C = X[order], rank[order], C[order]
    return _scan(X, rank, k, C, subnormal, bands, order)


def _scan(X, rank, k, C, subnormal, bands, names=None):
    """The table, from blocks of each band's rows.

    A band (r0, r1, spans) marks rows [r0, r1) against the column ranges
    ``spans``; ``names`` as in ``_rescore_rows``.
    """
    n, m = X.shape[0], C.shape[1] - 2
    sq = C[:, m]
    pos = np.empty((n, k), dtype=np.int64)
    d2 = np.empty((n, k), dtype=np.float64)
    # Two float64 rows x n buffers for a block's d and its partitioned copy
    # and a rows x n mask, reused by every block: 17 MB in all while
    # n <= BLOCK_ELEMENTS (one row each past that), whatever n^2 is.  The
    # float32 blocks are views of the buffers' first halves, so the same
    # allocations serve both precisions.  Separate 4 MB float32 buffers
    # saved no memory on average, and left the process's peak RSS varying
    # by 10 MB from run to run with where glibc trimmed its heap.  A band
    # reaching w < n columns keeps the same rows per block and fills only
    # part of them: blocks of more rows, filling the buffers, were no
    # faster, and their larger candidate lists raised peak RSS by 2 MB.
    rows = max(1, min(n, BLOCK_ELEMENTS // n))
    E = np.empty(rows * n)
    P = np.empty(rows * n)
    M = np.empty(rows * n, dtype=bool)

    def marker(dtype, steps):
        """A function marking the candidates of rows [b0, b1) in ``dtype``."""
        left = C.astype(dtype, copy=False)
        right = np.ones((m + 2, n), dtype=dtype)
        np.multiply(left[:, :m].T, -2, out=right[:m])
        right[m + 1] = sq
        margin = 8.0 * (m + steps) * np.finfo(dtype).eps * (sq + sq.max()) + subnormal
        margin = margin.astype(dtype)
        e, p = (B.view(dtype) for B in (E, P))

        def mark(b0, b1, spans, own, mask):
            d, at = e[:mask.size].reshape(mask.shape), 0
            for c0, c1 in spans:
                np.matmul(left[b0:b1], right[:, c0:c1], out=d[:, at:at + c1 - c0])
                at += c1 - c0
            d[np.arange(b1 - b0), np.arange(own, own + b1 - b0)] = np.inf
            return _mark(d, p[:d.size].reshape(d.shape), margin[b0:b1], k, mask)
        return mark

    # One nonzero pass finds a block's candidates, or, past RESCORE_ELEMENTS
    # / 4 of them (a tie-heavy block), one pass per slab of rows holding at
    # most that many mask entries: a pass's indices take at most 3 MB.
    mark, in_float64 = marker(np.float32, 5), False
    for r0, r1, spans in bands:
        cols = np.concatenate([np.arange(c0, c1) for c0, c1 in spans])
        w = cols.size
        slab = max(1, RESCORE_ELEMENTS // (4 * w))
        for b0 in range(r0, r1, rows):
            b1 = min(b0 + rows, r1)
            own = int(np.searchsorted(cols, b0))   # the band's rows are columns it reaches
            mask = M[:(b1 - b0) * w].reshape(b1 - b0, w)
            total = mark(b0, b1, spans, own, mask)
            if not in_float64 and total > 2 * k * (b1 - b0):
                mark, in_float64 = marker(np.float64, 3), True
                total = mark(b0, b1, spans, own, mask)
            width = b1 - b0 if total <= RESCORE_ELEMENTS // 4 else slab
            for s0 in range(b0, b1, width):
                s1 = min(s0 + width, b1)
                r, c = np.divmod(np.flatnonzero(mask[s0 - b0:s1 - b0]), w)
                counts = np.bincount(r, minlength=s1 - s0)
                c = cols[c] if len(spans) > 1 else c + spans[0][0]
                e = np.concatenate(([0], np.cumsum(counts)))
                _rescore_rows(X, rank, s0, counts, lambda a, b: c[e[a]:e[b]], pos, d2, names)
    return pos, d2


def _groups(c, sq, k, subnormal):
    """Rows grouped around pivots, or None where the bound would skip little.

    Returns the group order of the rows and its bands: runs of rows, in that
    order, whose groups reach the same groups, each with the column ranges
    it reaches.  The share of the gram those bands keep is estimated first
    on the strided sample, then taken on every row; over KEPT, there is one
    group.
    """
    n, m = c.shape
    stride = max(1, n // PIVOT_SAMPLE)
    sample, norms = c[::stride], sq[::stride]
    picks = [int(norms.argmax())]             # the largest row, lowest index on ties
    far = np.full(sample.shape[0], np.inf)
    while len(picks) < PIVOTS:
        j = picks[-1]
        np.minimum(far, norms + norms[j] - 2.0 * (sample @ sample[j]), out=far)
        j = int(far.argmax())
        if far[j] <= 0.0:
            break
        picks.append(j)
    pivots = sample[picks]
    lam = 4.0 * (m + 3) * np.finfo(np.float64).eps * sq.max()
    slack = (2.0 * np.sqrt(lam), 8.0 * (lam + subnormal))
    # The sample's share reads low (its radii are smaller), so it only
    # spares unclustered input the bounds of every row.
    rounds = [(sample, norms, -(-(k + 1) // stride))] if stride > 1 else []
    for part, part_sq, held in rounds + [(c, sq, k + 1)]:
        label, size, reach = _reach(part, part_sq, pivots, held, slack)
        if size @ reach @ size > KEPT * float(part.shape[0]) ** 2:
            return None
    # Groups that reach the same groups form a band.  Bands follow the
    # order of their rows of reach, groups the order of their bands, and
    # rows the order of their groups: a band's rows are one range, and so
    # are the columns of each group.
    reaches, band = np.unique(reach, axis=0, return_inverse=True)
    seq = np.argsort(band, kind="stable")                   # groups in row order
    order = np.argsort(np.argsort(seq)[label], kind="stable")
    starts = np.concatenate(([0], np.cumsum(size[seq])))
    bands = []
    for b in range(reaches.shape[0]):
        own = np.flatnonzero(band[seq] == b)
        edge = np.flatnonzero(np.diff(np.concatenate(([0], reaches[b][seq], [0]))))
        spans = list(zip(starts[edge[0::2]].tolist(), starts[edge[1::2]].tolist()))
        bands.append((int(starts[own[0]]), int(starts[own[-1] + 1]), spans))
    return order, bands


def _reach(c, sq, pivots, held, slack):
    """Each row's nearest pivot; group sizes; groups x groups reachability.

    Entry (g, h) is true where some row of group g may have a neighbor in
    group h, by the bound in ``_gram_scan``; a row's groups within A hold
    ``held`` rows.  Groups left empty are dropped.
    """
    n = c.shape[0]
    label = (np.einsum("ij,ij->i", pivots, pivots) - 2.0 * (c @ pivots.T)).argmin(axis=1)
    size = np.bincount(label, minlength=pivots.shape[0])
    label = (np.cumsum(size > 0) - 1)[label]
    size = size[size > 0]
    member = np.zeros((n, size.size))
    member[np.arange(n), label] = 1.0
    centre = (member.T @ c) / size[:, None]
    delta = sq[:, None] + np.einsum("ij,ij->i", centre, centre) - 2.0 * (c @ centre.T)
    np.sqrt(np.maximum(delta, 0.0, out=delta), out=delta)
    radius = np.zeros(size.size)
    np.maximum.at(radius, label, delta[np.arange(n), label])
    near = delta + radius
    by = np.argsort(near, axis=1)
    inside = np.count_nonzero(np.cumsum(size[by], axis=1) < held, axis=1)
    A = near[np.arange(n), by[np.arange(n), inside]]
    kappa, eta = slack
    lo = delta - radius - kappa
    reach = (lo <= 0.0) | (lo * lo <= ((A + kappa) ** 2 + eta)[:, None])
    return label, size, (member.T @ reach) > 0.0


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


def _rescore_rows(X, rank, start, counts, candidates, pos, d2, names=None):
    """Table rows start, start + 1, ... from their candidates, in chunks.

    ``counts[i]`` holds the number of candidates of table row start + i (k at
    least), and ``candidates(r0, r1)`` returns those of rows start + r0 to
    start + r1 - 1, row by row, as one flat array of columns.  A chunk takes rows
    while rows x its widest row x (m + 4) fits RESCORE_ELEMENTS (one row at
    least), so a row of many candidates only shrinks the chunks around it.
    ``names[i]`` is the caller's index of row i of X (None: the identity);
    every scan order writes the table through it, in the caller's order.
    """
    budget, r0 = RESCORE_ELEMENTS // (X.shape[1] + 4), 0
    while r0 < counts.size:
        ahead = counts[r0:r0 + budget // int(counts[r0])]
        fits = np.arange(1, ahead.size + 1) * np.maximum.accumulate(ahead) <= budget
        r1 = r0 + max(1, int(np.count_nonzero(fits)))
        _rescore(X, rank, start + r0, candidates(r0, r1), counts[r0:r1], pos, d2, names)
        r0 = r1


def _rescore(X, rank, i0, c, counts, pos, d2, names=None):
    """Rows i0, i0 + 1, ... of the table from their candidates, in one pass.

    Exact squared distances of every candidate (laid out as in
    ``_rescore_rows``), one row per table row, padded with +inf, which sorts
    after every candidate (their distances are finite).  Each row is sorted
    by distance alone.  Where its first k + 1 sorted distances are all
    distinct, its k smallest lie strictly below every other candidate's, so
    they are its first k in (distance, rank) order whatever the sort did
    with equal values.  Rows with a tie among those k + 1 go whole to
    ``_by_rank``.  The first k columns are the row's neighbors, written
    through ``names`` (as in ``_rescore_rows``); their distances are the
    same under either order.
    """
    k = pos.shape[1]
    diff = X.take(c, axis=0)
    diff -= X.take(np.repeat(np.arange(i0, i0 + counts.size), counts), axis=0)
    filled = np.arange(counts.max()) < counts[:, None]
    dist = np.full(filled.shape, np.inf)
    dist[filled] = np.einsum("ij,ij->i", diff, diff)
    del diff, filled
    order = np.argsort(dist, axis=-1)
    # take_along_axis through flat indices: 1.2 against 2.0 ms per external table
    at = dist.shape[1] * np.arange(counts.size)[:, None]
    near = dist.take(order[:, :k + 1] + at)
    tied = (near[:, 1:] == near[:, :-1]).any(axis=1)
    first = (np.cumsum(counts) - counts)[:, None]
    picks = c.take(first + order[:, :k])
    if tied.any():
        order = order[tied]                                # frees the other rows' sorts
        dist = dist.take(order + at[tied])                 # and the unsorted distances
        cand = c.take(first[tied] + order, mode="clip")    # padding: any column, ranked last
        del order
        picks[tied] = np.take_along_axis(cand, _by_rank(dist, rank[cand], k), axis=1)
    if names is None:
        rows = slice(i0, i0 + counts.size)
    else:
        rows, picks = names[i0:i0 + counts.size], names.take(picks)
    pos[rows] = picks
    d2[rows] = near[:, :k]


def _by_rank(dist, ranks, k):
    """The first k places of each sorted row of ``dist`` in (distance, rank) order.

    With ``ranks`` in 0..n-1, run * (max rank + 1) + rank, run counting the
    distance changes along the row, is that order, below n^2 < 2^63.  The +inf
    padding is the last run, whatever its ranks."""
    key = np.zeros(dist.shape, dtype=np.int64)
    np.cumsum(dist[:, 1:] != dist[:, :-1], axis=1, out=key[:, 1:])
    key *= int(ranks.max()) + 1
    key += ranks
    return np.argsort(key, axis=-1)[:, :k]


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
        return np.arange(int(s.sum())) + np.repeat(b - (np.cumsum(s) - s), s)

    pos, d2 = np.empty((n, k), dtype=np.int64), np.empty((n, k))
    _rescore_rows(xs[:, None], rank[order], 0, counts, candidates, pos, d2, order)
    return pos, d2


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
# vector-matrix product.  It runs against XT, a feature-major copy of the
# doubled rows made once per call: c @ XT streams each feature's n values
# in order, where X @ c walks n short rows (23 against 53 us per product at
# n = 20000, d = 5 on 2 cores; equal at d = 100).  Its scores can differ
# from those of X @ c by rounding, a few eps |x_j| |c| from another
# summation order.  Doubling is exact and commutes with every rounding
# while no product or partial sum is subnormal, so c @ XT is 2 c.x_j
# exactly as the undoubled product rounds it, with no pass to double it.
#
# BLAS scores the last n % 4 columns of a product in a separate tail path,
# which can score an exact duplicate an ulp apart from its earlier copy.
# So XT has n rounded up to a multiple of 64 columns (not 4, so that
# kernels unrolled over 8, 16 or 32 columns have no tail either), the
# extra ones zero, with a +inf norm that keeps them out.  Exact duplicates
# then scored alike in 400 of 400 random trials up to n = 20000, so ties
# go to the earliest row.
# ---------------------------------------------------------------------------


def herding_greedy(X: np.ndarray, mu: np.ndarray, count: int) -> np.ndarray:
    """Indices of ``count`` greedily herded rows of X toward mean ``mu``.

    Rows must be pre-sorted in tie-break order (ascending id); ties in the
    greedy objective go to the earliest row.
    """
    X = np.ascontiguousarray(X, dtype=np.float64)
    mu = np.ascontiguousarray(mu, dtype=np.float64)
    n, d = X.shape
    padded = -(-n // 64) * 64
    sq = np.full(padded, np.inf)
    # |c| <= (2 count - 1) max |x|, so every score lies within (4 count - 1) max |x|^2.
    with np.errstate(over="ignore", invalid="ignore"):
        np.einsum("ij,ij->i", X, X, out=sq[:n])
        bound = (4 * count + 1) * sq[:n].max()
    if not np.isfinite(bound):
        raise ValueError(OVERFLOW)
    XT = np.zeros((d, padded))
    np.multiply(X.T, 2.0, out=XT[:, :n])
    score = np.empty(padded)
    c = np.empty(d)
    out = np.empty(count, dtype=np.int64)
    S = np.zeros(d)
    for t in range(count):
        np.multiply(mu, t + 1, out=c)
        np.subtract(S, c, out=c)
        np.matmul(c, XT, out=score)
        score += sq                # a taken row's +inf norm keeps it out
        j = int(score.argmin())    # first occurrence = lowest rank on ties
        out[t] = j
        sq[j] = np.inf
        S += X[j]
    return out
