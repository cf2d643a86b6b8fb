"""The two quadratic kernels: exact k-nearest neighbors and greedy herding.

Both are plain numpy with one implementation each, so every caller and
every test runs the same code.  Neighbor search finds candidates with
the gram trick on column-centered rows, then ranks them by exact squared
distances computed from the input rows.  Herding scans every candidate
once per pick.
"""

from __future__ import annotations

import numpy as np

# ---------------------------------------------------------------------------
# k-nearest neighbors, exact brute force.
#
# Output contract: for each row i, the k nearest other rows by squared
# euclidean distance, ordered by (distance, rank), where ``rank`` is the
# caller's tie-break ordering (ascending sample id).  Returned distances
# are exact squared distances of the selected pairs.
# ---------------------------------------------------------------------------


def neighbor_table(X: np.ndarray, rank: np.ndarray, k: int):
    """k smallest (squared distance, rank) pairs per row, self excluded."""
    X = np.ascontiguousarray(X, dtype=np.float64)
    rank = np.ascontiguousarray(rank, dtype=np.int64)
    n, m = X.shape
    pos = np.empty((n, k), dtype=np.int64)
    d2 = np.empty((n, k), dtype=np.float64)
    # Distances do not change under translation, but the gram trick's
    # rounding error grows with the squared norms, so candidates come from
    # centered rows.  A gram entry is off by at most a few (m + 2) eps
    # (|x_i|^2 + |x_j|^2); twice that bound as the margin on each row's cut
    # keeps every true member among the candidates.
    C = X - X.mean(axis=0)
    sq = np.einsum("ij,ij->i", C, C)
    margin = 8.0 * (m + 2) * np.finfo(np.float64).eps * (sq + sq.max())
    block = max(1, min(n, int(2**24 // max(n, 1)) or 1))
    for b0 in range(0, n, block):
        b1 = min(b0 + block, n)
        D = sq[b0:b1, None] + sq[None, :] - 2.0 * (C[b0:b1] @ C.T)
        D[np.arange(b1 - b0), np.arange(b0, b1)] = np.inf
        cuts = np.partition(D, k - 1, axis=1)[:, k - 1] + margin[b0:b1]
        for r in range(b1 - b0):
            i = b0 + r
            cand = np.flatnonzero(D[r] <= cuts[r])
            diff = X[cand] - X[i]
            exact = np.einsum("ij,ij->i", diff, diff)
            order = np.lexsort((rank[cand], exact))[:k]
            pos[i] = cand[order]
            d2[i] = exact[order]
    return pos, d2


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
    n = X.shape[0]
    sq = np.einsum("ij,ij->i", X, X)
    taken = np.zeros(n, dtype=bool)
    out = np.empty(count, dtype=np.int64)
    S = np.zeros(X.shape[1])
    for t in range(count):
        c = S - (t + 1) * mu
        score = sq + 2.0 * (X @ c)
        score[taken] = np.inf
        j = int(np.argmin(score))  # first occurrence = lowest rank on ties
        out[t] = j
        taken[j] = True
        S += X[j]
    return out
