"""Shared test helpers: independent oracles, group actions, dataset factories
and readers for the report and selection files the library writes.

The oracles here are deliberately written as plain scans and straight-line
formula transcriptions, independent of the package's vectorized kernels,
so they can serve as ground truth for equivalence tests.
"""

import math

import numpy as np

from icut import LabeledDataset

# Lines appended by the acceptance tests; printed after the run so the
# per-criterion verdicts are visible in the terminal output.
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def random_dataset(n, d, num_classes=2, seed=0, with_truth=True, shuffle_ids=False):
    """Uniform features, uniform labels; optionally sparse shuffled ids."""
    rng = np.random.default_rng(seed)
    feats = rng.uniform(-1.0, 1.0, size=(n, d))
    labels = rng.integers(0, num_classes, size=n)
    ids = rng.permutation(3 * n)[:n] if shuffle_ids else np.arange(n)
    return LabeledDataset(
        features=feats,
        noisy_labels=labels,
        num_classes=num_classes,
        ids=ids,
        true_labels=labels.copy() if with_truth else None,
    )


def read_lines(path):
    """The lines of a file the library wrote, without their "\\n" ends."""
    with open(path, "r", newline="") as f:
        text = f.read()
    return text.rstrip("\n").split("\n") if text else []


def read_csv(path):
    """(header, rows) of a CSV the library wrote, every cell a string."""
    lines = read_lines(path)
    if not lines:
        raise ValueError("empty CSV")
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def read_selection_csv(path):
    """(ids, scores) of a selection CSV written by ``io.write_selection_csv``."""
    header, rows = read_csv(path)
    if header != ["id", "score"]:
        raise ValueError("not a selection CSV")
    return (np.array([int(row[0]) for row in rows], dtype=np.int64),
            np.array([float(row[1]) for row in rows], dtype=np.float64))


def oracle_neighbors(reps, ids, k):
    """O(n^2) scan: each row's k nearest others, ordered by (distance, id).

    Returns (rows, dists) where rows holds dataset-order positions.
    """
    reps = np.asarray(reps, dtype=np.float64)
    if reps.ndim == 1:
        reps = reps[:, None]
    n = reps.shape[0]
    diff = reps[:, None, :] - reps[None, :, :]
    dmat = np.sqrt((diff * diff).sum(axis=2))
    rows = np.empty((n, k), dtype=np.int64)
    dists = np.empty((n, k), dtype=np.float64)
    for i in range(n):
        cands = sorted((dmat[i, j], int(ids[j]), j) for j in range(n) if j != i)
        for c, (dist, _, j) in enumerate(cands[:k]):
            rows[i, c] = j
            dists[i, c] = dist
    return rows, dists


def oracle_herding(X, mu, count):
    """Plain-loop greedy herding: each step adds the untaken row that brings
    the running mean of the picked rows closest to ``mu``; ties go to the
    earliest row.
    """
    X = np.asarray(X, dtype=np.float64)
    mu = np.asarray(mu, dtype=np.float64)
    picked = []
    total = np.zeros(X.shape[1])
    for t in range(count):
        best, best_j = math.inf, -1
        for j in range(X.shape[0]):
            if j in picked:
                continue
            gap = (total + X[j]) / (t + 1) - mu
            dist = float(gap @ gap)
            if dist < best:
                best, best_j = dist, j
        picked.append(best_j)
        total += X[best_j]
    return np.asarray(picked, dtype=np.int64)


def oracle_zscores(reps, ids, labels, k, priors):
    """Straight-line transcription of the z-score formulas.

    For each sample: w_j = 1/(1 + dist_j) over the k nearest neighbors,
    J = sum of w over disagreeing neighbors, mu = (1 - P(label)) * sum w,
    sigma = sqrt(P(label) (1 - P(label)) * sum w^2), z = (J - mu)/sigma.
    """
    rows, dists = oracle_neighbors(reps, ids, k)
    labels = np.asarray(labels)
    z = np.empty(labels.shape[0], dtype=np.float64)
    for i in range(labels.shape[0]):
        p = priors[labels[i]]
        J = 0.0
        sum_w = 0.0
        sum_w2 = 0.0
        for j, dist in zip(rows[i], dists[i]):
            w = 1.0 / (1.0 + dist)
            sum_w += w
            sum_w2 += w * w
            if labels[j] != labels[i]:
                J += w
        mu = (1.0 - p) * sum_w
        sigma = math.sqrt(p * (1.0 - p) * sum_w2)
        z[i] = (J - mu) / sigma
    return z


def haar_rotation(d, rng):
    """A Haar-uniform rotation from SO(d).

    QR of a standard normal matrix, columns sign-fixed by the diagonal of
    R for uniformity over O(d); one column is flipped when det = -1 to
    land in SO(d).
    """
    if d < 1:
        raise ValueError("d must be positive")
    Q, R = np.linalg.qr(rng.standard_normal((d, d)))
    signs = np.sign(np.diag(R))
    signs[signs == 0] = 1.0
    Q = Q * signs
    if np.linalg.det(Q) < 0:
        Q[:, 0] = -Q[:, 0]
    return Q


def apply_group_action(group, x, seed):
    """g . x for a group element drawn uniformly (identity included)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("x must be a nonempty vector")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    if group == "orthogonal":
        return haar_rotation(x.size, rng) @ x
    if group == "permutation":
        return x[rng.permutation(x.size)]
    raise ValueError(f"unknown group {group!r}")


def oracle_perturbation(values, target, seed=0):
    """Straight-line closed-form perturbation of a column of l2norm values.

    Draws u1 then u2 (one normal per value each) from SeedSequence([seed, 19]),
    sets sigma = target / mean|u1 - u2|, and returns (values + sigma*u1, the
    mean |(v + sigma*u1) - (v + sigma*u2)| over the values).
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 19]))
    u1 = [float(rng.standard_normal()) for _ in values]
    u2 = [float(rng.standard_normal()) for _ in values]
    n = len(values)
    sigma = target / (math.fsum(abs(a - b) for a, b in zip(u1, u2)) / n)
    out = [v + sigma * a for v, a in zip(values, u1)]
    realized = math.fsum(abs(o - (v + sigma * b)) for o, v, b in zip(out, values, u2)) / n
    return out, realized
