"""Shared test helpers: independent oracles, group actions, dataset factories
and readers for the report and selection files the library writes.

The oracles here are deliberately written as plain scans and straight-line
formula transcriptions, independent of the package's vectorized kernels,
so they can serve as ground truth for equivalence tests.
"""

import math

import numpy as np

from icut import LabeledDataset, TrainedClassifier, kernels

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


def legacy_rng(seed, stream):
    """A seeded stage's generator built by hand: ``int(seed)``, its low 63 bits,
    paired with the stage's tag.  ``core.seeded_rng`` must match it for every
    integral seed."""
    return np.random.default_rng(np.random.SeedSequence([int(seed) & (2**63 - 1), stream]))


def reference_train_mlp(train, config, seed=0, trace=False):
    """The straightforward trainer that ``train_mlp`` must match bit for bit.

    Each epoch gathers its order by fancy indexing; each step computes its
    gradients out of place, with ``np.sum(axis=0)`` bias gradients, and
    updates each parameter array by its own out-of-place Adam step.  A
    traced run records ``model.predict(X) == y`` after every epoch.
    """
    X, y, C = train.features, train.noisy_labels, train.num_classes
    d, hidden, out = X.shape[1], config.hidden_units, 1 if C == 2 else C
    rng = legacy_rng(seed, 23)
    s1, s2 = 1.0 / np.sqrt(d), 1.0 / np.sqrt(hidden)
    params = [rng.uniform(-s1, s1, size=(d, hidden)), rng.uniform(-s1, s1, size=hidden),
              rng.uniform(-s2, s2, size=(hidden, out)), rng.uniform(-s2, s2, size=out)]
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    rows = []
    t = 0
    for _ in range(config.epochs):
        order = rng.permutation(train.n)
        Xo, yo = X[order], y[order]
        for start in range(0, train.n, config.batch_size):
            Xb, yb = Xo[start:start + config.batch_size], yo[start:start + config.batch_size]
            W1, b1, W2, b2 = params
            B = Xb.shape[0]
            H = np.maximum(Xb @ W1 + b1, 0.0)
            Z = H @ W2 + b2
            if C == 2:
                z = Z[:, 0]
                ez = np.exp(-np.abs(z))
                p1 = np.where(z >= 0, 1.0 / (1.0 + ez), ez / (1.0 + ez))
                dZ = ((p1 - yb) / B)[:, None]
                dH = dZ * W2.T
            else:
                E = np.exp(Z - Z.max(axis=1, keepdims=True))
                dZ = E / E.sum(axis=1, keepdims=True)
                dZ[np.arange(B), yb] -= 1.0
                dZ = dZ / B
                dH = dZ @ W2.T
            dH = dH * (H > 0)
            grads = [Xb.T @ dH, np.sum(dH, axis=0), H.T @ dZ, np.sum(dZ, axis=0)]
            t += 1
            c1, c2 = 1.0 - 0.9**t, 1.0 - 0.999**t
            for i, g in enumerate(grads):
                m[i] = 0.9 * m[i] + (1.0 - 0.9) * g
                v[i] = 0.999 * v[i] + (1.0 - 0.999) * g * g
                step = config.learning_rate * (m[i] / c1) / (np.sqrt(v[i] / c2) + 1e-8)
                params[i] = params[i] - step
        if trace:
            rows.append(TrainedClassifier(*params, num_classes=C).predict(X) == y)
    return TrainedClassifier(*params, num_classes=C, trace=np.array(rows) if trace else None)


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


def full_sort(X, rank, k, rows):
    """Each listed row's k nearest others by a sort of all its squared distances.

    The distances are the kernel's own ``diff . diff`` of the input rows, so
    the result is the exact (squared distance, rank) table, row for row.
    """
    pos = np.empty((len(rows), k), dtype=np.int64)
    d2 = np.empty((len(rows), k))
    for r, i in enumerate(rows):
        diff = X - X[i]
        full = np.einsum("ij,ij->i", diff, diff)
        full[i] = np.inf
        pos[r] = np.lexsort((rank, full))[:k]
        d2[r] = full[pos[r]]
    return pos, d2


def spy_ranked(monkeypatch):
    """The row count of every call to ``kernels._by_rank``, the k-NN ranking's
    fallback for rows with a distance tie among their k + 1 nearest, in call order."""
    sent, by_rank = [], kernels._by_rank

    def spied(dist, *rest):
        sent.append(dist.shape[0])
        return by_rank(dist, *rest)

    monkeypatch.setattr(kernels, "_by_rank", spied)
    return sent


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


def oracle_permutation_h(X, powers):
    """The permutation family's h(x) = sum_{k=1..powers} sum_i sin(x_i**k),
    with each power taken by ``X ** k`` (libm pow) rather than running products.
    """
    X = np.asarray(X, dtype=np.float64)
    return sum(np.sin(X ** k).sum(axis=1) for k in range(1, powers + 1))


def oracle_sorted_density(d, trials, bins, seed):
    """(cells tested, cells passed, max |z|) of the sorted-density check, by
    base-``bins`` key loops, ``np.add.at`` and a loop over interior cells.
    """
    from itertools import combinations

    from icut.core import seeded_rng
    p_cell = math.factorial(d) / bins**d
    x = np.sort(seeded_rng(seed, 37).random((trials, d)), axis=1)
    idx = np.minimum((x * bins).astype(np.int64), bins - 1)
    flat = np.zeros(bins**d, dtype=np.int64)
    key = np.zeros(trials, dtype=np.int64)
    for c in range(d):
        key = key * bins + idx[:, c]
    np.add.at(flat, key, 1)
    sigma = math.sqrt(trials * p_cell * (1.0 - p_cell))
    tested = passed = 0
    max_z = 0.0
    for cell in combinations(range(bins), d):
        k = 0
        for c in cell:
            k = k * bins + c
        z = abs(flat[k] - trials * p_cell) / sigma
        tested += 1
        max_z = max(max_z, z)
        passed += z <= 4.0
    return tested, passed, max_z


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
