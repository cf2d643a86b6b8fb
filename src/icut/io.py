"""Plain-file formats: dataset/embedding/selection CSVs and report tables.

Every float is written with ``repr`` so values round-trip exactly; files
always use ``\\n`` line endings and contain no timestamps, making every
emitted file a pure function of its inputs.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .core import LabeledDataset, SelectionResult


def format_float(v: float) -> str:
    return repr(float(v))


@contextmanager
def unlink_on_failure(*paths):
    """Remove whichever of ``paths`` exist if the body raises: no half-written files."""
    try:
        yield
    except BaseException:
        for path in paths:
            if os.path.exists(path):
                os.unlink(path)
        raise


def _write_lines(path, lines: Sequence[str]) -> None:
    with unlink_on_failure(path), open(path, "w", newline="") as f:
        f.write("\n".join(lines) + "\n")


def read_lines(path) -> List[str]:
    with open(path, "r", newline="") as f:
        text = f.read()
    return text.rstrip("\n").split("\n") if text else []


# --- dataset CSV: id,y,yhat,f0..f{d-1}; y empty on every row if truth is unknown


def write_dataset_csv(dataset: LabeledDataset, path) -> None:
    header = "id,y,yhat," + ",".join(f"f{j}" for j in range(dataset.d))
    lines = [header]
    truth = dataset.true_labels
    for i in range(dataset.n):
        y = "" if truth is None else str(int(truth[i]))
        feats = ",".join(format_float(v) for v in dataset.features[i])
        lines.append(f"{int(dataset.ids[i])},{y},{int(dataset.noisy_labels[i])},{feats}")
    _write_lines(path, lines)


def read_dataset_csv(path, num_classes: Optional[int] = None) -> LabeledDataset:
    lines = read_lines(path)
    if not lines or not lines[0].startswith("id,y,yhat,"):
        raise ValueError("not a dataset CSV")
    d = len(lines[0].split(",")) - 3
    n = len(lines) - 1
    ids = np.empty(n, dtype=np.int64)
    yhat = np.empty(n, dtype=np.int64)
    truth = np.empty(n, dtype=np.int64)
    known = np.ones(n, dtype=bool)
    feats = np.empty((n, d), dtype=np.float64)
    # A wrong field count, a field that is not a number (an integer for id,
    # y and yhat) or an integer past int64 names its row; one handler around
    # the loop, not one per row, keeps the row cost down.
    try:
        for i, line in enumerate(lines[1:]):
            parts = line.split(",")
            if len(parts) != d + 3:
                raise ValueError
            ids[i] = int(parts[0])
            if parts[1] == "":
                known[i] = False
            else:
                truth[i] = int(parts[1])
            yhat[i] = int(parts[2])
            feats[i] = [float(v) for v in parts[3:]]
    except (ValueError, OverflowError):
        raise ValueError(f"malformed dataset row {i + 1}") from None
    have_truth = bool(known.all())
    if known.any() and not have_truth:
        raise ValueError(f"dataset row {int(np.argmin(known)) + 1} has no true label, "
                         "but other rows do")
    if num_classes is None:
        top = int(yhat.max())
        if have_truth:
            top = max(top, int(truth.max()))
        num_classes = max(top + 1, 2)
    return LabeledDataset(features=feats, noisy_labels=yhat, num_classes=num_classes,
                          ids=ids, true_labels=truth if have_truth else None)


# --- embedding CSV: id,r0..r{m-1} ------------------------------------------


def write_embedding_csv(ids: np.ndarray, matrix: np.ndarray, path) -> None:
    matrix = np.atleast_2d(np.asarray(matrix, dtype=np.float64))
    header = "id," + ",".join(f"r{j}" for j in range(matrix.shape[1]))
    lines = [header]
    for i, row in zip(ids, matrix):
        lines.append(str(int(i)) + "," + ",".join(format_float(v) for v in row))
    _write_lines(path, lines)


def read_embedding_csv(path) -> Tuple[np.ndarray, np.ndarray]:
    lines = read_lines(path)
    if not lines or not lines[0].startswith("id,"):
        raise ValueError("not an embedding CSV")
    m = len(lines[0].split(",")) - 1
    n = len(lines) - 1
    ids = np.empty(n, dtype=np.int64)
    mat = np.empty((n, m), dtype=np.float64)
    try:  # as in read_dataset_csv
        for i, line in enumerate(lines[1:]):
            parts = line.split(",")
            if len(parts) != m + 1:
                raise ValueError
            ids[i] = int(parts[0])
            mat[i] = [float(v) for v in parts[1:]]
    except (ValueError, OverflowError):
        raise ValueError(f"malformed embedding row {i + 1}") from None
    return ids, mat


# --- selection CSV (id,score for every sample) and subset id list ----------


def write_selection_csv(selection: SelectionResult, ids: np.ndarray, path) -> None:
    ids = np.asarray(ids, dtype=np.int64)
    if ids.shape != selection.scores.shape:
        raise ValueError("score length mismatch")
    lines = ["id,score"]
    for i, s in zip(ids, selection.scores):
        lines.append(f"{int(i)},{format_float(s)}")
    _write_lines(path, lines)


def read_selection_csv(path) -> Tuple[np.ndarray, np.ndarray]:
    lines = read_lines(path)
    if not lines or lines[0] != "id,score":
        raise ValueError("not a selection CSV")
    ids = np.empty(len(lines) - 1, dtype=np.int64)
    scores = np.empty(len(lines) - 1, dtype=np.float64)
    try:  # as in read_dataset_csv
        for i, line in enumerate(lines[1:]):
            a, s = line.split(",")
            ids[i] = int(a)
            scores[i] = float(s)
    except (ValueError, OverflowError):
        raise ValueError(f"malformed selection row {i + 1}") from None
    return ids, scores


def write_subset(ids: np.ndarray, path) -> None:
    _write_lines(path, [str(int(i)) for i in np.asarray(ids, dtype=np.int64)])


def read_subset(path) -> np.ndarray:
    lines = read_lines(path)
    ids = np.empty(len(lines), dtype=np.int64)
    try:  # as in read_dataset_csv
        for i, line in enumerate(lines):
            ids[i] = int(line)
    except (ValueError, OverflowError):
        raise ValueError(f"malformed subset line {i + 1}") from None
    return ids


# --- feasibility-window CSV and generic report helpers ----------------------


def write_bounds_csv(report, path) -> None:
    lines = ["d,logL,logU,feasible"]
    for d, log_l, log_u, ok in report.rows:
        lines.append(f"{d},{format_float(log_l)},{format_float(log_u)},{int(ok)}")
    _write_lines(path, lines)


def write_csv(path, header: Sequence[str], rows: Sequence[Sequence[str]]) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in rows)
    _write_lines(path, lines)


def read_csv(path) -> Tuple[List[str], List[List[str]]]:
    lines = read_lines(path)
    if not lines:
        raise ValueError("empty CSV")
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def write_text_table(path, header: Sequence[str], rows: Sequence[Sequence[str]]) -> None:
    """Aligned-column plain-text rendering of the same rows as the CSV."""
    cols = [list(col) for col in zip(header, *rows)] if rows else [[h] for h in header]
    widths = [max(len(cell) for cell in col) for col in cols]
    lines = []
    for row in [list(header)] + [list(r) for r in rows]:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    _write_lines(path, lines)
