"""Plain-file formats: dataset/embedding/selection CSVs and report tables.

Every float is written with ``repr`` so values round-trip exactly; files
always use ``\\n`` line endings and contain no timestamps, making every
emitted file a pure function of its inputs.

The dataset, embedding and subset readers parse every row in one pass of
numpy's C reader.  A file the C reader refuses or could misread, or one
without rows, goes to an exact row loop (``int()``/``float()`` per field),
which also accepts what Python accepts and numpy does not (``1_0``,
non-ASCII digits, the empty ``y`` column of a dataset without truth) and
names the first malformed row.  Both convert with CPython's correctly
rounded string-to-double, so a file either path accepts reads to
identical arrays.
"""

from __future__ import annotations

import os
import warnings
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


def _read_text(path) -> str:
    with open(path, "r", newline="") as f:
        return f.read()


def _split_lines(text: str) -> List[str]:
    return text.rstrip("\n").split("\n") if text else []


# --- numeric rows: numpy's C reader, else an exact row loop ------------------
#
# A reader describes its rows as a structured dtype, one field per column
# group: ("id", "i8") or ("r", "f8", (m,)).  Both paths fill that dtype from
# the same cells, and both convert floats with CPython's correctly rounded
# string-to-double, so a file either path accepts reads to identical bytes.

# numpy's C reader ends a line at "\r" and takes "\x1c"-"\x1f" as whitespace,
# where int() and float() do neither, and it reads some non-ASCII letters as
# digits; a file holding any of these (a CRLF file among them) goes to the
# row loop.
_C_UNSAFE = "\r\x1c\x1d\x1e\x1f"


def _c_table(text: str, rows: List[str], fields) -> Optional[np.ndarray]:
    """``rows`` (lines of ``text``) parsed in one pass of numpy's C reader.

    None when the row loop must decide instead: the text is not plain
    ASCII, the reader refuses a row or warns, it skipped a blank line (the
    format has none), or there are no rows.
    """
    if not rows or not text.isascii() or any(c in text for c in _C_UNSAFE):
        return None
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # loadtxt warns, not raises, when every line is blank
        try:
            table = np.loadtxt(rows, dtype=fields, delimiter=",", comments=None, ndmin=1)
        except (ValueError, OverflowError, Warning):
            return None
    return table if table.shape[0] == len(rows) else None


def _row_table(rows: List[str], fields, what: str,
               blank: Optional[str] = None) -> Tuple[np.ndarray, np.ndarray]:
    """``rows`` parsed one at a time with int() and float(): the table, and
    which rows left the field ``blank`` empty (the only field that may be).

    A wrong field count, a field that is not a number (an integer for an
    integer field) or an integer past int64 raises ``malformed {what} N``
    for the first such row; one handler around the loop, not one per row,
    keeps the row cost down.
    """
    table = np.empty(len(rows), dtype=fields)
    empty = np.zeros(len(rows), dtype=bool)
    plan, width = [], 0
    for name, kind, *shape in fields:
        convert = int if kind == "i8" else float
        span = shape[0][0] if shape else 0  # 0: one cell, stored as a scalar
        key = slice(width, width + span) if span else width
        plan.append((table[name], convert, key, name == blank))
        width += span or 1
    try:
        for i, line in enumerate(rows):
            parts = line.split(",")
            if len(parts) != width:
                raise ValueError
            for column, convert, key, may_be_blank in plan:
                cell = parts[key]
                if may_be_blank and cell == "":
                    empty[i] = True
                elif isinstance(key, slice):
                    column[i] = [convert(v) for v in cell]
                else:
                    column[i] = convert(cell)
    except (ValueError, OverflowError):
        raise ValueError(f"malformed {what} {i + 1}") from None
    return table, empty


def _read_table(text: str, rows: List[str], fields, what: str,
                blank: Optional[str] = None) -> Tuple[np.ndarray, np.ndarray]:
    """``_row_table``'s result, from the C reader where it takes the rows."""
    table = _c_table(text, rows, fields)
    if table is None:
        return _row_table(rows, fields, what, blank)
    return table, np.zeros(len(rows), dtype=bool)


def _column(table: np.ndarray, name: str) -> np.ndarray:
    return np.ascontiguousarray(table[name])


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
    text = _read_text(path)
    lines = _split_lines(text)
    if not lines or not lines[0].startswith("id,y,yhat,"):
        raise ValueError("not a dataset CSV")
    if len(lines) == 1:
        raise ValueError("dataset CSV has no rows")
    d = len(lines[0].split(",")) - 3
    fields = [("id", "i8"), ("y", "i8"), ("yhat", "i8"), ("f", "f8", (d,))]
    table, unknown = _read_table(text, lines[1:], fields, "dataset row", blank="y")
    have_truth = not unknown.any()
    if not have_truth and not unknown.all():
        raise ValueError(f"dataset row {int(np.argmax(unknown)) + 1} has no true label, "
                         "but other rows do")
    yhat, truth = _column(table, "yhat"), _column(table, "y")
    if num_classes is None:
        top = int(yhat.max())
        if have_truth:
            top = max(top, int(truth.max()))
        num_classes = max(top + 1, 2)
    return LabeledDataset(features=_column(table, "f"), noisy_labels=yhat,
                          num_classes=num_classes, ids=_column(table, "id"),
                          true_labels=truth if have_truth else None)


# --- embedding CSV: id,r0..r{m-1} ------------------------------------------


def write_embedding_csv(ids: np.ndarray, matrix: np.ndarray, path) -> None:
    matrix = np.atleast_2d(np.asarray(matrix, dtype=np.float64))
    header = "id," + ",".join(f"r{j}" for j in range(matrix.shape[1]))
    lines = [header]
    for i, row in zip(ids, matrix):
        lines.append(str(int(i)) + "," + ",".join(format_float(v) for v in row))
    _write_lines(path, lines)


def read_embedding_csv(path) -> Tuple[np.ndarray, np.ndarray]:
    text = _read_text(path)
    lines = _split_lines(text)
    if not lines or not lines[0].startswith("id,"):
        raise ValueError("not an embedding CSV")
    m = len(lines[0].split(",")) - 1
    table, _ = _read_table(text, lines[1:], [("id", "i8"), ("r", "f8", (m,))], "embedding row")
    return _column(table, "id"), _column(table, "r")


# --- selection CSV (id,score for every sample) and subset id list ----------


def write_selection_csv(selection: SelectionResult, ids: np.ndarray, path) -> None:
    ids = np.asarray(ids, dtype=np.int64)
    if ids.shape != selection.scores.shape:
        raise ValueError("score length mismatch")
    lines = ["id,score"]
    for i, s in zip(ids, selection.scores):
        lines.append(f"{int(i)},{format_float(s)}")
    _write_lines(path, lines)


def write_subset(ids: np.ndarray, path) -> None:
    _write_lines(path, [str(int(i)) for i in np.asarray(ids, dtype=np.int64)])


def read_subset(path) -> np.ndarray:
    text = _read_text(path)
    table, _ = _read_table(text, _split_lines(text), [("id", "i8")], "subset line")
    return _column(table, "id")


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


def write_text_table(path, header: Sequence[str], rows: Sequence[Sequence[str]]) -> None:
    """Aligned-column plain-text rendering of the same rows as the CSV."""
    cols = [list(col) for col in zip(header, *rows)] if rows else [[h] for h in header]
    widths = [max(len(cell) for cell in col) for col in cols]
    lines = []
    for row in [list(header)] + [list(r) for r in rows]:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    _write_lines(path, lines)
