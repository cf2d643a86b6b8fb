"""File formats: byte-exact round trips, malformed-input rejection, and the
C reader against the row loop it falls back to."""

import hashlib

import numpy as np
import pytest

from icut import LabeledDataset, SelectionResult, io
from icut.io import (_write_lines, format_float, read_dataset_csv,
                     read_embedding_csv, read_subset, write_bounds_csv,
                     write_csv, write_dataset_csv, write_embedding_csv,
                     write_selection_csv, write_subset, write_text_table)
from icut.theory import FeasibilityReport, WindowParams, feasibility_window
from conftest import random_dataset, read_csv, read_lines, read_selection_csv


def test_format_float_is_repr():
    assert format_float(0.1) == "0.1"
    assert format_float(1 / 3) == repr(1 / 3)
    assert format_float(np.float64(2.0)) == "2.0"


def test_dataset_round_trip_is_byte_identical(tmp_path):
    ds = random_dataset(17, 3, seed=1, shuffle_ids=True)
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    write_dataset_csv(ds, first)
    back = read_dataset_csv(first)
    write_dataset_csv(back, second)
    assert first.read_bytes() == second.read_bytes()
    assert back.num_classes == ds.num_classes
    assert np.array_equal(back.ids, ds.ids)
    assert np.array_equal(back.features, ds.features)


def test_dataset_without_truth_leaves_column_empty(tmp_path):
    ds = random_dataset(5, 2, seed=2, with_truth=False)
    path = tmp_path / "a.csv"
    write_dataset_csv(ds, path)
    assert read_lines(path)[1].split(",")[1] == ""
    back = read_dataset_csv(path)
    assert back.true_labels is None


def test_dataset_num_classes_is_inferred_from_labels(tmp_path):
    ds = random_dataset(30, 2, num_classes=4, seed=3)
    path = tmp_path / "a.csv"
    write_dataset_csv(ds, path)
    assert read_dataset_csv(path).num_classes == 4
    assert read_dataset_csv(path, num_classes=6).num_classes == 6


def test_dataset_rejects_nonfinite_feature(tmp_path):
    path = tmp_path / "a.csv"
    path.write_text("id,y,yhat,f0,f1\n0,0,0,0.5,1.0\n1,1,1,nan,2.0\n")
    with pytest.raises(ValueError, match="non-finite feature value"):
        read_dataset_csv(path)


def test_dataset_rejects_foreign_header(tmp_path):
    path = tmp_path / "a.csv"
    path.write_text("x,y\n1,2\n")
    with pytest.raises(ValueError, match="not a dataset CSV"):
        read_dataset_csv(path)


def test_dataset_rejects_header_only_file(tmp_path):
    path = tmp_path / "a.csv"
    path.write_text("id,y,yhat,f0,f1\n")
    with pytest.raises(ValueError, match="^dataset CSV has no rows$"):
        read_dataset_csv(path)


def test_dataset_rejects_short_row(tmp_path):
    path = tmp_path / "a.csv"
    path.write_text("id,y,yhat,f0,f1\n0,1,1,0.5\n")
    with pytest.raises(ValueError, match="malformed dataset row 1"):
        read_dataset_csv(path)


def test_dataset_rejects_truth_on_some_rows_only(tmp_path):
    path = tmp_path / "a.csv"
    path.write_text("id,y,yhat,f0\n0,0,0,0.5\n1,,1,1.5\n2,1,1,2.5\n")
    with pytest.raises(ValueError, match="dataset row 2 has no true label, but other rows do"):
        read_dataset_csv(path)


@pytest.mark.parametrize("ids,matrix,message", [
    (range(5), np.zeros((3, 2)), "embedding id count mismatch: 5 ids for 3 rows"),
    (range(3), np.zeros(3), "embedding matrix must be 2-D, got 1-D"),
    (range(3), np.zeros((3, 0)), "embedding matrix has no columns"),
], ids=["ids-past-rows", "vector", "no-columns"])
def test_embedding_writer_refuses_a_malformed_matrix_and_leaves_no_file(tmp_path, ids, matrix,
                                                                         message):
    path = tmp_path / "e.csv"
    with pytest.raises(ValueError, match=message):
        write_embedding_csv(np.array(ids), matrix, path)
    assert not path.exists()


def test_embedding_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    ids = np.array([7, 2, 9])
    mat = rng.normal(size=(3, 4))
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    write_embedding_csv(ids, mat, first)
    back_ids, back_mat = read_embedding_csv(first)
    write_embedding_csv(back_ids, back_mat, second)
    assert first.read_bytes() == second.read_bytes()
    assert np.array_equal(back_ids, ids)
    assert np.array_equal(back_mat, mat)


def test_embedding_rejects_foreign_header(tmp_path):
    path = tmp_path / "a.csv"
    path.write_text("r0,r1\n0.5,0.5\n")
    with pytest.raises(ValueError, match="not an embedding CSV"):
        read_embedding_csv(path)


def test_embedding_rejects_ragged_row(tmp_path):
    path = tmp_path / "a.csv"
    path.write_text("id,r0,r1\n0,0.5\n")
    with pytest.raises(ValueError, match="malformed embedding row 1"):
        read_embedding_csv(path)


# The bad row is each file's second: one of its fields is not a number, not
# an integer where the format needs one, or an integer past int64.
@pytest.mark.parametrize("field,value", [(3, "abc"), (0, "1.5"), (0, "99999999999999999999"),
                                         (1, "1.5"), (2, "x")],
                         ids=["feature", "id", "id-past-int64", "y", "yhat"])
def test_dataset_names_the_row_of_a_field_that_is_not_a_number(tmp_path, field, value):
    row = ["1", "0", "1", "0.5", "1.0"]
    row[field] = value
    path = tmp_path / "a.csv"
    path.write_text("id,y,yhat,f0,f1\n0,0,0,0.5,1.0\n" + ",".join(row) + "\n")
    with pytest.raises(ValueError, match="^malformed dataset row 2$"):
        read_dataset_csv(path)


@pytest.mark.parametrize("row", ["1,x,0.5", "1.5,0.5,0.5", "99999999999999999999,0.5,0.5"],
                         ids=["value", "id", "id-past-int64"])
def test_embedding_names_the_row_of_a_field_that_is_not_a_number(tmp_path, row):
    path = tmp_path / "a.csv"
    path.write_text("id,r0,r1\n0,0.5,0.5\n" + row + "\n")
    with pytest.raises(ValueError, match="^malformed embedding row 2$"):
        read_embedding_csv(path)


def test_selection_round_trip(tmp_path):
    sel = SelectionResult(scores=np.array([0.25, -1.5, 3.0]), selected=np.array([1]))
    ids = np.array([4, 5, 6])
    path = tmp_path / "scores.csv"
    write_selection_csv(sel, ids, path)
    back_ids, back_scores = read_selection_csv(path)
    assert np.array_equal(back_ids, ids)
    assert np.array_equal(back_scores, sel.scores)


def test_selection_rejects_length_mismatch(tmp_path):
    sel = SelectionResult(scores=np.array([0.1, 0.2]), selected=np.array([0]))
    with pytest.raises(ValueError, match="score length mismatch"):
        write_selection_csv(sel, np.array([1, 2, 3]), tmp_path / "s.csv")


def test_selection_rejects_foreign_header(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("id,value\n0,0.5\n")
    with pytest.raises(ValueError, match="not a selection CSV"):
        read_selection_csv(path)


def test_subset_rejects_malformed_line(tmp_path):
    path = tmp_path / "subset.txt"
    path.write_text("9\n3\n1,2\n")
    with pytest.raises(ValueError, match="malformed subset line 3"):
        read_subset(path)


@pytest.mark.parametrize("line", ["9223372036854775808", "-9223372036854775809"],
                         ids=["above", "below"])
def test_subset_names_the_line_of_an_id_past_int64(tmp_path, line):
    path = tmp_path / "subset.txt"
    path.write_text("9\n3\n" + line + "\n")
    with pytest.raises(ValueError, match="^malformed subset line 3$"):
        read_subset(path)


def test_empty_subset_file_is_refused(tmp_path):
    path = tmp_path / "subset.txt"
    path.write_text("")
    with pytest.raises(ValueError, match="^subset file has no ids$"):
        read_subset(path)


@pytest.mark.parametrize("text,line,repeated", [
    ("9\n3\n11\n3\n", 4, 3),
    ("5\n7\n7\n5\n", 3, 7),      # the first line that repeats an earlier one
    ("2\n2\n2\n", 2, 2),
], ids=["last", "first_of_two", "run"])
def test_subset_names_the_line_that_repeats_an_id(tmp_path, text, line, repeated):
    path = tmp_path / "subset.txt"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"^subset line {line} repeats id {repeated}$"):
        read_subset(path)


def test_subset_of_blank_lines_is_malformed_without_a_warning(tmp_path, recwarn):
    path = tmp_path / "subset.txt"
    path.write_text("\n\n")
    with pytest.raises(ValueError, match="^malformed subset line 1$"):
        read_subset(path)
    assert len(recwarn) == 0


def test_subset_round_trip(tmp_path):
    ids = np.array([9, 3, 11, 2])
    path = tmp_path / "subset.txt"
    write_subset(ids, path)
    assert np.array_equal(read_subset(path), ids)
    assert path.read_text() == "9\n3\n11\n2\n"


# --- the C reader and the exact row loop it falls back to --------------------


_INT_CELLS = ["0", "7", "-3", "+12", " 5", "6 ", "\t8", "-0", "007",
              str(2**63 - 1), str(-(2**63 - 1)), " +9223372036854775807"]
_FLOAT_CELLS = ["-0.0", "0.0", "5e-324", "2.2250738585072014e-309", "1e-400", "-1e-400",
                "1e400", "-1e400", "inf", "-inf", "+inf", "Infinity", "nan", "-nan", "+1.5",
                " 2.5 ", "\t-3.25", "1E5", ".5", "5.", "1.7976931348623157e308"]


def _float_cell(rng):
    if rng.random() < 0.3:
        return _FLOAT_CELLS[rng.integers(len(_FLOAT_CELLS))]
    return repr(float(rng.standard_normal() * 10.0 ** rng.integers(-300, 300)))


def _fuzzed_rows(rng, n, ints, floats):
    return [",".join([_INT_CELLS[rng.integers(len(_INT_CELLS))] for _ in range(ints)]
                     + [_float_cell(rng) for _ in range(floats)]) for _ in range(n)]


@pytest.mark.parametrize("seed", range(4))
def test_c_reader_and_row_loop_read_identical_bytes(seed):
    rng = np.random.default_rng(seed)
    for fields, ints, floats in (
            ([("id", "i8"), ("y", "i8"), ("yhat", "i8"), ("f", "f8", (5,))], 3, 5),
            ([("id", "i8"), ("r", "f8", (7,))], 1, 7),
            ([("id", "i8")], 1, 0)):
        rows = _fuzzed_rows(rng, 300, ints, floats)
        fast = io._c_table("\n".join(rows), rows, fields)
        slow, blank = io._row_table(rows, fields, "row")
        assert fast is not None and not blank.any()
        assert fast.tobytes() == slow.tobytes()


@pytest.fixture
def row_loop_calls(monkeypatch):
    """Row counts of the calls that reached the row loop."""
    calls = []
    loop = io._row_table

    def spy(rows, *args, **kwargs):
        calls.append(len(rows))
        return loop(rows, *args, **kwargs)

    monkeypatch.setattr(io, "_row_table", spy)
    return calls


@pytest.mark.parametrize("cell,value", [("1_0", 10), ("١٢", 12)],
                         ids=["underscore", "non-ascii-digits"])
def test_ids_only_python_accepts_fall_back_to_the_row_loop(tmp_path, row_loop_calls, cell, value):
    path = tmp_path / "e.csv"
    path.write_text(f"id,r0\n3,0.5\n{cell},-1.5\n", encoding="utf-8")
    ids, mat = read_embedding_csv(path)
    assert row_loop_calls == [2]
    assert ids.tolist() == [3, value] and mat.tolist() == [[0.5], [-1.5]]


# numpy's C reader takes both as the integer 3 (or as 44163); int() refuses them.
@pytest.mark.parametrize("cell", ["3\x1c", "\u11703"], ids=["file-separator", "hangul-letter"])
def test_ids_the_c_reader_would_misread_are_malformed(tmp_path, cell):
    path = tmp_path / "e.csv"
    path.write_text(f"id,r0\n1,0.5\n{cell},-1.5\n", encoding="utf-8")
    with pytest.raises(ValueError, match="^malformed embedding row 2$"):
        read_embedding_csv(path)


def test_crlf_file_falls_back_and_reads_as_its_lf_twin(tmp_path, row_loop_calls):
    ds = random_dataset(6, 3, seed=12)
    lf = tmp_path / "lf.csv"
    crlf = tmp_path / "crlf.csv"
    write_dataset_csv(ds, lf)
    crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
    back = read_dataset_csv(crlf)
    assert row_loop_calls == [6]
    twin = read_dataset_csv(lf)
    for name in ("ids", "noisy_labels", "true_labels", "features"):
        assert getattr(back, name).tobytes() == getattr(twin, name).tobytes()


def test_truthless_dataset_falls_back_to_the_row_loop(tmp_path, row_loop_calls):
    ds = random_dataset(8, 2, seed=13, with_truth=False)
    path = tmp_path / "a.csv"
    write_dataset_csv(ds, path)
    back = read_dataset_csv(path)
    assert row_loop_calls == [8]
    assert back.true_labels is None
    assert np.array_equal(back.features, ds.features)
    assert np.array_equal(back.noisy_labels, ds.noisy_labels)


def test_header_only_embedding_reads_as_empty_arrays_without_a_warning(tmp_path, row_loop_calls,
                                                                       recwarn):
    path = tmp_path / "e.csv"
    path.write_text("id,r0,r1\n")
    ids, mat = read_embedding_csv(path)
    assert row_loop_calls == [0] and len(recwarn) == 0
    assert ids.dtype == np.int64 and ids.shape == (0,)
    assert mat.dtype == np.float64 and mat.shape == (0, 2)


# The bad row is each file's second; the rows around it are ones the C
# reader takes, so the C reader sees the bad row and hands the file over.
# (An id past int64 is covered by the name-the-row tests above.)
@pytest.mark.parametrize("bad", ["", "  ", "{row},"],
                         ids=["blank-line", "whitespace-line", "trailing-comma"])
@pytest.mark.parametrize("header,row,read,what", [
    ("id,y,yhat,f0,f1", "1,1,1,0.5,1.0", read_dataset_csv, "dataset row"),
    ("id,r0,r1", "1,0.5,0.5", read_embedding_csv, "embedding row"),
    (None, "1", read_subset, "subset line"),
], ids=["dataset", "embedding", "subset"])
def test_rows_the_c_reader_refuses_still_name_their_row(tmp_path, bad, header, row, read, what):
    lines = [row, bad.format(row=row), row.replace("1", "2", 1)]
    path = tmp_path / "f.csv"
    path.write_text("\n".join(([header] if header else []) + lines) + "\n")
    with pytest.raises(ValueError, match=f"^malformed {what} 2$"):
        read(path)


def test_written_files_take_the_c_reader(tmp_path, monkeypatch):
    def no_loop(*args, **kwargs):
        raise AssertionError("the row loop read a file the writers made")

    monkeypatch.setattr(io, "_row_table", no_loop)
    ds = random_dataset(40, 4, num_classes=3, seed=14, shuffle_ids=True)
    write_dataset_csv(ds, tmp_path / "d.csv")
    back = read_dataset_csv(tmp_path / "d.csv")
    for name in ("ids", "noisy_labels", "true_labels", "features"):
        assert np.array_equal(getattr(back, name), getattr(ds, name))
        assert getattr(back, name).flags.c_contiguous
    write_embedding_csv(ds.ids, ds.features * 1e-300, tmp_path / "e.csv")
    ids, mat = read_embedding_csv(tmp_path / "e.csv")
    assert np.array_equal(ids, ds.ids) and np.array_equal(mat, ds.features * 1e-300)
    assert mat.flags.c_contiguous
    write_subset(ds.ids[::3], tmp_path / "s.txt")
    assert np.array_equal(read_subset(tmp_path / "s.txt"), ds.ids[::3])


def test_bounds_csv_contents(tmp_path):
    params = WindowParams(n=10**6, nu=0.05, rho=1.0, delta=0.1,
                          omega=1.0, p0=1.0, kl1=1.0)
    report = feasibility_window(params, [1, 4])
    path = tmp_path / "bounds.csv"
    write_bounds_csv(report, path)
    header, rows = read_csv(path)
    assert header == ["d", "logL", "logU", "feasible"]
    assert rows[0][0] == "1" and rows[0][3] == "1"
    assert rows[1][0] == "4" and rows[1][3] == "0"
    assert float(rows[0][1]) == report.rows[0][1]
    assert float(rows[0][2]) == report.rows[0][2]


def test_generic_csv_round_trip(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["a", "b"], [["1", "x"], ["2", "y"]])
    header, rows = read_csv(path)
    assert header == ["a", "b"]
    assert rows == [["1", "x"], ["2", "y"]]


# sha256 of each writer's output for the inputs of
# ``test_every_writer_emits_pinned_bytes``: any change to a file's bytes,
# however small, fails it.
WRITER_DIGESTS = {
    "dataset.csv":
        "4088be22dacf33d8239e89aa5f852ee2e55abcb57f50e88af8d9add2f7ca18b2",
    "dataset_no_truth.csv":
        "8db3fefe50e669a326186dd55a1b7bf3a008c300cba8dc3dde224e89ec48fdbf",
    "embedding.csv":
        "ee40c0cae69cd6aa9e1f6e03e47469cb69d650be8a5a519432d647a597fbe28a",
    "embedding_1d.csv":
        "8eeb9ac636cc07065525c5f96c40aa54295cb4f72ca73841ba0c4a003ccaa202",
    "scores.csv":
        "e2918a55e13f75f531b6025f380bcb4b486172d24af4fe2a84d820dbe90aeca4",
    "bounds.csv":
        "15f93343d475a707438261803fd1aa100ce56a29679ed28dccd95ab2fe1d097a",
    "report.csv":
        "1f1b2a9fbfd5ea3a459354394135290bffaf10c54db2d644d90d8c2d608b4620",
    "report_no_rows.csv":
        "1293bb6a21cd93aa8d6182c6bae26b7664cc57cf5d2d2ef50758564bf5559cc2",
}


def test_every_writer_emits_pinned_bytes(tmp_path):
    ids = np.array([2**62, -(2**62), 0, 17])
    features = np.array([[-0.0, 5e-324, 1e16],
                         [1e-5, np.finfo(np.float64).max, -1 / 3],
                         [0.1, -2.5, 7.0],
                         [-1e-300, 123456789.125, 2.0**-1074 * 3]])
    noisy, truth = np.array([1, 0, 2, 1]), np.array([1, 1, 2, 0])
    write_dataset_csv(LabeledDataset(features=features, noisy_labels=noisy, num_classes=3,
                                     ids=ids, true_labels=truth), tmp_path / "dataset.csv")
    write_dataset_csv(LabeledDataset(features=features, noisy_labels=noisy, num_classes=3,
                                     ids=ids), tmp_path / "dataset_no_truth.csv")
    write_embedding_csv(ids, -features[:, ::-1], tmp_path / "embedding.csv")
    write_embedding_csv([-(2**62)], features[1:2], tmp_path / "embedding_1d.csv")
    write_selection_csv(SelectionResult(scores=features[:, 1], selected=ids[:2]), ids,
                        tmp_path / "scores.csv")
    rows = ((1, -0.0, 1e16, True), (4, 5e-324, -1e-5, False))
    write_bounds_csv(FeasibilityReport(rows=rows, d0=4, mode="plain", unique_transition=True),
                     tmp_path / "bounds.csv")
    write_csv(tmp_path / "report.csv", ["seed", "accuracy"], [["0", "0.5"], ["mean", "1e-05"]])
    write_csv(tmp_path / "report_no_rows.csv", ["seed", "accuracy"], [])
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in WRITER_DIGESTS}
    assert digests == WRITER_DIGESTS


def test_read_csv_rejects_empty_file(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("")
    with pytest.raises(ValueError, match="empty CSV"):
        read_csv(path)


def test_text_table_alignment(tmp_path):
    path = tmp_path / "t.txt"
    write_text_table(path, ["seed", "accuracy"], [["0", "0.5"], ["10", "0.925"]])
    assert read_lines(path) == [
        "seed  accuracy",
        "0     0.5",
        "10    0.925",
    ]


def test_text_table_header_only(tmp_path):
    path = tmp_path / "t.txt"
    write_text_table(path, ["alpha", "b"], [])
    assert read_lines(path) == ["alpha  b"]


def test_failed_write_leaves_no_half_written_file(tmp_path):
    path = tmp_path / "half.txt"
    with pytest.raises(TypeError):
        _write_lines(path, ["kept", 3])
    assert not path.exists()
