"""File formats: byte-exact round trips and malformed-input rejection."""

import numpy as np
import pytest

from icut import SelectionResult
from icut.io import (_write_lines, format_float, read_csv, read_dataset_csv,
                     read_embedding_csv, read_lines, read_selection_csv,
                     read_subset, write_bounds_csv, write_csv,
                     write_dataset_csv, write_embedding_csv,
                     write_selection_csv, write_subset, write_text_table)
from icut.theory import WindowParams, feasibility_window
from conftest import random_dataset


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


def test_selection_rejects_malformed_row(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("id,score\n0,0.5\n1,0.25,7\n")
    with pytest.raises(ValueError, match="malformed selection row 2"):
        read_selection_csv(path)


@pytest.mark.parametrize("row", ["9223372036854775808,0.5", "-9223372036854775809,0.5"],
                         ids=["above", "below"])
def test_selection_names_the_row_of_an_id_past_int64(tmp_path, row):
    path = tmp_path / "s.csv"
    path.write_text("id,score\n0,0.5\n" + row + "\n")
    with pytest.raises(ValueError, match="^malformed selection row 2$"):
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


def test_empty_subset_reads_as_no_ids(tmp_path):
    path = tmp_path / "subset.txt"
    path.write_text("")
    ids = read_subset(path)
    assert ids.dtype == np.int64 and ids.size == 0


def test_subset_round_trip(tmp_path):
    ids = np.array([9, 3, 11, 3])
    path = tmp_path / "subset.txt"
    write_subset(ids, path)
    assert np.array_equal(read_subset(path), ids)
    assert path.read_text() == "9\n3\n11\n3\n"


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
