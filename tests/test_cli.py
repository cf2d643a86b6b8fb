"""Command-line driver: exit codes, stdout contracts, file outputs."""

import argparse
import ast
import inspect
import json
import textwrap
from dataclasses import replace

import numpy as np
import pytest

import icut.cli as cli
from icut import (CutstatsConfig, LabeledDataset, MlpConfig, kernels, mlp, round_half_up,
                  theory)
from icut.cli import main
from icut.core import METHODS
from icut.experiment import ExperimentConfig, select
from icut.io import (read_dataset_csv, read_embedding_csv, read_subset,
                     write_dataset_csv, write_embedding_csv)
from icut.representation import CALIBRATION_MISSED
from conftest import read_csv, read_selection_csv


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Shared tiny dataset triple: clean train, noisy train, clean test."""
    root = tmp_path_factory.mktemp("cli")
    train = root / "train.csv"
    test = root / "test.csv"
    noisy = root / "noisy.csv"
    assert main(["gen", "--group", "orthogonal", "--d", "6",
                 "--n-train", "80", "--n-test", "40",
                 "--out-train", str(train), "--out-test", str(test)]) == 0
    assert main(["corrupt", "--in", str(train), "--out", str(noisy),
                 "--p", "0.3", "--seed", "1"]) == 0
    return root


def test_no_subcommand_is_a_usage_error(capsys):
    code, _, err = run_cli(capsys)
    assert code == 2
    assert "usage" in err


def test_gen_round_trip(workdir):
    train = read_dataset_csv(workdir / "train.csv")
    test = read_dataset_csv(workdir / "test.csv")
    assert (train.n, train.d) == (80, 6)
    assert (test.n, test.d) == (40, 6)
    assert np.array_equal(train.noisy_labels, train.true_labels)


def test_gen_requires_group(capsys, tmp_path):
    code, _, err = run_cli(capsys, "gen", "--out-train", str(tmp_path / "t.csv"))
    assert code == 2
    assert "--group is required" in err


def test_gen_range_takes_a_negative_bound_in_exponent_form(tmp_path):
    flag, cfg = tmp_path / "flag.csv", tmp_path / "cfg.csv"
    config = tmp_path / "range.json"
    config.write_text(json.dumps({"feature_range": [-1e-3, 1]}))
    base = ["gen", "--group", "permutation", "--n-train", "400", "--n-test", "20",
            "--out-test", str(tmp_path / "test.csv")]
    assert main(base + ["--range", "-1e-3", "1", "--out-train", str(flag)]) == 0
    assert main(base + ["--config", str(config), "--out-train", str(cfg)]) == 0
    feats = read_dataset_csv(flag).features
    assert feats.min() >= -1e-3 and feats.max() <= 1.0
    assert flag.read_bytes() == cfg.read_bytes()


@pytest.mark.parametrize("value", [5, [1, 2, 3]], ids=["one", "three"])
def test_gen_config_range_of_the_wrong_arity_is_a_usage_error_naming_it(capsys, tmp_path,
                                                                        monkeypatch, value):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"feature_range": value}))
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, "gen", "--group", "permutation", "--config", str(config))
    assert (code, out, err) == (2, "", "error: config key 'feature_range' takes 2 values\n")
    assert list(tmp_path.iterdir()) == [config]


@pytest.mark.parametrize("verb", ["gen", "exp", "ablate"])
def test_every_range_verb_parses_exponent_form_negatives(verb):
    values = vars(cli._parser().parse_args([verb, "--range", "-1e-3", "-.5E+1"]))
    assert values["feature_range"] == [-1e-3, -5.0]


def test_corrupt_flips_labels(workdir):
    noisy = read_dataset_csv(workdir / "noisy.csv")
    clean = read_dataset_csv(workdir / "train.csv")
    assert np.array_equal(noisy.true_labels, clean.true_labels)
    flipped = np.mean(noisy.noisy_labels != noisy.true_labels)
    assert 0.0 < flipped < 1.0


def test_corrupt_probability_one_flips_everything(capsys, workdir, tmp_path):
    out = tmp_path / "flipped.csv"
    code, _, _ = run_cli(capsys, "corrupt", "--in", str(workdir / "train.csv"),
                         "--out", str(out), "--p", "1.0")
    assert code == 0
    ds = read_dataset_csv(out)
    assert np.array_equal(ds.noisy_labels, 1 - ds.true_labels)


def test_corrupt_requires_probability(capsys, workdir, tmp_path):
    code, _, err = run_cli(capsys, "corrupt", "--in", str(workdir / "train.csv"),
                           "--out", str(tmp_path / "x.csv"))
    assert code == 2
    assert "--p" in err


def test_represent_writes_norm_column(capsys, workdir, tmp_path):
    out = tmp_path / "rep.csv"
    code, _, _ = run_cli(capsys, "represent", "--in", str(workdir / "train.csv"),
                         "--out", str(out), "--kind", "l2norm")
    assert code == 0
    ids, mat = read_embedding_csv(out)
    ds = read_dataset_csv(workdir / "train.csv")
    assert mat.shape == (80, 1)
    assert np.allclose(mat[:, 0], np.linalg.norm(ds.features, axis=1))
    assert np.array_equal(ids, ds.ids)


def test_represent_requires_paths(capsys):
    code, _, err = run_cli(capsys, "represent", "--kind", "sort")
    assert code == 2
    assert "--in and --out" in err


def test_select_cutstats_writes_scores_and_subset(capsys, workdir, tmp_path):
    scores_path = tmp_path / "scores.csv"
    subset_path = tmp_path / "subset.txt"
    code, out, _ = run_cli(capsys, "select", "--in", str(workdir / "noisy.csv"),
                           "--k", "5", "--tau", "0.5",
                           "--out-scores", str(scores_path),
                           "--out-subset", str(subset_path))
    assert code == 0
    assert out.startswith("subset_accuracy=")
    ids, scores = read_selection_csv(scores_path)
    assert ids.size == scores.size == 80
    subset = read_subset(subset_path)
    assert subset.size == round_half_up(0.5 * 80)
    assert set(subset) <= set(ids)


@pytest.mark.parametrize("method,kind", [(m, "l2norm") for m in METHODS]
                         + [("cutstats", "external"), ("herding", "external")])
def test_select_cli_matches_library_selector(capsys, workdir, tmp_path, method, kind):
    noisy = workdir / "noisy.csv"
    embedding = tmp_path / "emb.csv"
    dataset = read_dataset_csv(noisy)
    write_embedding_csv(dataset.ids, dataset.features[:, :3] ** 2, embedding)
    scores_path = tmp_path / "scores.csv"
    subset_path = tmp_path / "subset.txt"
    external = ["--embedding", str(embedding)] if kind == "external" else []
    code, _, _ = run_cli(capsys, "select", "--in", str(noisy), "--method", method,
                         "--kind", kind, *external,
                         "--k", "5", "--tau", "0.5", "--seed", "3", "--epochs", "2",
                         "--batch-size", "32", "--out-scores", str(scores_path),
                         "--out-subset", str(subset_path))
    assert code == 0
    config = ExperimentConfig(train_path=str(noisy), method=method, representation_kind=kind,
                              embedding_path=str(embedding) if external else None,
                              cutstats=CutstatsConfig(k=5, tau=0.5),
                              mlp=MlpConfig(epochs=2, batch_size=32), seeds=(3,))
    expected, _ = select(config, dataset, 3)
    ids, scores = read_selection_csv(scores_path)
    assert np.array_equal(ids, dataset.ids)
    assert np.array_equal(scores, expected.scores)
    assert np.array_equal(read_subset(subset_path), expected.selected)


def test_select_runtime_errors_carry_the_stage(capsys, workdir):
    code, _, err = run_cli(capsys, "select", "--in", str(workdir / "noisy.csv"),
                           "--k", "500")
    assert code == 1
    assert err.startswith("error: [select] k must satisfy")


def test_select_external_requires_embedding(capsys, workdir):
    code, _, err = run_cli(capsys, "select", "--in", str(workdir / "noisy.csv"),
                           "--kind", "external")
    assert code == 2
    assert "embedding path" in err


def test_select_unknown_method_from_config(capsys, workdir, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"method": "oracle"}))
    code, _, err = run_cli(capsys, "select", "--in", str(workdir / "noisy.csv"),
                           "--config", str(cfg))
    assert code == 2
    assert "unknown method" in err


def test_select_unknown_method_flag_is_rejected_by_the_parser(workdir):
    with pytest.raises(SystemExit) as exc:
        main(["select", "--in", str(workdir / "noisy.csv"), "--method", "oracle"])
    assert exc.value.code == 2


def test_config_file_supplies_defaults_and_flags_override(capsys, workdir, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"k": 5, "tau": 0.5, "num_classes": None}))  # null: unset
    half = tmp_path / "half.txt"
    quarter = tmp_path / "quarter.txt"
    code, _, _ = run_cli(capsys, "select", "--in", str(workdir / "noisy.csv"),
                         "--config", str(cfg), "--out-subset", str(half))
    assert code == 0
    assert read_subset(half).size == 40
    code, _, _ = run_cli(capsys, "select", "--in", str(workdir / "noisy.csv"),
                         "--config", str(cfg), "--tau", "0.25",
                         "--out-subset", str(quarter))
    assert code == 0
    assert read_subset(quarter).size == 20


def test_malformed_config_files_are_usage_errors(capsys, workdir, tmp_path):
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    code, _, err = run_cli(capsys, "select", "--in", str(workdir / "noisy.csv"),
                           "--config", str(broken))
    assert code == 2
    assert "bad config file" in err
    listy = tmp_path / "listy.json"
    listy.write_text("[1, 2]")
    code, _, err = run_cli(capsys, "select", "--in", str(workdir / "noisy.csv"),
                           "--config", str(listy))
    assert code == 2
    assert "JSON object" in err


def test_train_then_eval(capsys, workdir, tmp_path):
    subset_path = tmp_path / "subset.txt"
    model_path = tmp_path / "model.bin"
    assert main(["select", "--in", str(workdir / "noisy.csv"), "--k", "5",
                 "--tau", "0.5", "--out-subset", str(subset_path)]) == 0
    code, _, _ = run_cli(capsys, "train", "--in", str(workdir / "noisy.csv"),
                         "--subset", str(subset_path), "--epochs", "2",
                         "--batch-size", "32", "--out", str(model_path))
    assert code == 0
    assert model_path.read_bytes()[:4] == b"MLP1"
    out_csv = tmp_path / "eval.csv"
    code, out, _ = run_cli(capsys, "eval", "--model", str(model_path),
                           "--test", str(workdir / "test.csv"),
                           "--out-csv", str(out_csv))
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("accuracy=")
    assert lines[1].startswith("balanced_error=")
    header, rows = read_csv(out_csv)
    assert header == ["accuracy", "balanced_error"]
    assert 0.0 <= float(rows[0][0]) <= 1.0


def test_eval_missing_model_is_a_runtime_error(capsys, workdir, tmp_path):
    code, _, err = run_cli(capsys, "eval", "--model", str(tmp_path / "absent.bin"),
                           "--test", str(workdir / "test.csv"))
    assert code == 1
    assert err.startswith("error:")


def test_exp_prints_table_and_reruns_identically(capsys, tmp_path):
    argv = ["exp", "--group", "orthogonal", "--d", "6", "--n-train", "120",
            "--n-test", "60", "--k", "5", "--tau", "0.5", "--epochs", "2",
            "--batch-size", "64", "--seed-list", "0,1"]
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    code, out, _ = run_cli(capsys, *argv, "--out-dir", str(out_a))
    assert code == 0
    assert out.splitlines()[0].split()[0] == "seed"
    assert "mean±std" in out
    assert main(argv + ["--out-dir", str(out_b)]) == 0
    assert (out_a / "report.csv").read_bytes() == (out_b / "report.csv").read_bytes()


@pytest.mark.parametrize("verb,out", [("select", "--out-scores"), ("represent", "--out")])
def test_header_only_dataset_is_a_load_error(capsys, tmp_path, verb, out):
    empty = tmp_path / "empty.csv"
    empty.write_text("id,y,yhat,f0,f1\n")
    code, _, err = run_cli(capsys, verb, "--in", str(empty), out, str(tmp_path / "o.csv"))
    assert code == 1
    assert err == "error: [load] dataset CSV has no rows\n"
    assert not (tmp_path / "o.csv").exists()


def test_exp_missing_train_file_is_a_stage_error(capsys, tmp_path):
    code, _, err = run_cli(capsys, "exp", "--train", str(tmp_path / "absent.csv"),
                           "--epochs", "2", "--seed-list", "0")
    assert code == 1
    assert err.startswith("error: [load]")


@pytest.mark.parametrize("method", ["cutstats", "herding", "random"])
def test_exp_empty_selection_is_a_select_error_with_no_report(capsys, tmp_path, method):
    code, _, err = run_cli(capsys, "exp", "--group", "orthogonal", "--d", "3",
                           "--n-train", "2", "--n-test", "2", "--tau", "0.2", "--k", "1",
                           "--method", method, "--seed-list", "0", "--out-dir", str(tmp_path))
    assert code == 1
    assert err == "error: [select] empty selection: round(tau*n) = 0 at tau=0.2, n=2\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("method", ["cutstats", "herding", "random"])
def test_select_empty_selection_is_a_select_error_with_no_file(capsys, tmp_path, monkeypatch,
                                                               method):
    # the same refusal as exp's, before the default subset.txt or the scores are written
    data = tmp_path / "two.csv"
    labels = np.array([0, 1])
    write_dataset_csv(LabeledDataset(features=np.array([[0.1, 0.2, 0.3], [0.3, 0.1, 0.2]]),
                                     noisy_labels=labels, num_classes=2, ids=np.arange(2),
                                     true_labels=labels), str(data))
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(capsys, "select", "--in", str(data), "--tau", "0.2", "--k", "1",
                           "--method", method, "--out-scores", str(tmp_path / "scores.csv"))
    assert code == 1
    assert err == "error: [select] empty selection: round(tau*n) = 0 at tau=0.2, n=2\n"
    assert list(tmp_path.iterdir()) == [data]


def _with_field(src, dst, row, field, value):
    """Copy CSV ``src`` to ``dst`` with one field of data row ``row`` replaced."""
    lines = src.read_text().splitlines()
    parts = lines[row].split(",")
    parts[field] = value
    lines[row] = ",".join(parts)
    dst.write_text("\n".join(lines) + "\n")
    return str(dst)


def test_exp_nonfinite_train_file_is_a_load_error(capsys, workdir, tmp_path):
    bad = _with_field(workdir / "noisy.csv", tmp_path / "bad.csv", 1, 3, "nan")
    code, _, err = run_cli(capsys, "exp", "--train", bad, "--epochs", "2",
                           "--seed-list", "0", "--no-train", "--out-dir", str(tmp_path))
    assert code == 1
    assert err.startswith("error: [load] non-finite")


@pytest.mark.parametrize("field,value", [(3, "abc"), (0, "1.5")], ids=["feature", "id"])
def test_select_non_numeric_dataset_field_is_a_load_error_naming_its_row(
        capsys, workdir, tmp_path, field, value):
    bad = _with_field(workdir / "noisy.csv", tmp_path / "bad.csv", 3, field, value)
    code, _, err = run_cli(capsys, "select", "--in", bad)
    assert code == 1
    assert err == "error: [load] malformed dataset row 3\n"


def test_train_subset_id_past_int64_is_a_load_error_naming_its_line(capsys, workdir, tmp_path):
    subset = tmp_path / "subset.txt"
    subset.write_text("0\n99999999999999999999\n")
    code, _, err = run_cli(capsys, "train", "--in", str(workdir / "noisy.csv"),
                           "--subset", str(subset), "--epochs", "1",
                           "--out", str(tmp_path / "model.bin"))
    assert code == 1
    assert err == "error: [load] malformed subset line 2\n"


@pytest.mark.parametrize("text,message", [
    ("", "subset file has no ids"),
    ("0\n5\n0\n", "subset line 3 repeats id 0"),
], ids=["empty", "repeated_id"])
def test_train_bad_subset_file_is_a_load_error_naming_it(capsys, workdir, tmp_path, text,
                                                         message):
    subset = tmp_path / "subset.txt"
    subset.write_text(text)
    code, _, err = run_cli(capsys, "train", "--in", str(workdir / "noisy.csv"),
                           "--subset", str(subset), "--epochs", "1",
                           "--out", str(tmp_path / "model.bin"))
    assert code == 1
    assert err == f"error: [load] {message}\n"
    assert not (tmp_path / "model.bin").exists()


def test_select_non_numeric_embedding_value_is_a_represent_error_naming_its_row(
        capsys, workdir, tmp_path):
    ds = read_dataset_csv(workdir / "noisy.csv")
    good = tmp_path / "emb.csv"
    write_embedding_csv(ds.ids, ds.features, good)
    bad = _with_field(good, tmp_path / "bad.csv", 2, 1, "x")
    code, _, err = run_cli(capsys, "select", "--in", str(workdir / "noisy.csv"),
                           "--kind", "external", "--embedding", bad)
    assert code == 1
    assert err == "error: [represent] malformed embedding row 2\n"


@pytest.mark.parametrize("args, stage, message", [
    pytest.param(["--kind", "identity"], "select", kernels.OVERFLOW, id="identity"),
    pytest.param(["--kind", "sort"], "select", kernels.OVERFLOW, id="sort"),
    pytest.param(["--kind", "l2norm"], "represent", kernels.OVERFLOW, id="l2norm"),
    pytest.param(["--kind", "l2norm", "--target-error", "0.1"], "represent",
                 kernels.OVERFLOW, id="l2norm-target-error"),
    pytest.param(["--method", "entropy"], "train", mlp.OVERFLOW, id="entropy"),
])
def test_exp_overflowing_features_are_a_select_error(capsys, workdir, tmp_path, args,
                                                     stage, message):
    noisy = read_dataset_csv(workdir / "noisy.csv")
    huge = tmp_path / "huge.csv"
    write_dataset_csv(LabeledDataset(features=noisy.features * 1e160,
                                     noisy_labels=noisy.noisy_labels, num_classes=2,
                                     ids=noisy.ids, true_labels=noisy.true_labels), huge)
    code, _, err = run_cli(capsys, "exp", "--train", str(huge), *args,
                           "--seed-list", "0", "--no-train", "--out-dir", str(tmp_path))
    assert code == 1
    assert err == f"error: [{stage}] {message}\n"


def test_exp_target_error_lost_to_rounding_is_a_represent_error(capsys, workdir, tmp_path):
    noisy = read_dataset_csv(workdir / "noisy.csv")
    big = tmp_path / "big.csv"
    write_dataset_csv(LabeledDataset(features=noisy.features * 1e17,
                                     noisy_labels=noisy.noisy_labels, num_classes=2,
                                     ids=noisy.ids, true_labels=noisy.true_labels), big)
    code, _, err = run_cli(capsys, "exp", "--train", str(big), "--target-error", "0.1",
                           "--seed-list", "0", "--no-train", "--out-dir", str(tmp_path))
    assert code == 1
    assert err == f"error: [represent] {CALIBRATION_MISSED}\n"


def test_bounds_prints_window_and_writes_csv(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "bounds", "--d-range", "2:5",
                           "--out-dir", str(tmp_path))
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 5
    assert lines[0].startswith("d=2 ")
    assert "feasible" in lines[0]
    assert "infeasible" in lines[3]
    assert lines[-1] == "d0=4"
    header, rows = read_csv(tmp_path / "bounds.csv")
    assert header == ["d", "logL", "logU", "feasible"]
    assert [r[0] for r in rows] == ["2", "3", "4", "5"]


def test_bounds_requires_d_range(capsys):
    code, _, err = run_cli(capsys, "bounds")
    assert code == 2
    assert "empty d_range" in err


@pytest.mark.parametrize("d_range", ["0:3", "-2,1"])
def test_bounds_non_positive_d_is_a_usage_error_before_any_file(capsys, tmp_path, d_range):
    out_dir = tmp_path / "out"
    code, out, err = run_cli(capsys, "bounds", "--d-range", d_range, "--out-dir", str(out_dir))
    assert (code, out, err) == (2, "", "error: d must be at least 1\n")
    assert not out_dir.exists()


def test_ablate_runs_grid(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "ablate", "--ablation", "k_sweep",
                           "--grid", "3,5", "--group", "orthogonal", "--d", "6",
                           "--n-train", "120", "--n-test", "60", "--tau", "0.5",
                           "--seed-list", "0", "--no-train",
                           "--out-dir", str(tmp_path))
    assert code == 0
    assert out.splitlines()[0].split()[0] == "k_sweep"
    header, rows = read_csv(tmp_path / "ablation_k_sweep.csv")
    assert len(rows) == 2
    assert [r[0] for r in rows] == ["3.0", "5.0"]


BAD_GRIDS = {
    "dimension_sweep_on_a_file": (["dimension_sweep", "--grid", "4"], "synthetic source"),
    "k_sweep_with_zero": (["k_sweep", "--grid", "3,0"], "k must be positive"),
    "k_sweep_with_fraction": (["k_sweep", "--grid", "2.5,3"],
                              "error: --grid: k_sweep points must be integers, got '2.5'"),
    "dimension_sweep_with_fraction": (["dimension_sweep", "--grid", "6,8.5"],
                                      "error: --grid: dimension_sweep points must be integers, "
                                      "got '8.5'"),
    "k_sweep_range_with_word": (["k_sweep", "--grid", "3:x"],
                                "error: --grid: k_sweep points must be integers, got 'x'"),
    "k_sweep_range_with_three_bounds": (["k_sweep", "--grid", "3:5:7"],
                                        "error: --grid: k_sweep range must be LO:HI, "
                                        "got '3:5:7'"),
    "dimension_sweep_range_with_three_bounds": (["dimension_sweep", "--grid", "3:5:7"],
                                                "error: --grid: dimension_sweep range must be "
                                                "LO:HI, got '3:5:7'"),
    "tau_sweep_with_word": (["tau_sweep", "--grid", "0.4,abc"],
                            "error: --grid: tau_sweep points must be numbers, got 'abc'"),
    "tau_sweep_with_zero": (["tau_sweep", "--grid", "0.4,0"], "tau must lie in (0, 1]"),
    "invariance_error_with_negative": (["invariance_error", "--grid", "0.1,-0.1"],
                                       "target error must be non-negative"),
    "invariance_error_with_nan": (["invariance_error", "--grid", "0,nan"],
                                  "target error must be non-negative"),
    "invariance_error_with_inf": (["invariance_error", "--grid", "0,inf"],
                                  "target error must be non-negative"),
    "invariance_error_with_random": (["invariance_error", "--method", "random", "--grid", "0.2"],
                                     "needs a representation-based method"),
}


@pytest.mark.parametrize("argv,message", BAD_GRIDS.values(), ids=list(BAD_GRIDS))
def test_ablate_bad_grid_is_a_usage_error_before_any_point_runs(
        capsys, workdir, tmp_path, monkeypatch, argv, message):
    def no_run(*args):
        raise AssertionError("a grid point ran")
    monkeypatch.setattr("icut.experiment.run_seed", no_run)
    code, _, err = run_cli(capsys, "ablate", "--ablation", *argv,
                           "--train", str(workdir / "noisy.csv"), "--seed-list", "0",
                           "--no-train", "--out-dir", str(tmp_path))
    assert code == 2
    assert message in err
    assert list(tmp_path.glob("ablation_*")) == []


@pytest.mark.parametrize("argv,flag", [
    (["exp", "--group", "orthogonal", "--seed-list", "3:5:7"], "--seed-list"),
    (["bounds", "--d-range", "3:5:7"], "--d-range"),
], ids=["seed_list", "d_range"])
def test_int_list_flags_refuse_a_range_of_three_bounds(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"argument {flag}: invalid int list value: '3:5:7'" in capsys.readouterr().err


@pytest.mark.parametrize("argv,message", [
    (["--target-error", "-0.1"], "target error must be non-negative"),
    (["--target-error", "nan"], "target error must be non-negative"),
    (["--target-error", "inf"], "target error must be non-negative"),
    (["--kind", "identity", "--target-error", "0.1"], "needs the l2norm representation"),
    (["--method", "random", "--target-error", "0.1"], "needs a representation-based method"),
], ids=["negative", "nan", "inf", "identity_kind", "random_method"])
def test_exp_bad_target_error_is_a_usage_error_before_data_generation(
        capsys, tmp_path, monkeypatch, argv, message):
    def no_generation(*args, **kw):
        raise AssertionError("data was generated")
    monkeypatch.setattr("icut.experiment.generate_synthetic", no_generation)
    code, _, err = run_cli(capsys, "exp", "--group", "orthogonal", "--d", "6",
                           "--n-train", "120", "--n-test", "60", "--seed-list", "0",
                           "--out-dir", str(tmp_path), *argv)
    assert code == 2
    assert message in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv,message", [
    (["--test", "/nonexistent/test.csv"], "a test path needs a train path"),
    (["--kind", "l2norm", "--embedding", "/nonexistent/emb.csv"],
     "an embedding path needs the external representation"),
], ids=["test_without_train", "embedding_without_external"])
def test_exp_ignored_path_is_a_usage_error_before_data_generation(
        capsys, tmp_path, monkeypatch, argv, message):
    def no_generation(*args, **kw):
        raise AssertionError("data was generated")
    monkeypatch.setattr("icut.experiment.generate_synthetic", no_generation)
    code, _, err = run_cli(capsys, "exp", "--group", "orthogonal", "--d", "6",
                           "--n-train", "120", "--n-test", "60", "--seed-list", "0",
                           "--out-dir", str(tmp_path), *argv)
    assert code == 2
    assert message in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv,name", [
    (["--train", ""], "train"),
    (["--train", "{train}", "--test", ""], "test"),
    (["--train", "{train}", "--kind", "external", "--embedding", ""], "embedding"),
], ids=["train", "test", "embedding"])
def test_exp_empty_path_is_a_usage_error_naming_it(capsys, workdir, tmp_path, monkeypatch,
                                                   argv, name):
    # an empty --test once skipped training and reported 0.00 classifier accuracy
    def no_read(*args, **kw):
        raise AssertionError("a dataset was read")
    monkeypatch.setattr("icut.io.read_dataset_csv", no_read)
    argv = [a.format(train=workdir / "train.csv") for a in argv]
    code, _, err = run_cli(capsys, "exp", *argv, "--seed-list", "0", "--out-dir", str(tmp_path))
    assert code == 2
    assert err == f"error: the {name} path is empty\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv,message", [
    (["exp", "--seed-list", "0,0"], "seeds must be distinct"),
    (["exp", "--range", "-1e300", "1e300"], "feature range too wide: d * max(lo^2, hi^2)"),
    (["gen", "--range", "-1e308", "1e308"], "feature range too wide: hi - lo overflows"),
], ids=["exp_repeated_seed", "exp_range", "gen_range"])
def test_bad_seeds_or_range_are_usage_errors_before_data_generation(
        capsys, tmp_path, monkeypatch, argv, message):
    def no_generation(*args, **kw):
        raise AssertionError("data was generated")
    monkeypatch.setattr("icut.experiment.generate_synthetic", no_generation)
    monkeypatch.setattr("icut.cli.generate_synthetic", no_generation)
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *argv, "--group", "orthogonal", "--n-train", "120",
                             "--n-test", "60")
    assert code == 2
    assert message in err and out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["gen", "--group", "orthogonal", "--d", "0"],
    ["ablate", "--ablation", "dimension_sweep", "--grid", "0,3", "--group", "orthogonal",
     "--n-train", "120", "--n-test", "60", "--seed-list", "0", "--no-train"],
], ids=["gen", "dimension_sweep"])
def test_zero_dimension_is_a_usage_error(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert "d and split sizes must be positive" in err
    assert out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv,message", [
    (["--trials", "0"], "trials must be at least 10^4"),
    (["--tuples", "0"], "tuples must be positive"),
], ids=["trials", "tuples"])
def test_validate_theory_bad_counts_are_usage_errors(capsys, argv, message):
    code, out, err = run_cli(capsys, "validate-theory", *argv)
    assert code == 2
    assert out == ""
    assert message in err


@pytest.mark.parametrize("count", ["0", "1"])
@pytest.mark.parametrize("verb,argv", [
    ("select", ["--in", "noisy.csv", "--out-subset", "subset.txt"]),
    ("train", ["--in", "train.csv", "--out", "model.bin"]),
], ids=["select", "train"])
def test_class_count_below_two_is_a_usage_error(capsys, workdir, tmp_path, monkeypatch,
                                                verb, argv, count):
    def no_load(*args, **kw):
        raise AssertionError("a dataset was read")
    monkeypatch.setattr("icut.io.read_dataset_csv", no_load)
    monkeypatch.chdir(tmp_path)
    argv = [str(workdir / a) if a.endswith(".csv") else a for a in argv]
    code, out, err = run_cli(capsys, verb, *argv, "--num-classes", count)
    assert code == 2
    assert "need at least 2 classes" in err
    assert out == ""
    assert list(tmp_path.iterdir()) == []


def test_validate_theory_passes_quickly(capsys):
    code, out, _ = run_cli(capsys, "validate-theory",
                           "--trials", "20000", "--tuples", "2")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 6
    assert all(line.startswith("PASS") for line in lines)


def test_validate_theory_fails_when_one_random_tuple_misses(capsys, monkeypatch):
    real = theory.validate_prop1_monte_carlo

    def second_tuple_misses(*args, seed, **kw):
        report = real(*args, seed=seed, **kw)
        return replace(report, alpha_s_emp=report.alpha_s_pred + 1.0) if seed == 2 else report
    monkeypatch.setattr(theory, "validate_prop1_monte_carlo", second_tuple_misses)
    code, out, _ = run_cli(capsys, "validate-theory", "--trials", "20000", "--tuples", "2")
    assert code == 1
    lines = out.splitlines()
    assert lines[1] == "FAIL: propagation on 2 random tuples"
    assert all(line.startswith("PASS") for line in lines[:1] + lines[2:])


# --- one flag-resolution path -------------------------------------------------


ZERO_VALUED = ([("exp", flag) for flag in ("--k", "--tau", "--epochs", "--hidden", "--lr",
                                            "--batch-size", "--num-classes", "--n-train")]
               + [("select", "--epochs"), ("bounds", "--n")])


@pytest.mark.parametrize("verb,flag", ZERO_VALUED)
def test_zero_valued_flags_are_usage_errors(capsys, workdir, tmp_path, verb, flag):
    base = {"exp": ["--group", "orthogonal", "--d", "6", "--n-train", "120",
                    "--n-test", "60", "--epochs", "2", "--seed-list", "0",
                    "--out-dir", str(tmp_path)],
            "select": ["--in", str(workdir / "noisy.csv"),
                       "--out-subset", str(tmp_path / "subset.txt")],
            "bounds": ["--d-range", "2:5", "--out-dir", str(tmp_path)]}[verb]
    code, _, err = run_cli(capsys, verb, *base, flag, "0")
    assert code == 2
    assert err.startswith("error: ")
    assert list(tmp_path.iterdir()) == []


NONFINITE = {
    "lr_nan": (["exp", "--lr", "nan"], "learning rate must be positive"),
    "lr_inf": (["exp", "--lr", "inf"], "learning rate must be positive"),
    "priors_nan": (["exp", "--priors", "nan,nan"],
                   "fixed priors must be non-negative and sum to 1"),
    "priors_inf": (["exp", "--priors", "inf,-inf"],
                   "fixed priors must be non-negative and sum to 1"),
    "delta_nan": (["bounds", "--delta", "nan"], "delta must be positive"),
    "omega_inf": (["bounds", "--omega", "inf"], "omega must be positive"),
    "p0_nan": (["bounds", "--p0", "nan"], "p0 must be positive"),
    "kl1_inf": (["bounds", "--kl1", "inf"], "kl1 must be positive"),
}


@pytest.mark.parametrize("argv,message", NONFINITE.values(), ids=list(NONFINITE))
def test_nonfinite_config_floats_are_usage_errors(capsys, tmp_path, monkeypatch, argv,
                                                   message):
    def no_generation(*args, **kw):
        raise AssertionError("data was generated")
    monkeypatch.setattr("icut.experiment.generate_synthetic", no_generation)
    verb, *flags = argv
    base = {"exp": ["--group", "orthogonal", "--d", "6", "--n-train", "120",
                    "--n-test", "60", "--seed-list", "0"],
            "bounds": ["--d-range", "2:5"]}[verb]
    code, out, err = run_cli(capsys, verb, *base, *flags, "--out-dir", str(tmp_path))
    assert code == 2
    assert out == ""
    assert message in err
    assert list(tmp_path.iterdir()) == []


def test_config_switch_set_true_turns_training_off(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"no_train": True, "seed_list": [0]}))
    code, _, _ = run_cli(capsys, "exp", "--config", str(cfg), "--group", "orthogonal",
                         "--d", "6", "--n-train", "120", "--n-test", "60",
                         "--out-dir", str(tmp_path))
    assert code == 0
    header, rows = read_csv(tmp_path / "report.csv")
    assert [r[0] for r in rows] == ["0", "mean", "std"]
    assert float(rows[0][header.index("classifier_accuracy")]) == 0.0
    cfg.write_text(json.dumps({"no_train": 1}))
    assert run_cli(capsys, "exp", "--config", str(cfg), "--group", "orthogonal",
                   "--out-dir", str(tmp_path / "out")) == (
        2, "", "error: config key 'no_train' must be true or false\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("cfg,message", [
    ({"K": 3}, "unknown config key 'K'"),
    ({"hidden_units": 8}, "unknown config key 'hidden_units'"),
    ({"seed_list": [0]}, "unknown config key 'seed_list'"),
    ({"k": 0}, "k must be positive"),
    ({"k": "five"}, "bad k"),
])
def test_config_values_are_checked_like_flags(capsys, workdir, tmp_path, cfg, message):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, _, err = run_cli(capsys, "select", "--in", str(workdir / "noisy.csv"),
                           "--config", str(path), "--out-subset", str(tmp_path / "s.txt"))
    assert code == 2
    assert message in err


def test_bounds_has_no_beta_flag():
    with pytest.raises(SystemExit) as exc:
        main(["bounds", "--d-range", "1:3", "--beta", "1"])
    assert exc.value.code == 2


@pytest.mark.parametrize("verb", ["exp", "ablate", "bounds", "eval"])
def test_verbs_without_a_seed_reject_the_flag(verb):
    with pytest.raises(SystemExit) as exc:
        main([verb, "--seed", "1"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["select", "--in"],
    ["train", "--out", "model.bin", "--in"],
    ["corrupt", "--out", "out.csv", "--p", "0.1", "--in"],
    ["represent", "--out", "rep.csv", "--in"],
    ["eval", "--model", "model.bin", "--test"],
], ids=lambda argv: argv[0])
def test_missing_input_files_are_load_errors(capsys, workdir, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    assert main(["train", "--in", str(workdir / "noisy.csv"), "--epochs", "1",
                 "--out", "model.bin"]) == 0
    code, _, err = run_cli(capsys, *argv, "absent.csv")
    assert code == 1
    assert err.startswith("error: [load] [Errno 2]")


def _string_constants(fn, seen):
    """String literals in ``fn`` and in the ``icut.cli`` functions it calls, transitively."""
    found = set()
    for node in ast.walk(ast.parse(textwrap.dedent(inspect.getsource(fn)))):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
        elif isinstance(node, ast.Name) and node.id not in seen:
            target = getattr(cli, node.id, None)
            if inspect.isfunction(target) and target.__module__ == cli.__name__:
                seen.add(node.id)
                found |= _string_constants(target, seen)
    return found


def test_every_declared_flag_is_read_by_its_handler():
    parser = cli._parser()
    verbs = next(a.choices for a in parser._actions
                 if isinstance(a, argparse._SubParsersAction))
    assert set(verbs) == set(cli.VERBS)
    for verb, p in verbs.items():
        declared = {a.dest for a in p._actions if a.dest not in ("help", "config")}
        unread = declared - _string_constants(cli.VERBS[verb].handler, set())
        assert not unread, f"{verb} declares flags it never reads: {sorted(unread)}"


# --- the CLI surface ------------------------------------------------------------


def _flag(option, *, dest=None, nargs=None, type=None, choices=None, help=None, metavar=None):
    """A flag as ``_surface`` records it; ``dest`` defaults to the option's own name."""
    return ((option,), dest or option[2:].replace("-", "_"), nargs, type, choices, help,
            metavar)


CONFIG_FLAG = _flag("--config", help="JSON config; flags override its keys")
SEED_FLAG = _flag("--seed", type="int")
SYNTHETIC_FLAGS = [
    _flag("--group", choices=("orthogonal", "permutation")),
    _flag("--d", type="int"),
    _flag("--n-train", type="int"),
    _flag("--n-test", type="int"),
    _flag("--range", dest="feature_range", nargs=2, type="float", metavar=("LO", "HI")),
]
MLP_FLAGS = [_flag("--hidden", type="int"), _flag("--epochs", type="int"),
             _flag("--batch-size", type="int"), _flag("--lr", type="float")]
SELECTOR_FLAGS = [
    _flag("--num-classes", type="int"),
    _flag("--kind", choices=("identity", "l2norm", "sort", "external")),
    _flag("--embedding", help="embedding CSV (with --kind external)"),
    _flag("--method", choices=("cutstats", "random", "entropy", "forget", "herding", "full")),
    _flag("--k", type="int"),
    _flag("--tau", type="float"),
    _flag("--priors", type="_priors", help='"empirical" or comma floats'),
    *MLP_FLAGS,
]
EXP_FLAGS = [
    *SYNTHETIC_FLAGS,
    _flag("--train", help="train dataset CSV (file source)"),
    _flag("--test", help="test dataset CSV (with --train)"),
    _flag("--p", type="float", help="label flip probability"),
    *SELECTOR_FLAGS,
    _flag("--seed-list", type="int list", help="comma-separated seeds"),
    _flag("--out-dir"),
    _flag("--no-train", nargs=0),
    _flag("--target-error", type="float"),
]
SURFACE = {
    "gen": ("generate a synthetic dataset",
            [SEED_FLAG, *SYNTHETIC_FLAGS, _flag("--out-train"), _flag("--out-test")]),
    "corrupt": ("inject symmetric label noise",
                [SEED_FLAG, _flag("--in", dest="infile"), _flag("--out", dest="outfile"),
                 _flag("--p", type="float"), _flag("--num-classes", type="int")]),
    "represent": ("compute a representation CSV",
                  [_flag("--in", dest="infile"), _flag("--out", dest="outfile"),
                   _flag("--kind", choices=("identity", "l2norm", "sort"))]),
    "select": ("select a training subset",
               [SEED_FLAG, _flag("--in", dest="infile"), *SELECTOR_FLAGS,
                _flag("--out-scores"), _flag("--out-subset")]),
    "train": ("train the downstream classifier",
              [SEED_FLAG, _flag("--in", dest="infile"), _flag("--subset", help="subset id file"),
               _flag("--num-classes", type="int"), *MLP_FLAGS,
               _flag("--out", dest="out_model")]),
    "eval": ("evaluate a saved classifier",
             [_flag("--model"), _flag("--test"), _flag("--out-csv")]),
    "exp": ("end-to-end seeded experiment", EXP_FLAGS),
    "bounds": ("feasibility window over dimensions",
               [_flag("--n", type="int"),
                *[_flag(f"--{name}", type="float")
                  for name in ("nu", "rho", "delta", "omega", "p0", "kl1")],
                _flag("--mode", choices=("plain", "orthogonal", "permutation")),
                _flag("--d-range", type="int list", help="comma list or LO:HI inclusive"),
                _flag("--out-dir")]),
    "ablate": ("sweep one knob through the pipeline",
               [_flag("--ablation", choices=("invariance_error", "dimension_sweep", "k_sweep",
                                             "tau_sweep")),
                _flag("--grid", help="comma-separated grid points"), *EXP_FLAGS]),
    "validate-theory": ("Monte Carlo theory checks",
                        [SEED_FLAG, _flag("--trials", type="int"), _flag("--tuples", type="int")]),
}


def _surface(parser):
    """The verbs of ``icut --help`` with their help, and each verb's flags in order."""
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    listing = [(a.dest, a.help) for a in sub._choices_actions]
    flags = {verb: [(tuple(a.option_strings), a.dest, a.nargs, getattr(a.type, "__name__", None),
                     None if a.choices is None else tuple(a.choices), a.help, a.metavar)
                    for a in p._actions if a.dest != "help"]
             for verb, p in sub.choices.items()}
    defaults = {a.default for p in sub.choices.values() for a in p._actions if a.dest != "help"}
    return listing, flags, defaults


def test_cli_surface_is_pinned():
    listing, flags, defaults = _surface(cli._parser())
    assert listing == [(verb, help) for verb, (help, _) in SURFACE.items()]
    assert flags == {verb: [CONFIG_FLAG, *rows] for verb, (_, rows) in SURFACE.items()}
    assert defaults == {argparse.SUPPRESS}      # an unset flag leaves the namespace


# case: (command line, its error); a case is named by its verb, then what it leaves out
REQUIRED = {
    "gen": (["gen", "--d", "3"], "--group is required"),
    "corrupt": (["corrupt", "--in", "x.csv", "--out", "y.csv"],
                "--in, --out and --p are required"),
    "represent": (["represent", "--kind", "sort"], "--in and --out are required"),
    "select": (["select", "--k", "3"], "--in is required"),
    "train": (["train", "--in", "x.csv", "--epochs", "1"], "--in and --out are required"),
    "eval": (["eval", "--model", "model.bin"], "--model and --test are required"),
    "ablate": (["ablate", "--grid", "1,2"], "--ablation and --grid are required"),
    "ablate-grid": (["ablate", "--ablation", "k_sweep", "--group", "orthogonal"],
                    "--ablation and --grid are required"),
}


@pytest.mark.parametrize("argv,message", list(REQUIRED.values()), ids=list(REQUIRED))
def test_missing_required_flags_are_named_in_full(capsys, tmp_path, monkeypatch, argv,
                                                  message):
    monkeypatch.chdir(tmp_path)
    assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")
    assert list(tmp_path.iterdir()) == []
