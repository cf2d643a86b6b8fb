"""End-to-end pipeline runs, sweep driver, and report emission."""

import weakref
from dataclasses import replace

import numpy as np
import pytest

from icut import experiment
from icut import (CutstatsConfig, ExperimentConfig, LabeledDataset, MlpConfig, NoiseSpec,
                  StageError, SyntheticSpec, generate_synthetic, run_ablation, run_bounds,
                  run_experiment, run_seed)
from icut.io import write_dataset_csv, write_embedding_csv
from icut.theory import WindowParams, feasibility_window
from conftest import random_dataset, read_csv

TINY_SPEC = SyntheticSpec(group="orthogonal", d=6, n_train=300, n_test=100)
TINY_MLP = MlpConfig(epochs=2, batch_size=64)


def tiny_config(**overrides):
    base = dict(synthetic=TINY_SPEC, cutstats=CutstatsConfig(k=5, tau=0.5),
                mlp=TINY_MLP, seeds=(0,))
    base.update(overrides)
    return ExperimentConfig(**base)


# --- config validation -------------------------------------------------------


def test_config_requires_exactly_one_source():
    with pytest.raises(ValueError, match="exactly one"):
        ExperimentConfig()
    with pytest.raises(ValueError, match="exactly one"):
        ExperimentConfig(synthetic=TINY_SPEC, train_path="train.csv")


def test_config_external_needs_embedding_path():
    with pytest.raises(ValueError, match="embedding path"):
        tiny_config(representation_kind="external")


def test_config_refuses_paths_it_would_ignore():
    with pytest.raises(ValueError, match="a test path needs a train path"):
        tiny_config(test_path="test.csv")
    with pytest.raises(ValueError, match="an embedding path needs the external representation"):
        tiny_config(embedding_path="emb.csv")


@pytest.mark.parametrize("name", ["train", "test", "embedding"])
def test_config_refuses_an_empty_path_by_name(name):
    paths = dict(train_path="train.csv", test_path="test.csv", embedding_path="emb.csv")
    paths[f"{name}_path"] = ""
    with pytest.raises(ValueError, match=f"^the {name} path is empty$"):
        ExperimentConfig(representation_kind="external", **paths)


def test_config_rejects_empty_seeds():
    with pytest.raises(ValueError, match="seeds"):
        tiny_config(seeds=())


def test_config_rejects_repeated_seeds():
    with pytest.raises(ValueError, match="seeds must be distinct"):
        tiny_config(seeds=(0, 0))


@pytest.mark.parametrize("seeds", [(0.5, 1.5), (0, 0.5), (float("nan"),), (float("inf"),)],
                         ids=["fractions", "one_fraction", "nan", "inf"])
def test_config_rejects_non_integer_seeds(seeds):
    with pytest.raises(ValueError, match="each seed must be an integer"):
        tiny_config(seeds=seeds)


def test_config_keeps_integral_seeds():
    # integral floats and numpy ints become ints; ints past int64 stay whole,
    # and the generators mask them to 63 bits as before
    cfg = tiny_config(seeds=(1.0, np.int64(2), 2**70 + 5))
    assert cfg.seeds == (1, 2, 2**70 + 5)
    assert all(type(s) is int for s in cfg.seeds)


def test_config_rejects_negative_invariance_target():
    with pytest.raises(ValueError, match="target error must be non-negative"):
        tiny_config(invariance_target=-0.1)


def test_config_invariance_target_needs_l2norm():
    with pytest.raises(ValueError, match="needs the l2norm representation"):
        tiny_config(representation_kind="identity", invariance_target=0.1)


@pytest.mark.parametrize("method", ["random", "entropy", "forget", "full"])
def test_config_invariance_target_needs_a_representation_method(method):
    with pytest.raises(ValueError, match="needs a representation-based method"):
        tiny_config(method=method, invariance_target=0.1)


def test_config_rejects_unknown_method_and_kind():
    with pytest.raises(ValueError, match="unknown method"):
        tiny_config(method="oracle")
    with pytest.raises(ValueError, match="unknown representation kind"):
        tiny_config(representation_kind="pca")


# --- single-seed runs ----------------------------------------------------------


def test_run_seed_fills_every_metric():
    metrics, extras = run_seed(tiny_config(), 0)
    for field in ("subset_accuracy", "classifier_accuracy", "balanced_error",
                  "alpha_hat", "gamma_hat", "nonabstain_rate"):
        value = getattr(metrics, field)
        assert 0.0 <= value <= 1.0, field
    assert extras["realized_error"] is None
    assert metrics.nonabstain_rate == pytest.approx(0.5)


def test_run_seed_noiseless_selection_is_perfectly_clean():
    cfg = tiny_config(noise=NoiseSpec(flip_probability=0.0))
    metrics, _ = run_seed(cfg, 1)
    assert metrics.subset_accuracy == 1.0
    assert metrics.alpha_hat == 0.0 and metrics.gamma_hat == 0.0


def test_run_seed_full_method_selects_everything():
    metrics, _ = run_seed(tiny_config(method="full"), 0)
    assert metrics.nonabstain_rate == 1.0


def test_run_seed_invariance_target_reports_realized_error():
    cfg = tiny_config(invariance_target=0.3)
    metrics, extras = run_seed(cfg, 0)
    assert extras["realized_error"] is not None
    assert extras["realized_error"] > 0.0
    assert 0.0 <= metrics.subset_accuracy <= 1.0


def test_run_seed_is_deterministic():
    a = run_seed(tiny_config(), 2)[0]
    b = run_seed(tiny_config(), 2)[0]
    assert a == b


def test_run_seed_skips_training_when_disabled():
    with_model = run_seed(tiny_config(), 0)[0]
    without = run_seed(tiny_config(train_downstream=False), 0)[0]
    assert without.classifier_accuracy == 0.0
    assert with_model.classifier_accuracy > 0.0
    assert without.subset_accuracy == with_model.subset_accuracy > 0.0


def test_run_seed_wraps_missing_file_as_load_stage(tmp_path):
    cfg = ExperimentConfig(train_path=str(tmp_path / "absent.csv"),
                           seeds=(0,), mlp=TINY_MLP)
    with pytest.raises(StageError, match=r"\[load\]"):
        run_seed(cfg, 0)


@pytest.mark.parametrize("method", ["cutstats", "herding", "random"])
def test_run_seed_empty_selection_fails_at_select_before_training(monkeypatch, method):
    def no_training(*args, **kw):
        raise AssertionError("trained on an empty selection")
    monkeypatch.setattr(experiment, "train_mlp", no_training)
    cfg = tiny_config(method=method, cutstats=CutstatsConfig(k=1, tau=0.2),
                      synthetic=SyntheticSpec(group="orthogonal", d=3, n_train=2, n_test=2))
    with pytest.raises(StageError, match=r"empty selection: round\(tau\*n\) = 0") as exc:
        run_seed(cfg, 0)
    assert exc.value.stage == "select"


def test_run_seed_external_embedding_round_trip(tmp_path):
    from icut.io import write_embedding_csv

    train = tmp_path / "train.csv"
    ds = random_dataset(60, 3, seed=6)
    write_dataset_csv(ds, train)
    emb = tmp_path / "emb.csv"
    write_embedding_csv(ds.ids, ds.features * 2.0, emb)
    cfg = ExperimentConfig(train_path=str(train), embedding_path=str(emb),
                           representation_kind="external", mlp=TINY_MLP,
                           cutstats=CutstatsConfig(k=3, tau=0.5),
                           noise=NoiseSpec(flip_probability=0.2), seeds=(0,))
    metrics, _ = run_seed(cfg, 0)
    assert metrics.nonabstain_rate == pytest.approx(0.5)


@pytest.mark.parametrize("num_classes, subsets", [(3, 0), (2, 1)], ids=["multiclass", "binary"])
def test_run_seed_builds_the_selected_subset_only_where_it_is_read(tmp_path, monkeypatch,
                                                                    num_classes, subsets):
    # With no test set, only the binary alpha/gamma rates read the subset.
    built = _count_calls(monkeypatch, LabeledDataset, ["restrict"])
    train = tmp_path / "train.csv"
    write_dataset_csv(random_dataset(60, 3, num_classes=num_classes, seed=6), train)
    cfg = ExperimentConfig(train_path=str(train), cutstats=CutstatsConfig(k=3, tau=0.5),
                           noise=NoiseSpec(0.2, num_classes=num_classes), seeds=(0,))
    metrics, _ = run_seed(cfg, 0)
    assert built == {"restrict": subsets} and metrics.nonabstain_rate == pytest.approx(0.5)


# --- multi-seed reports ---------------------------------------------------------


def test_run_experiment_reports_are_reproducible(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    result_a = run_experiment(tiny_config(seeds=(1, 0), output_dir=str(out_a)))
    result_b = run_experiment(tiny_config(seeds=(0, 1), output_dir=str(out_b)))
    csv_a = (out_a / "report.csv").read_bytes()
    csv_b = (out_b / "report.csv").read_bytes()
    assert csv_a == csv_b
    assert (out_a / "report.txt").read_bytes() == (out_b / "report.txt").read_bytes()
    assert result_a["summary"] == result_b["summary"]


def test_run_experiment_rows_are_sorted_with_summary_tail(tmp_path):
    run_experiment(tiny_config(seeds=(2, 0), output_dir=str(tmp_path)))
    header, rows = read_csv(tmp_path / "report.csv")
    assert header[0] == "seed"
    assert [r[0] for r in rows] == ["0", "2", "mean", "std"]
    seed_vals = [float(r[1]) for r in rows[:2]]
    assert float(rows[2][1]) == pytest.approx(np.mean(seed_vals), rel=1e-12)
    assert float(rows[3][1]) == pytest.approx(np.std(seed_vals, ddof=1), rel=1e-12)


def test_run_experiment_text_table_uses_percentages(tmp_path):
    run_experiment(tiny_config(output_dir=str(tmp_path)))
    lines = (tmp_path / "report.txt").read_text().splitlines()
    assert lines[0].split()[0] == "seed"
    assert "mean±std" in lines[-1]
    assert "." in lines[1].split()[1]


# --- bounds and ablations --------------------------------------------------------


def test_run_bounds_writes_matching_csv(tmp_path):
    params = WindowParams(n=10**6, nu=0.05, rho=1.0, delta=0.1,
                          omega=1.0, p0=1.0, kl1=1.0)
    result = run_bounds(params, range(1, 6), output_dir=str(tmp_path))
    header, rows = read_csv(tmp_path / "bounds.csv")
    assert header == ["d", "logL", "logU", "feasible"]
    expect = feasibility_window(params, range(1, 6))
    assert result["report"] == expect
    assert len(rows) == 5
    for row, (d, log_l, log_u, ok) in zip(rows, expect.rows):
        assert row == [str(d), repr(log_l), repr(log_u), str(int(ok))]


def test_run_ablation_single_point_grid(tmp_path):
    cfg = tiny_config(output_dir=str(tmp_path), train_downstream=False)
    result = run_ablation("k_sweep", cfg, [5])
    header, rows = read_csv(tmp_path / "ablation_k_sweep.csv")
    assert header == ["k_sweep", "realized", "subset_acc_mean", "subset_acc_std",
                      "classifier_acc_mean", "classifier_acc_std"]
    assert len(rows) == 1
    assert len(result["rows"]) == 1
    assert result["rows"][0][0] == 5.0


def test_run_ablation_k_sweep_changes_selection(tmp_path):
    cfg = tiny_config(output_dir=str(tmp_path), train_downstream=False)
    result = run_ablation("k_sweep", cfg, [1, 9])
    subset_means = [row[2][0] for row in result["rows"]]
    assert subset_means[0] != subset_means[1]


def test_run_ablation_invariance_grid_reports_realized(tmp_path):
    cfg = tiny_config(output_dir=str(tmp_path), train_downstream=False)
    result = run_ablation("invariance_error", cfg, [0.0, 0.3])
    realized = [row[1] for row in result["rows"]]
    assert realized[0] == 0.0
    assert realized[1] > 0.0


def test_run_ablation_rejects_bad_inputs(tmp_path):
    cfg = tiny_config(output_dir=str(tmp_path))
    with pytest.raises(ValueError, match="unknown ablation kind"):
        run_ablation("width_sweep", cfg, [1])
    with pytest.raises(ValueError, match="empty ablation grid"):
        run_ablation("k_sweep", cfg, [])


@pytest.mark.parametrize("kind", ["k_sweep", "dimension_sweep"])
def test_run_ablation_rejects_fractional_points(tmp_path, kind):
    cfg = tiny_config(output_dir=str(tmp_path))
    field = "k" if kind == "k_sweep" else "d"
    with pytest.raises(ValueError, match=f"^{field} must be an integer, got 2.5"):
        run_ablation(kind, cfg, [2.5, 2])
    assert list(tmp_path.iterdir()) == []
    configs = experiment.ablation_configs(kind, cfg, [np.int64(4), 3.0])
    values = [c.cutstats.k if kind == "k_sweep" else c.synthetic.d for c in configs]
    assert values == [4, 3] and all(type(v) is int for v in values)


def test_run_ablation_k_beyond_n_fails_at_select_before_any_training(tmp_path, monkeypatch):
    def no_training(*args, **kw):
        raise AssertionError("an MLP was trained")

    monkeypatch.setattr(experiment, "train_mlp", no_training)
    with pytest.raises(StageError) as failure:
        run_ablation("k_sweep", tiny_config(output_dir=str(tmp_path)), [5, TINY_SPEC.n_train])
    assert failure.value.stage == "select"
    assert "k must satisfy 1 <= k <= n-1" in str(failure.value)
    assert list(tmp_path.iterdir()) == []


STAGES = ("generate_synthetic", "inject_label_noise", "compute_representation",
          "perturb_representation", "build_neighbor_table", "cutstats_scores")


def _count_calls(monkeypatch, module, names):
    """Calls of each of ``module``'s ``names`` from here on, by name."""
    calls = dict.fromkeys(names, 0)

    def counted(name, fn):
        def wrapper(*args, **kw):
            calls[name] += 1
            return fn(*args, **kw)
        return wrapper

    for name in names:
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    return calls


@pytest.mark.parametrize("kind, grid, per_point", [
    ("k_sweep", [3, 7, 5], {"cutstats_scores"}),
    ("tau_sweep", [0.3, 0.5, 0.7], set()),
    ("invariance_error", [0.0, 0.1, 0.2],
     {"perturb_representation", "build_neighbor_table", "cutstats_scores"}),
    ("dimension_sweep", [4, 5, 6], set(STAGES) - {"perturb_representation"}),
])
def test_run_ablation_builds_unswept_stages_once_per_seed(tmp_path, monkeypatch,
                                                          kind, grid, per_point):
    calls = _count_calls(monkeypatch, experiment, STAGES)
    cfg = tiny_config(output_dir=str(tmp_path), seeds=(1, 0), train_downstream=False)
    run_ablation(kind, cfg, grid)
    expected = {name: 2 * (3 if name in per_point else 1) for name in STAGES}
    if kind != "invariance_error":
        expected["perturb_representation"] = 0
    assert calls == expected


def test_tau_sweep_trains_one_scorer_per_seed(tmp_path, monkeypatch):
    calls = _count_calls(monkeypatch, experiment, ("train_mlp",))
    cfg = tiny_config(method="entropy", output_dir=str(tmp_path), seeds=(1, 0),
                      train_downstream=False)
    run_ablation("tau_sweep", cfg, [0.3, 0.5, 0.7])
    assert calls == {"train_mlp": 2}


OTHER_NOISE = dict(noise=NoiseSpec(flip_probability=0.2))


@pytest.mark.parametrize("base, change", [
    (dict(method="entropy"), dict(mlp=replace(TINY_MLP, hidden_units=8))),
    (dict(method="entropy"), OTHER_NOISE),
    ({}, dict(cutstats=CutstatsConfig(k=5, tau=0.5, priors=(0.3, 0.7)))),
    ({}, OTHER_NOISE),
    (dict(method="herding", invariance_target=0.1), OTHER_NOISE),
], ids=["scorer-mlp", "scorer-noise", "scores-priors", "scores-noise", "perturbed-noise"])
def test_configs_sharing_stages_each_get_their_own_outputs(base, change):
    configs = [tiny_config(train_downstream=False, **base)]
    configs.append(replace(configs[0], **change))
    stages = experiment.Stages(configs)
    shared = [run_seed(cfg, 0, stages)[0] for cfg in configs]
    assert shared == [run_seed(cfg, 0)[0] for cfg in configs]


@pytest.fixture
def files(tmp_path):
    """Train and test CSVs of one generated data set, and an embedding CSV of its train rows."""
    train, test = generate_synthetic(TINY_SPEC, 3)
    paths = {name: str(tmp_path / f"{name}.csv") for name in ("train", "test", "embedding")}
    write_dataset_csv(train, paths["train"])
    write_dataset_csv(test, paths["test"])
    write_embedding_csv(train.ids, 2.0 * train.features, paths["embedding"])
    return paths


FILE_STAGES = ("read_dataset_csv", "read_embedding_csv", "load_external_representation",
               "compute_representation", "perturb_representation", "build_neighbor_table",
               "inject_label_noise", "cutstats_scores")


@pytest.mark.parametrize("kind, grid, expected", [
    # one config with a test split: each file once, corruption and scores per seed
    (None, None, {"read_dataset_csv": 2, "read_embedding_csv": 1,
                  "load_external_representation": 1, "build_neighbor_table": 1,
                  "inject_label_noise": 2, "cutstats_scores": 2}),
    ("k_sweep", [3, 7, 5], {"read_dataset_csv": 1, "read_embedding_csv": 1,
                            "load_external_representation": 1, "build_neighbor_table": 1,
                            "inject_label_noise": 2, "cutstats_scores": 6}),
    ("tau_sweep", [0.3, 0.5, 0.7], {"read_dataset_csv": 1, "read_embedding_csv": 1,
                                    "load_external_representation": 1,
                                    "build_neighbor_table": 1, "inject_label_noise": 2,
                                    "cutstats_scores": 2}),
    # a target error makes the representation, so the table, seeded
    ("invariance_error", [0.0, 0.1, 0.2], {"read_dataset_csv": 1, "compute_representation": 1,
                                           "perturb_representation": 6,
                                           "build_neighbor_table": 6, "inject_label_noise": 2,
                                           "cutstats_scores": 6}),
], ids=["experiment", "k_sweep", "tau_sweep", "invariance_error"])
def test_file_source_builds_seed_free_stages_once_per_call(tmp_path, monkeypatch, files,
                                                           kind, grid, expected):
    reads = _count_calls(monkeypatch, experiment.io, FILE_STAGES[:2])
    stages = _count_calls(monkeypatch, experiment, FILE_STAGES[2:])
    cfg = ExperimentConfig(train_path=files["train"], cutstats=CutstatsConfig(k=5, tau=0.5),
                           mlp=TINY_MLP, seeds=(1, 0), output_dir=str(tmp_path / "out"))
    if kind == "invariance_error":
        run_ablation(kind, cfg, grid)
    else:
        cfg = replace(cfg, representation_kind="external", embedding_path=files["embedding"])
        if kind is None:
            run_experiment(replace(cfg, test_path=files["test"]))
        else:
            run_ablation(kind, replace(cfg, train_downstream=False), grid)
    assert {**reads, **stages} == {name: expected.get(name, 0) for name in FILE_STAGES}


def _track_tables(monkeypatch, refs):
    """Keep a weak reference to each table the pipeline builds."""
    build = experiment.build_neighbor_table

    def tracked(*args, **kw):
        table = build(*args, **kw)
        refs.append(weakref.ref(table))
        return table

    monkeypatch.setattr(experiment, "build_neighbor_table", tracked)


def test_one_config_call_releases_its_table_before_training(tmp_path, monkeypatch):
    tables, held = [], []
    _track_tables(monkeypatch, tables)
    train_mlp = experiment.train_mlp

    def training(*args, **kw):
        held.append(sum(ref() is not None for ref in tables))
        return train_mlp(*args, **kw)

    monkeypatch.setattr(experiment, "train_mlp", training)
    run_experiment(tiny_config(seeds=(0, 1), output_dir=str(tmp_path / "experiment")))
    assert len(tables) == 2 and held == [0, 0]
    # a k sweep's later points read the table, so it outlives the first point's training
    tables.clear()
    held.clear()
    run_ablation("k_sweep", tiny_config(output_dir=str(tmp_path / "sweep")), [3, 5])
    assert len(tables) == 1 and held == [1, 1]


def test_dimension_sweep_releases_each_point_before_the_next(tmp_path, monkeypatch):
    data, tables, live = [], [], []
    _track_tables(monkeypatch, tables)
    generate = experiment.generate_synthetic

    def generating(*args, **kw):
        live.append(sum(ref() is not None for ref in data + tables))
        out = generate(*args, **kw)
        data.extend(weakref.ref(split) for split in out)
        return out

    monkeypatch.setattr(experiment, "generate_synthetic", generating)
    run_ablation("dimension_sweep", tiny_config(output_dir=str(tmp_path), seeds=(1, 0)),
                 [4, 5, 6])
    assert len(data) == 12 and len(tables) == 6
    assert live == [0] * 6


def test_run_ablation_dimension_sweep_requires_synthetic(tmp_path):
    train = tmp_path / "train.csv"
    write_dataset_csv(random_dataset(40, 2, seed=7), train)
    cfg = ExperimentConfig(train_path=str(train), mlp=TINY_MLP, seeds=(0,),
                           cutstats=CutstatsConfig(k=3, tau=0.5),
                           output_dir=str(tmp_path))
    with pytest.raises(ValueError, match="synthetic source"):
        run_ablation("dimension_sweep", cfg, [4])


def test_report_pair_is_removed_when_the_text_table_fails(tmp_path, monkeypatch):
    def fail(*args):
        raise OSError("disk full")

    monkeypatch.setattr(experiment.io, "write_text_table", fail)
    with pytest.raises(OSError):
        experiment._emit(str(tmp_path), "report", ["a"], [["1"]], [["1"]])
    assert list(tmp_path.iterdir()) == []
