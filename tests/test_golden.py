"""Golden reports: pinned SHA-256 digests of report files for fixed configs.

A refactor that claims equal behaviour must leave these bytes unchanged.
The digests hold for the float arithmetic of one numpy/BLAS build; if a
toolchain change moves them, regenerate them from a commit known to be
correct, never from the change under test.  A change that alters a report
on purpose re-pins only that pair, checks its new values against an
in-test oracle, and records the before/after report diff in CHANGES.md.
"""

import hashlib
from pathlib import Path

import pytest

from icut import (CutstatsConfig, ExperimentConfig, MlpConfig, SyntheticSpec,
                  generate_synthetic, run_ablation, run_experiment)
from icut.io import write_dataset_csv, write_embedding_csv
from conftest import read_csv

SPEC = SyntheticSpec(group="orthogonal", d=6, n_train=400, n_test=100)


def _config(tmp_path, **overrides):
    base = dict(synthetic=SPEC, cutstats=CutstatsConfig(k=5, tau=0.4),
                mlp=MlpConfig(epochs=3, batch_size=64), seeds=(0, 1),
                output_dir=str(tmp_path))
    base.update(overrides)
    return ExperimentConfig(**base)


def _digests(result):
    return tuple(hashlib.sha256(Path(result[key]).read_bytes()).hexdigest()
                 for key in ("csv_path", "txt_path"))


EXPERIMENTS = {
    "cutstats": (
        "e38da78d44b6ced2c279f4bf33874845b2c31663a43bc0739abf3b06f9d7c0e3",
        "a5e99f62c8135d5e5f85fd45c2344fb45a081f7e3e36fc5d7768a2c6f115add6"),
    "random": (
        "5f3526c9f336e94c9c0be0a402cd56a428a9fcaf8f6df59c14577ddb38778784",
        "3c2f3f6efd6f68e7a261fb31e6198409fb1582d20b3515f83133f05925c7d11f"),
    "entropy": (
        "2624ad66d5e50ce5b2accdf8fad7df92538cf6aaf5f024f7f0d4f45c036b162d",
        "6bccf7e210399dd6de1ed02a3bd7ff39ca5c0b5e4bd8740571f49e3e1fafa80b"),
    "forget": (
        "388e23a575efc8013dc0541edd797fdd8db562b726dfa29acc3dcf4ce44c0cba",
        "e0cc23f28476f73ca21ddc5293435ad29cf833cf43392c9761be5f6a63da430e"),
    "herding": (
        "a7e5e42b23069265a4facb496691a2bdd91d6ba51a55e0bc39a072cb0d9a135d",
        "a5211914fd7788910c286da10fd7d0d7d279734f50cb4a8a8ad87e4a021f586b"),
    "full": (
        "e8f66de531bcdb8c74fd1cd9ffcb477390a2c819af8e1f2014d22655ea66bb0f",
        "a6e3b1b57f10cdec406080ecef82c011ce007aa408643b10f1efb07ff7ad30c9"),
}


@pytest.mark.parametrize("method", sorted(EXPERIMENTS))
def test_experiment_report_bytes_are_pinned(tmp_path, method):
    assert _digests(run_experiment(_config(tmp_path, method=method))) == EXPERIMENTS[method]


# name -> (kind, grid, config overrides, digests)
ABLATIONS = {
    "k_sweep": ("k_sweep", (3, 8), {"seeds": (0,)}, (
        "bb2e6073e0e9eda5fbc5b6f8a524258c6c2e65f3b108b50fa98a75b2633eddea",
        "fd54ea985bfce19b4db82ad7c7f14e373fc47a29cbe235cb7e6ce6efbeeb6185")),
    # two seeds and a descending grid: rows stay in grid order
    "k_sweep_descending": ("k_sweep", (8, 3), {}, (
        "f3ef5cb2415dc2287560f2becde0610ca8b9d3b7fc46fe577c8895b59e147570",
        "6c95ce5c3965708c4d8be81dacd255b52e945b24e3f5ed6da3e2eb29faecf59a")),
    "tau_sweep": ("tau_sweep", (0.25, 0.6), {"seeds": (0,)}, (
        "e1e41a98cf20990fb47587eea664d86a5a600d23fc4296b65e25974400f2ad83",
        "cc1b878efd4af747d7760a9afa3107ab0d22b2452c90e61f51bfd0793ca59e43")),
    # the entropy scorer MLP serves every tau of a seed
    "tau_sweep_entropy": ("tau_sweep", (0.25, 0.6), {"method": "entropy"}, (
        "d09153865465eaec64477ae651f333a14fd598e593a66cf343416e3ba22668c3",
        "18aef41396564696515ca6ac1c0a815cbcfad127c62d1b9047fed4936cf61bad")),
    "invariance_error": ("invariance_error", (0.0, 0.2), {}, (
        "154896620580defc8dbade4ac79474968649c84c3ac1647bcc661284b482fad5",
        "862f2da9db335c5aac12953ffc14a2ae4f4b9cf5f0400741994fde93ed40a466")),
}


@pytest.mark.parametrize("name", sorted(ABLATIONS))
def test_ablation_report_bytes_are_pinned(tmp_path, name):
    kind, grid, overrides, expected = ABLATIONS[name]
    assert _digests(run_ablation(kind, _config(tmp_path, **overrides), grid)) == expected


def test_invariance_error_report_realizes_its_targets(tmp_path):
    # The closed-form calibration hits each target up to rounding, so the
    # seed-mean realized column of the pinned report equals the grid.
    kind, grid, overrides, _ = ABLATIONS["invariance_error"]
    result = run_ablation(kind, _config(tmp_path, **overrides), grid)
    header, rows = read_csv(result["csv_path"])
    realized = [float(row[header.index("realized")]) for row in rows]
    assert realized == pytest.approx(grid, rel=1e-12, abs=0.0)


# File sources: one generated data set written as train and test CSVs, and
# an embedding CSV of its training rows.  Their seed-free stages (load,
# represent, table) feed every seed of a call.
@pytest.fixture
def files(tmp_path):
    train, test = generate_synthetic(SPEC, 7)
    paths = {name: str(tmp_path / f"{name}.csv") for name in ("train", "test", "embedding")}
    write_dataset_csv(train, paths["train"])
    write_dataset_csv(test, paths["test"])
    write_embedding_csv(train.ids, 2.0 * train.features[:, :4] + 1.0, paths["embedding"])
    return paths


def _file_config(tmp_path, files, **overrides):
    return _config(tmp_path, synthetic=None, train_path=files["train"], **overrides)


def test_file_source_experiment_report_bytes_are_pinned(tmp_path, files):
    config = _file_config(tmp_path, files, test_path=files["test"],
                          representation_kind="identity")
    assert _digests(run_experiment(config)) == (
        "76a2f4f93d2a334d4622c72b874a79800cc20cd957fe5c21e56d6cdec592bac3",
        "1f51c71e8452f110c6eb258631b3bf489b54e0a174425bf90ad0e8ee6af117f3")


def test_external_experiment_report_bytes_are_pinned(tmp_path, files):
    config = _file_config(tmp_path, files, representation_kind="external",
                          embedding_path=files["embedding"], seeds=(0, 1, 2))
    assert _digests(run_experiment(config)) == (
        "929048f6cd107a34a566b58cf22c562af9a15a6d6f95284cfa48f085d1205b58",
        "8c009a455fdc5f6c7698ba1e8d21760d3dae25b7955d36c38da5b0e057923d06")


def test_external_k_sweep_report_bytes_are_pinned(tmp_path, files):
    config = _file_config(tmp_path, files, representation_kind="external",
                          embedding_path=files["embedding"])
    assert _digests(run_ablation("k_sweep", config, (3, 8))) == (
        "a7799a5084c3b9d666454aafc600742cc872ca9497adfd82863883414da0069f",
        "61580f0ea931e2b06ebc690b23e445ba251be962ab3fa5c5fd7622e3eb72363e")


def test_file_source_invariance_error_report_bytes_are_pinned(tmp_path, files):
    config = _file_config(tmp_path, files, test_path=files["test"])
    assert _digests(run_ablation("invariance_error", config, (0.0, 0.2))) == (
        "bf4c9eab1f50be3a1a8c7a41dbe7449ee3873c1d0e78d23b5d11ac18c882e0a5",
        "5eedf3367053df43ecc37b839c531696c710ba7d5ff123104ffb26394472d949")
