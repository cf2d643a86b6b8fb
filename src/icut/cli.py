"""Command-line surface: one verb per pipeline stage plus orchestration.

Subcommands: gen, corrupt, represent, select, train, eval, exp, bounds,
ablate, validate-theory.  Every flag mirrors a key in an optional JSON
config (``--config file.json``); explicit flags override file values.
Exit codes: 0 success, 1 runtime failure, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import io
from .core import METHODS, REPRESENTATION_KINDS, subset_accuracy
from .cutstats import CutstatsConfig
from .datagen import GROUPS, NoiseSpec, SyntheticSpec, generate_synthetic, inject_label_noise
from .experiment import (ABLATION_KINDS, ExperimentConfig, StageError,
                         run_ablation, run_bounds, run_experiment, select)
from .mlp import MlpConfig, evaluate, load_classifier, save_classifier, train_mlp
from .representation import compute_representation
from .theory import (WINDOW_MODES, WindowParams, check_corollary,
                     check_sorted_density, validate_prop1_monte_carlo)


class UsageError(ValueError):
    pass


def _cfg(fn, *args, **kw):
    """Run a construction/validation step; bad values are usage errors."""
    try:
        return fn(*args, **kw)
    except UsageError:
        raise
    except (ValueError, TypeError) as exc:
        raise UsageError(str(exc)) from exc


def _merged(args, keys):
    """Flag values override JSON config values; unset keys come out None."""
    cfg = {}
    if getattr(args, "config", None):
        try:
            with open(args.config) as f:
                cfg = json.load(f)
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"bad config file: {exc}") from exc
        if not isinstance(cfg, dict):
            raise UsageError("config file must hold a JSON object")
    out = {}
    for k in keys:
        v = getattr(args, k, None)
        out[k] = v if v is not None else cfg.get(k)
    return out


def _seed_list(value) -> tuple:
    if value is None:
        return (0, 1, 2)
    if isinstance(value, (list, tuple)):
        return tuple(int(v) for v in value)
    try:
        return tuple(int(v) for v in str(value).split(","))
    except ValueError as exc:
        raise UsageError(f"bad seed list {value!r}") from exc


def _priors(value):
    if value is None or value == "empirical":
        return "empirical"
    if isinstance(value, (list, tuple)):
        return tuple(float(v) for v in value)
    try:
        return tuple(float(v) for v in str(value).split(","))
    except ValueError as exc:
        raise UsageError(f"bad priors {value!r}") from exc


def _int_list(value, what):
    if value is None:
        return []
    if isinstance(value, (list, tuple)):
        return [int(v) for v in value]
    text = str(value)
    try:
        if ":" in text:
            lo, hi = text.split(":")
            return list(range(int(lo), int(hi) + 1))
        return [int(v) for v in text.split(",")]
    except ValueError as exc:
        raise UsageError(f"bad {what} {value!r}") from exc


def _float_list(value, what):
    if value is None:
        return []
    if isinstance(value, (list, tuple)):
        return [float(v) for v in value]
    try:
        return [float(v) for v in str(value).split(",")]
    except ValueError as exc:
        raise UsageError(f"bad {what} {value!r}") from exc


def _cutstats_config(v) -> CutstatsConfig:
    return _cfg(CutstatsConfig, k=int(v["k"] or 20), tau=float(v["tau"] or 0.4),
                priors=_priors(v["priors"]))


def _mlp_config(v, **kw) -> MlpConfig:
    return _cfg(MlpConfig, hidden_units=int(v["hidden"] or 32),
                epochs=int(v["epochs"] or 20), batch_size=int(v["batch_size"] or 1024),
                learning_rate=float(v["lr"] or 1e-2), **kw)


def _write_guard(path, write_fn):
    """Remove a half-written file if emission fails."""
    try:
        write_fn(path)
    except BaseException:
        if os.path.exists(path):
            os.unlink(path)
        raise
    return path


def _out_path(directory, name):
    if directory:
        os.makedirs(directory, exist_ok=True)
        return os.path.join(directory, name)
    return name


# --------------------------------------------------------------------- gen


def _cmd_gen(args) -> int:
    v = _merged(args, ["group", "d", "n_train", "n_test", "feature_range",
                       "seed", "out_train", "out_test"])
    if v["group"] is None:
        raise UsageError("--group is required")
    spec = _cfg(SyntheticSpec,
                group=v["group"],
                d=int(v["d"]) if v["d"] is not None else 0,
                n_train=int(v["n_train"]) if v["n_train"] is not None else 20000,
                n_test=int(v["n_test"]) if v["n_test"] is not None else 5000,
                feature_range=(tuple(float(x) for x in v["feature_range"])
                               if v["feature_range"] is not None else None),
                seed=int(v["seed"] or 0))
    train, test = generate_synthetic(spec)
    _write_guard(v["out_train"] or "train.csv", lambda p: io.write_dataset_csv(train, p))
    _write_guard(v["out_test"] or "test.csv", lambda p: io.write_dataset_csv(test, p))
    return 0


# ----------------------------------------------------------------- corrupt


def _cmd_corrupt(args) -> int:
    v = _merged(args, ["infile", "outfile", "p", "num_classes", "seed"])
    if v["infile"] is None or v["outfile"] is None or v["p"] is None:
        raise UsageError("--in, --out and --p are required")
    noise = _cfg(NoiseSpec, flip_probability=float(v["p"]),
                 num_classes=int(v["num_classes"] or 2), seed=int(v["seed"] or 0))
    dataset = io.read_dataset_csv(v["infile"])
    noisy = inject_label_noise(dataset, noise)
    _write_guard(v["outfile"], lambda p: io.write_dataset_csv(noisy, p))
    return 0


# --------------------------------------------------------------- represent


def _cmd_represent(args) -> int:
    v = _merged(args, ["infile", "outfile", "kind"])
    if v["infile"] is None or v["outfile"] is None:
        raise UsageError("--in and --out are required")
    kind = v["kind"] or "l2norm"
    if kind not in ("identity", "l2norm", "sort"):
        raise UsageError(f"cannot compute representation kind {kind!r}")
    dataset = io.read_dataset_csv(v["infile"])
    rep = compute_representation(dataset, kind)
    _write_guard(v["outfile"],
                 lambda p: io.write_embedding_csv(dataset.ids, rep.representations, p))
    return 0


# ------------------------------------------------------------------ select


def _cmd_select(args) -> int:
    v = _merged(args, ["infile", "method", "kind", "embedding", "k", "tau",
                       "priors", "num_classes", "seed", "hidden", "epochs",
                       "batch_size", "lr", "out_scores", "out_subset"])
    if v["infile"] is None:
        raise UsageError("--in is required")
    seed = int(v["seed"] or 0)
    config = _cfg(ExperimentConfig, train_path=v["infile"],
                  representation_kind=v["kind"] or "l2norm", embedding_path=v["embedding"],
                  method=v["method"] or "cutstats", cutstats=_cutstats_config(v),
                  mlp=_mlp_config(v), seeds=(seed,))
    dataset = io.read_dataset_csv(
        v["infile"], num_classes=int(v["num_classes"]) if v["num_classes"] else None)
    sel, _ = select(config, seed, dataset)

    if v["out_scores"]:
        _write_guard(v["out_scores"], lambda p: io.write_selection_csv(sel, dataset.ids, p))
    _write_guard(v["out_subset"] or "subset.txt", lambda p: io.write_subset(sel.selected, p))
    if dataset.true_labels is not None:
        print(f"subset_accuracy={100.0 * subset_accuracy(sel, dataset):.2f}")
    return 0


# ------------------------------------------------------------------- train


def _cmd_train(args) -> int:
    v = _merged(args, ["infile", "subset", "hidden", "epochs", "batch_size",
                       "lr", "num_classes", "seed", "out_model"])
    if v["infile"] is None or v["out_model"] is None:
        raise UsageError("--in and --out are required")
    dataset = io.read_dataset_csv(
        v["infile"], num_classes=int(v["num_classes"]) if v["num_classes"] else None)
    if v["subset"]:
        dataset = dataset.restrict(io.read_subset(v["subset"]))
    model = train_mlp(dataset, _mlp_config(v, num_classes=dataset.num_classes,
                                           seed=int(v["seed"] or 0)))
    _write_guard(v["out_model"], lambda p: save_classifier(model, p))
    return 0


# -------------------------------------------------------------------- eval


def _cmd_eval(args) -> int:
    v = _merged(args, ["model", "test", "out_csv"])
    if v["model"] is None or v["test"] is None:
        raise UsageError("--model and --test are required")
    model = load_classifier(v["model"])
    test = io.read_dataset_csv(v["test"], num_classes=model.num_classes)
    m = evaluate(model, test)
    print(f"accuracy={100.0 * m.classifier_accuracy:.2f}")
    print(f"balanced_error={100.0 * m.balanced_error:.2f}")
    if v["out_csv"]:
        _write_guard(v["out_csv"], lambda p: io.write_csv(
            p, ["accuracy", "balanced_error"],
            [[io.format_float(m.classifier_accuracy), io.format_float(m.balanced_error)]]))
    return 0


# --------------------------------------------------------------------- exp


def _experiment_config(args) -> ExperimentConfig:
    v = _merged(args, ["group", "d", "n_train", "n_test", "feature_range", "train",
                       "test", "p", "num_classes", "kind", "embedding", "method",
                       "k", "tau", "priors", "hidden", "epochs", "batch_size", "lr",
                       "seed_list", "out_dir", "no_train", "target_error"])
    synthetic = None
    if v["group"] is not None:
        synthetic = _cfg(SyntheticSpec, group=v["group"],
                         d=int(v["d"]) if v["d"] is not None else 0,
                         n_train=int(v["n_train"] or 20000),
                         n_test=int(v["n_test"] or 5000),
                         feature_range=(tuple(float(x) for x in v["feature_range"])
                                        if v["feature_range"] is not None else None))
    noise = _cfg(NoiseSpec, flip_probability=float(v["p"] if v["p"] is not None else 0.45),
                 num_classes=int(v["num_classes"] or 2))
    cut = _cutstats_config(v)
    mlp = _mlp_config(v, num_classes=int(v["num_classes"] or 2))
    return _cfg(ExperimentConfig,
                synthetic=synthetic,
                train_path=v["train"], test_path=v["test"],
                noise=noise,
                representation_kind=v["kind"] or "l2norm",
                embedding_path=v["embedding"],
                method=v["method"] or "cutstats",
                cutstats=cut, mlp=mlp,
                seeds=_seed_list(v["seed_list"]),
                output_dir=v["out_dir"] or ".",
                train_downstream=not v["no_train"],
                invariance_target=(float(v["target_error"])
                                   if v["target_error"] is not None else None))


def _cmd_exp(args) -> int:
    config = _experiment_config(args)
    result = run_experiment(config)
    with open(result["txt_path"]) as f:
        sys.stdout.write(f.read())
    return 0


# ------------------------------------------------------------------ bounds


def _cmd_bounds(args) -> int:
    v = _merged(args, ["n", "nu", "rho", "delta", "omega", "p0", "kl1",
                       "beta", "mode", "d_range", "out_dir"])
    mode = v["mode"] or "plain"
    if mode not in WINDOW_MODES:
        raise UsageError(f"unknown window mode {mode!r}")
    d_range = _int_list(v["d_range"], "d range")
    if not d_range:
        raise UsageError("empty d_range")
    params = _cfg(WindowParams, n=int(v["n"] or 10**6),
                  nu=float(v["nu"] if v["nu"] is not None else 0.05),
                  rho=float(v["rho"] if v["rho"] is not None else 1.0),
                  delta=float(v["delta"] if v["delta"] is not None else 0.1),
                  omega=float(v["omega"] if v["omega"] is not None else 1.0),
                  p0=float(v["p0"] if v["p0"] is not None else 1.0),
                  kl1=float(v["kl1"] if v["kl1"] is not None else 1.0),
                  mode=mode,
                  beta=float(v["beta"] if v["beta"] is not None else 1.0))
    result = run_bounds(params, d_range, output_dir=v["out_dir"] or ".")
    report = result["report"]
    for d, log_l, log_u, ok in report.rows:
        print(f"d={d} logL={log_l:.6f} logU={log_u:.6f} {'feasible' if ok else 'infeasible'}")
    print(f"d0={report.d0 if report.d0 is not None else 'none'}")
    return 0


# ------------------------------------------------------------------ ablate


def _cmd_ablate(args) -> int:
    v = _merged(args, ["ablation", "grid"])
    kind = v["ablation"]
    if kind not in ABLATION_KINDS:
        raise UsageError(f"unknown ablation kind {kind!r}")
    if kind in ("dimension_sweep", "k_sweep"):
        grid = _int_list(v["grid"], "grid")
    else:
        grid = _float_list(v["grid"], "grid")
    if not grid:
        raise UsageError("empty ablation grid")
    config = _experiment_config(args)
    result = run_ablation(kind, config, grid)
    with open(result["txt_path"]) as f:
        sys.stdout.write(f.read())
    return 0


# --------------------------------------------------------- validate-theory


def _cmd_validate_theory(args) -> int:
    v = _merged(args, ["trials", "tuples", "seed"])
    trials = int(v["trials"] or 10**6)
    n_tuples = int(v["tuples"] or 20)
    seed = int(v["seed"] or 0)
    failures = 0

    def check(name: str, ok: bool, detail: str = "") -> None:
        nonlocal failures
        line = f"{'PASS' if ok else 'FAIL'}: {name}"
        if detail:
            line += f" ({detail})"
        print(line)
        if not ok:
            failures += 1

    report = validate_prop1_monte_carlo(0.45, 0.45, 0.74, 0.74, trials=trials, seed=seed)
    check("propagation worked point 0.45/0.45/0.74/0.74", report.within(3.0),
          f"predicted {report.alpha_s_pred:.4f} empirical {report.alpha_s_emp:.4f}")
    rng = np.random.default_rng(np.random.SeedSequence([seed & (2**63 - 1), 41]))
    ok_all = True
    for i in range(n_tuples):
        alpha, gamma = rng.uniform(0.05, 0.45, size=2)
        lam0 = rng.uniform(0.55, 0.95)
        lam1 = rng.uniform(max(0.55, 1.0 - lam0), 0.95)
        rep = validate_prop1_monte_carlo(alpha, gamma, lam0, lam1,
                                         trials=trials, seed=seed + i + 1)
        if not rep.within(3.0):
            ok_all = False
    check(f"propagation on {n_tuples} random tuples", ok_all)
    boundary = check_corollary(0.3, 0.2, 0.6, 0.4)
    check("corollary boundary lambda0+lambda1=1",
          boundary.precondition_met and abs(boundary.alpha_margin) <= 1e-9)
    grid_ok = True
    for lam0 in (0.5, 0.7, 0.9):
        for lam1 in (1.0 - lam0 + 0.05, 0.95):
            for alpha in (0.1, 0.3, 0.45):
                rep = check_corollary(alpha, alpha, lam0, lam1)
                grid_ok = grid_ok and rep.holds
    check("corollary improvement when lambda0+lambda1>=1", grid_ok)
    for d in (2, 3):
        rep = check_sorted_density(d, trials=max(trials, 10**5), seed=seed)
        check(f"sorted density factor {rep.factor:.0f} at d={d}", rep.all_passed,
              f"max |z| {rep.max_abs_z:.2f} over {rep.cells_tested} cells")
    return 0 if failures == 0 else 1


# ----------------------------------------------------------------- parser


def _add_common(p):
    p.add_argument("--config", help="JSON config; flags override its keys")
    p.add_argument("--seed", type=int, default=None)


def _add_mlp_flags(p):
    p.add_argument("--hidden", type=int, default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--batch-size", dest="batch_size", type=int, default=None)
    p.add_argument("--lr", type=float, default=None)


def _add_exp_flags(p):
    p.add_argument("--group", choices=GROUPS, default=None)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--n-train", dest="n_train", type=int, default=None)
    p.add_argument("--n-test", dest="n_test", type=int, default=None)
    p.add_argument("--range", dest="feature_range", nargs=2, type=float, default=None,
                   metavar=("LO", "HI"))
    p.add_argument("--train", default=None, help="train dataset CSV (file source)")
    p.add_argument("--test", default=None, help="test dataset CSV")
    p.add_argument("--p", type=float, default=None, help="label flip probability")
    p.add_argument("--num-classes", dest="num_classes", type=int, default=None)
    p.add_argument("--kind", choices=REPRESENTATION_KINDS, default=None)
    p.add_argument("--embedding", default=None)
    p.add_argument("--method", choices=METHODS, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--tau", type=float, default=None)
    p.add_argument("--priors", default=None, help='"empirical" or comma floats')
    _add_mlp_flags(p)
    p.add_argument("--seed-list", dest="seed_list", default=None,
                   help="comma-separated seeds")
    p.add_argument("--out-dir", dest="out_dir", default=None)
    p.add_argument("--no-train", dest="no_train", action="store_true", default=False)
    p.add_argument("--target-error", dest="target_error", type=float, default=None)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="icut",
        description="Invariance-aware cutstats data curation and theory checks")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("gen", help="generate a synthetic dataset")
    _add_common(p)
    p.add_argument("--group", choices=GROUPS, default=None)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--n-train", dest="n_train", type=int, default=None)
    p.add_argument("--n-test", dest="n_test", type=int, default=None)
    p.add_argument("--range", dest="feature_range", nargs=2, type=float, default=None,
                   metavar=("LO", "HI"))
    p.add_argument("--out-train", dest="out_train", default=None)
    p.add_argument("--out-test", dest="out_test", default=None)

    p = sub.add_parser("corrupt", help="inject symmetric label noise")
    _add_common(p)
    p.add_argument("--in", dest="infile", default=None)
    p.add_argument("--out", dest="outfile", default=None)
    p.add_argument("--p", type=float, default=None)
    p.add_argument("--num-classes", dest="num_classes", type=int, default=None)

    p = sub.add_parser("represent", help="compute a representation CSV")
    _add_common(p)
    p.add_argument("--in", dest="infile", default=None)
    p.add_argument("--out", dest="outfile", default=None)
    p.add_argument("--kind", choices=("identity", "l2norm", "sort"), default=None)

    p = sub.add_parser("select", help="select a training subset")
    _add_common(p)
    p.add_argument("--in", dest="infile", default=None)
    p.add_argument("--method", choices=METHODS, default=None)
    p.add_argument("--kind", choices=REPRESENTATION_KINDS, default=None)
    p.add_argument("--embedding", default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--tau", type=float, default=None)
    p.add_argument("--priors", default=None)
    p.add_argument("--num-classes", dest="num_classes", type=int, default=None)
    _add_mlp_flags(p)
    p.add_argument("--out-scores", dest="out_scores", default=None)
    p.add_argument("--out-subset", dest="out_subset", default=None)

    p = sub.add_parser("train", help="train the downstream classifier")
    _add_common(p)
    p.add_argument("--in", dest="infile", default=None)
    p.add_argument("--subset", default=None, help="subset id file")
    p.add_argument("--num-classes", dest="num_classes", type=int, default=None)
    _add_mlp_flags(p)
    p.add_argument("--out", dest="out_model", default=None)

    p = sub.add_parser("eval", help="evaluate a saved classifier")
    _add_common(p)
    p.add_argument("--model", default=None)
    p.add_argument("--test", default=None)
    p.add_argument("--out-csv", dest="out_csv", default=None)

    p = sub.add_parser("exp", help="end-to-end seeded experiment")
    _add_common(p)
    _add_exp_flags(p)

    p = sub.add_parser("bounds", help="feasibility window over dimensions")
    _add_common(p)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--nu", type=float, default=None)
    p.add_argument("--rho", type=float, default=None)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--omega", type=float, default=None)
    p.add_argument("--p0", type=float, default=None)
    p.add_argument("--kl1", type=float, default=None)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--mode", choices=WINDOW_MODES, default=None)
    p.add_argument("--d-range", dest="d_range", default=None,
                   help="comma list or LO:HI inclusive")
    p.add_argument("--out-dir", dest="out_dir", default=None)

    p = sub.add_parser("ablate", help="sweep one knob through the pipeline")
    _add_common(p)
    p.add_argument("--ablation", choices=ABLATION_KINDS, default=None)
    p.add_argument("--grid", default=None, help="comma-separated grid points")
    _add_exp_flags(p)

    p = sub.add_parser("validate-theory", help="Monte Carlo theory checks")
    _add_common(p)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--tuples", type=int, default=None)

    return parser


HANDLERS = {
    "gen": _cmd_gen,
    "corrupt": _cmd_corrupt,
    "represent": _cmd_represent,
    "select": _cmd_select,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "exp": _cmd_exp,
    "bounds": _cmd_bounds,
    "ablate": _cmd_ablate,
    "validate-theory": _cmd_validate_theory,
}


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        return HANDLERS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - anything else is a runtime failure
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
