"""Command-line surface: one verb per pipeline stage plus orchestration.

Subcommands: gen, corrupt, represent, select, train, eval, exp, bounds,
ablate, validate-theory.  Every flag mirrors a key in an optional JSON
config (``--config file.json``) named by the flag's dest (``--n-train`` is
``n_train``); explicit flags override file values, and a config value is
checked and converted as the same flag would be.  A value set in neither
place takes the default of the library config it feeds (``SyntheticSpec``,
``NoiseSpec``, ``CutstatsConfig``, ``MlpConfig``, ``ExperimentConfig``,
``WindowParams``).  Exit codes: 0 success, 1 runtime failure, 2 usage or
config error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import replace

from . import io
from .core import METHODS, REPRESENTATION_KINDS, subset_accuracy
from .cutstats import CutstatsConfig
from .datagen import GROUPS, NoiseSpec, SyntheticSpec, generate_synthetic, inject_label_noise
from .experiment import (ABLATION_KINDS, ExperimentConfig, _staged,
                         ablation_configs, run_ablation, run_bounds, run_experiment, select)
from .mlp import MlpConfig, evaluate, load_classifier, save_classifier, train_mlp
from .representation import compute_representation
from .theory import WINDOW_MODES, WindowParams, theory_checks


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


def _list_of(kind):
    """Parser of comma-separated ``kind`` values; int lists also take one ``LO:HI`` range.

    Its ValueError names the token it cannot read: a value, or a range not of two bounds.
    """
    noun = "integers" if kind is int else "numbers"

    def value(token):
        try:
            return kind(token)
        except ValueError:
            raise ValueError(f"points must be {noun}, got {token!r}") from None

    def parse(text):
        if kind is int and ":" in text:
            bounds = text.split(":")
            if len(bounds) != 2:
                raise ValueError(f"range must be LO:HI, got {text!r}")
            lo, hi = map(value, bounds)
            return tuple(range(lo, hi + 1))
        return tuple(map(value, text.split(",")))
    parse.__name__ = f"{kind.__name__} list"    # argparse names the type in its errors
    return parse


def _priors(text):
    return text if text == "empirical" else _list_of(float)(text)


def _config_values(verb_parser, path) -> dict:
    """The JSON config at ``path``, by dest, checked as ``verb_parser`` checks its flags."""
    try:
        with open(path) as f:
            cfg = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"bad config file: {exc}") from exc
    if not isinstance(cfg, dict):
        raise UsageError("config file must hold a JSON object")
    actions = {a.dest: a for a in verb_parser._actions if a.dest not in ("help", "config")}
    values = {}
    for key, value in cfg.items():
        action = actions.get(key)
        if action is None:
            raise UsageError(f"unknown config key {key!r} for {verb_parser.prog}")
        if value is None:
            continue
        if action.nargs == 0:                       # a switch such as --no-train
            if not isinstance(value, bool):
                raise UsageError(f"config key {key!r} must be true or false")
            values[key] = value
            continue
        texts = [str(v) for v in value] if isinstance(value, list) else [str(value)]
        if action.nargs is None:                    # one token: lists are comma-joined
            texts = [",".join(texts)]
        try:
            parsed = [action.type(t) if action.type else t for t in texts]
        except (ValueError, TypeError) as exc:
            raise UsageError(f"bad {key} {value!r}") from exc
        if action.choices is not None and not set(parsed) <= set(action.choices):
            raise UsageError(f"unknown {key} {value!r}")
        values[key] = parsed if action.nargs else parsed[0]
    return values


def _given(v, *same, **renamed) -> dict:
    """``{field: v[flag]}`` for each flag set in ``v``; names in ``same`` are both."""
    pairs = {**dict(zip(same, same)), **renamed}
    return {field: v[flag] for field, flag in pairs.items() if flag in v}


def _synthetic_spec(v) -> SyntheticSpec:
    return SyntheticSpec(**_given(v, "group", "d", "n_train", "n_test", "feature_range"))


def _cutstats_config(v) -> CutstatsConfig:
    return CutstatsConfig(**_given(v, "k", "tau", "priors"))


def _mlp_config(v) -> MlpConfig:
    return MlpConfig(**_given(v, "epochs", "batch_size",
                              hidden_units="hidden", learning_rate="lr"))


def _read_dataset(path, **kw):
    return _staged("load", io.read_dataset_csv, path, **kw)


def _class_count(v) -> dict:
    """``train --num-classes`` for the reader; below 2 it is a usage error, as in ``NoiseSpec``."""
    given = _given(v, "num_classes")
    if given.get("num_classes", 2) < 2:
        raise UsageError("need at least 2 classes")
    return given


# --------------------------------------------------------------------- gen


def _cmd_gen(v) -> int:
    if "group" not in v:
        raise UsageError("--group is required")
    train, test = generate_synthetic(_cfg(_synthetic_spec, v), **_given(v, "seed"))
    io.write_dataset_csv(train, v.get("out_train", "train.csv"))
    io.write_dataset_csv(test, v.get("out_test", "test.csv"))
    return 0


# ----------------------------------------------------------------- corrupt


def _cmd_corrupt(v) -> int:
    if not {"infile", "outfile", "p"} <= v.keys():
        raise UsageError("--in, --out and --p are required")
    noise = _cfg(NoiseSpec, **_given(v, "num_classes", flip_probability="p"))
    noisy = inject_label_noise(_read_dataset(v["infile"]), noise, **_given(v, "seed"))
    io.write_dataset_csv(noisy, v["outfile"])
    return 0


# --------------------------------------------------------------- represent


def _cmd_represent(v) -> int:
    if not {"infile", "outfile"} <= v.keys():
        raise UsageError("--in and --out are required")
    dataset = _read_dataset(v["infile"])
    rep = compute_representation(dataset, v.get("kind", ExperimentConfig.representation_kind))
    io.write_embedding_csv(dataset.ids, rep.representations, v["outfile"])
    return 0


# ------------------------------------------------------------------ select


def _cmd_select(v) -> int:
    if "infile" not in v:
        raise UsageError("--in is required")
    config = _cfg(_experiment_config, {**v, "train": v["infile"]})
    dataset = _read_dataset(v["infile"], **_given(v, "num_classes"))
    sel, _ = select(config, dataset, **_given(v, "seed"))

    if "out_scores" in v:
        io.write_selection_csv(sel, dataset.ids, v["out_scores"])
    io.write_subset(sel.selected, v.get("out_subset", "subset.txt"))
    if dataset.true_labels is not None:
        print(f"subset_accuracy={100.0 * subset_accuracy(sel, dataset):.2f}")
    return 0


# ------------------------------------------------------------------- train


def _cmd_train(v) -> int:
    if not {"infile", "out_model"} <= v.keys():
        raise UsageError("--in and --out are required")
    mlp = _cfg(_mlp_config, v)
    dataset = _read_dataset(v["infile"], **_class_count(v))
    if "subset" in v:
        dataset = dataset.restrict(_staged("load", io.read_subset, v["subset"]))
    model = train_mlp(dataset, mlp, **_given(v, "seed"))
    save_classifier(model, v["out_model"])
    return 0


# -------------------------------------------------------------------- eval


def _cmd_eval(v) -> int:
    if not {"model", "test"} <= v.keys():
        raise UsageError("--model and --test are required")
    model = _staged("load", load_classifier, v["model"])
    m = evaluate(model, _read_dataset(v["test"], num_classes=model.num_classes))
    print(f"accuracy={100.0 * m.classifier_accuracy:.2f}")
    print(f"balanced_error={100.0 * m.balanced_error:.2f}")
    if "out_csv" in v:
        io.write_csv(v["out_csv"], ["accuracy", "balanced_error"],
                     [[io.format_float(m.classifier_accuracy),
                       io.format_float(m.balanced_error)]])
    return 0


# --------------------------------------------------------------------- exp


def _experiment_config(v) -> ExperimentConfig:
    return ExperimentConfig(
        synthetic=_synthetic_spec(v) if "group" in v else None,
        noise=replace(ExperimentConfig.noise, **_given(v, "num_classes", flip_probability="p")),
        cutstats=_cutstats_config(v),
        mlp=_mlp_config(v),
        train_downstream=not v.get("no_train", False),
        **_given(v, "method", train_path="train", test_path="test",
                 representation_kind="kind", embedding_path="embedding", seeds="seed_list",
                 output_dir="out_dir", invariance_target="target_error"))


def _print_report(result) -> None:
    with open(result["txt_path"]) as f:
        sys.stdout.write(f.read())


def _cmd_exp(v) -> int:
    _print_report(run_experiment(_cfg(_experiment_config, v)))
    return 0


# ------------------------------------------------------------------ bounds


def _cmd_bounds(v) -> int:
    if not v.get("d_range"):
        raise UsageError("empty d_range")
    params = _cfg(WindowParams, **_given(v, "n", "nu", "rho", "delta", "omega", "p0",
                                          "kl1", "mode"))
    report = run_bounds(params, v["d_range"], **_given(v, output_dir="out_dir"))["report"]
    for d, log_l, log_u, ok in report.rows:
        print(f"d={d} logL={log_l:.6f} logU={log_u:.6f} {'feasible' if ok else 'infeasible'}")
    print(f"d0={report.d0 if report.d0 is not None else 'none'}")
    return 0


# ------------------------------------------------------------------ ablate


def _cmd_ablate(v) -> int:
    kind = v.get("ablation")
    if kind not in ABLATION_KINDS:
        raise UsageError(f"unknown ablation kind {kind!r}")
    if "grid" not in v:
        raise UsageError("empty ablation grid")
    grid = _grid(kind, v["grid"])
    config = _cfg(_experiment_config, v)
    _cfg(ablation_configs, kind, config, grid)      # a bad point is a usage error up front
    _print_report(run_ablation(kind, config, grid))
    return 0


def _grid(kind, text):
    """The ``--grid`` points of ``kind``: integers for the count sweeps, floats otherwise."""
    try:
        return _list_of(int if kind in ("dimension_sweep", "k_sweep") else float)(text)
    except ValueError as exc:
        raise UsageError(f"--grid: {kind} {exc}") from None


# --------------------------------------------------------- validate-theory


def _cmd_validate_theory(v) -> int:
    failures = 0
    for name, ok, detail in _cfg(theory_checks, **_given(v, "trials", "tuples", "seed")):
        print(f"{'PASS' if ok else 'FAIL'}: {name}" + (f" ({detail})" if detail else ""))
        failures += not ok
    return 0 if failures == 0 else 1


# ----------------------------------------------------------------- parser


def _add_mlp_flags(p):
    p.add_argument("--hidden", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--lr", type=float)


def _add_synthetic_flags(p):
    p.add_argument("--group", choices=GROUPS)
    p.add_argument("--d", type=int)
    p.add_argument("--n-train", type=int)
    p.add_argument("--n-test", type=int)
    p.add_argument("--range", dest="feature_range", nargs=2, type=float,
                   metavar=("LO", "HI"))


def _add_selector_flags(p):
    p.add_argument("--num-classes", type=int)
    p.add_argument("--kind", choices=REPRESENTATION_KINDS)
    p.add_argument("--embedding", help="embedding CSV (with --kind external)")
    p.add_argument("--method", choices=METHODS)
    p.add_argument("--k", type=int)
    p.add_argument("--tau", type=float)
    p.add_argument("--priors", type=_priors, help='"empirical" or comma floats')
    _add_mlp_flags(p)


def _add_exp_flags(p):
    _add_synthetic_flags(p)
    p.add_argument("--train", help="train dataset CSV (file source)")
    p.add_argument("--test", help="test dataset CSV (with --train)")
    p.add_argument("--p", type=float, help="label flip probability")
    _add_selector_flags(p)
    p.add_argument("--seed-list", type=_list_of(int), help="comma-separated seeds")
    p.add_argument("--out-dir")
    p.add_argument("--no-train", action="store_true")
    p.add_argument("--target-error", type=float)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="icut",
        description="Invariance-aware cutstats data curation and theory checks")
    sub = parser.add_subparsers(dest="command")

    def verb(name, help):
        # unset flags stay out of the namespace, so library defaults apply; no
        # abbreviations, or a removed --seed would silently mean --seed-list
        p = sub.add_parser(name, help=help, argument_default=argparse.SUPPRESS,
                           allow_abbrev=False)
        # no verb declares a numeric option, so any "-<digit>" token is a value:
        # argparse's own pattern misses the exponent form (--range -1e-3 1)
        p._negative_number_matcher = re.compile(r"^-\.?\d")
        p.add_argument("--config", help="JSON config; flags override its keys")
        return p

    p = verb("gen", "generate a synthetic dataset")
    p.add_argument("--seed", type=int)
    _add_synthetic_flags(p)
    p.add_argument("--out-train")
    p.add_argument("--out-test")

    p = verb("corrupt", "inject symmetric label noise")
    p.add_argument("--seed", type=int)
    p.add_argument("--in", dest="infile")
    p.add_argument("--out", dest="outfile")
    p.add_argument("--p", type=float)
    p.add_argument("--num-classes", type=int)

    p = verb("represent", "compute a representation CSV")
    p.add_argument("--in", dest="infile")
    p.add_argument("--out", dest="outfile")
    p.add_argument("--kind", choices=("identity", "l2norm", "sort"))

    p = verb("select", "select a training subset")
    p.add_argument("--seed", type=int)
    p.add_argument("--in", dest="infile")
    _add_selector_flags(p)
    p.add_argument("--out-scores")
    p.add_argument("--out-subset")

    p = verb("train", "train the downstream classifier")
    p.add_argument("--seed", type=int)
    p.add_argument("--in", dest="infile")
    p.add_argument("--subset", help="subset id file")
    p.add_argument("--num-classes", type=int)
    _add_mlp_flags(p)
    p.add_argument("--out", dest="out_model")

    p = verb("eval", "evaluate a saved classifier")
    p.add_argument("--model")
    p.add_argument("--test")
    p.add_argument("--out-csv")

    p = verb("exp", "end-to-end seeded experiment")
    _add_exp_flags(p)

    p = verb("bounds", "feasibility window over dimensions")
    p.add_argument("--n", type=int)
    p.add_argument("--nu", type=float)
    p.add_argument("--rho", type=float)
    p.add_argument("--delta", type=float)
    p.add_argument("--omega", type=float)
    p.add_argument("--p0", type=float)
    p.add_argument("--kl1", type=float)
    p.add_argument("--mode", choices=WINDOW_MODES)
    p.add_argument("--d-range", type=_list_of(int), help="comma list or LO:HI inclusive")
    p.add_argument("--out-dir")

    p = verb("ablate", "sweep one knob through the pipeline")
    p.add_argument("--ablation", choices=ABLATION_KINDS)
    p.add_argument("--grid", help="comma-separated grid points")
    _add_exp_flags(p)

    p = verb("validate-theory", "Monte Carlo theory checks")
    p.add_argument("--seed", type=int)
    p.add_argument("--trials", type=int)
    p.add_argument("--tuples", type=int)

    return parser


def _verb_parsers(parser) -> dict:
    return next(a.choices for a in parser._actions
                if isinstance(a, argparse._SubParsersAction))


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
    values = vars(parser.parse_args(argv))
    verb = values.pop("command")
    if verb is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        if "config" in values:
            # one mapping of the flags actually set: the config's, then the command line's
            config = _config_values(_verb_parsers(parser)[verb], values.pop("config"))
            values = {**config, **values}
        return HANDLERS[verb](values)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - a failed stage or any other runtime failure
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
