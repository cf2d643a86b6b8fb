"""Command-line surface: one verb per pipeline stage plus orchestration.

Subcommands: gen, corrupt, represent, select, train, eval, exp, bounds,
ablate, validate-theory.  Two tables declare them: ``FLAGS`` holds each
flag once, as its option string and argparse keywords, and ``VERBS``
gives each verb its help, its flags in order, its required flags and its
handler.  A flag's dest in ``FLAGS`` is also its key in an optional JSON
config (``--config file.json``; ``--n-train`` is ``n_train``); explicit
flags override file values, a config value is checked and converted as
the same flag would be, and the required flags are checked once, after
the merge.  A value set in neither place takes the default of the
library config it feeds (``SyntheticSpec``, ``NoiseSpec``,
``CutstatsConfig``, ``MlpConfig``, ``ExperimentConfig``, ``WindowParams``).
Exit codes: 0 success, 1 runtime failure, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import replace
from typing import Callable, NamedTuple

from . import io
from .core import METHODS, REPRESENTATION_KINDS, subset_accuracy
from .cutstats import CutstatsConfig
from .datagen import GROUPS, NoiseSpec, SyntheticSpec, generate_synthetic, inject_label_noise
from .experiment import (ABLATION_KINDS, ExperimentConfig, _staged,
                         ablation_configs, run_ablation, run_bounds, run_experiment, select)
from .mlp import MlpConfig, evaluate, load_classifier, save_classifier, train_mlp
from .representation import compute_representation
from .theory import WINDOW_MODES, WindowParams, feasibility_window, theory_checks


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


def _config_values(verb, path) -> dict:
    """The JSON config at ``path``, by dest, checked as ``verb``'s flags are."""
    try:
        with open(path) as f:
            cfg = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"bad config file: {exc}") from exc
    if not isinstance(cfg, dict):
        raise UsageError("config file must hold a JSON object")
    flags = _flags(verb)
    values = {}
    for key, value in cfg.items():
        if key not in flags:
            raise UsageError(f"unknown config key {key!r} for icut {verb}")
        if value is None:
            continue
        kw = flags[key][1]
        if kw.get("action") == "store_true":        # a switch such as --no-train
            if not isinstance(value, bool):
                raise UsageError(f"config key {key!r} must be true or false")
            values[key] = value
            continue
        texts = [str(v) for v in value] if isinstance(value, list) else [str(value)]
        nargs = kw.get("nargs")
        if nargs is None:                           # one token: lists are comma-joined
            texts = [",".join(texts)]
        elif len(texts) != nargs:
            raise UsageError(f"config key {key!r} takes {nargs} values")
        try:
            parsed = list(map(kw.get("type", str), texts))
        except (ValueError, TypeError) as exc:
            raise UsageError(f"bad {key} {value!r}") from exc
        if "choices" in kw and not set(parsed) <= set(kw["choices"]):
            raise UsageError(f"unknown {key} {value!r}")
        values[key] = parsed if nargs else parsed[0]
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
    train, test = generate_synthetic(_cfg(_synthetic_spec, v), **_given(v, "seed"))
    io.write_dataset_csv(train, v.get("out_train", "train.csv"))
    io.write_dataset_csv(test, v.get("out_test", "test.csv"))
    return 0


# ----------------------------------------------------------------- corrupt


def _cmd_corrupt(v) -> int:
    noise = _cfg(NoiseSpec, **_given(v, "num_classes", flip_probability="p"))
    noisy = inject_label_noise(_read_dataset(v["infile"]), noise, **_given(v, "seed"))
    io.write_dataset_csv(noisy, v["outfile"])
    return 0


# --------------------------------------------------------------- represent


def _cmd_represent(v) -> int:
    dataset = _read_dataset(v["infile"])
    rep = compute_representation(dataset, v.get("kind", ExperimentConfig.representation_kind))
    io.write_embedding_csv(dataset.ids, rep.representations, v["outfile"])
    return 0


# ------------------------------------------------------------------ select


def _cmd_select(v) -> int:
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
    mlp = _cfg(_mlp_config, v)
    dataset = _read_dataset(v["infile"], **_class_count(v))
    if "subset" in v:
        dataset = dataset.restrict(_staged("load", io.read_subset, v["subset"]))
    model = train_mlp(dataset, mlp, **_given(v, "seed"))
    save_classifier(model, v["out_model"])
    return 0


# -------------------------------------------------------------------- eval


def _cmd_eval(v) -> int:
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
    params = _cfg(WindowParams, **_given(v, "n", "nu", "rho", "delta", "omega", "p0",
                                          "kl1", "mode"))
    d_range = v.get("d_range", ())
    _cfg(feasibility_window, params, d_range)       # a bad range is a usage error up front
    report = run_bounds(params, d_range, **_given(v, output_dir="out_dir"))["report"]
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


# One entry per flag: its dest, which is also its config key, and its option
# string and argparse keywords.
FLAGS = {
    "seed": ("--seed", dict(type=int)),
    "infile": ("--in", {}),
    "outfile": ("--out", {}),
    "group": ("--group", dict(choices=GROUPS)),
    "d": ("--d", dict(type=int)),
    "n_train": ("--n-train", dict(type=int)),
    "n_test": ("--n-test", dict(type=int)),
    "feature_range": ("--range", dict(nargs=2, type=float, metavar=("LO", "HI"))),
    "out_train": ("--out-train", {}),
    "out_test": ("--out-test", {}),
    "p": ("--p", dict(type=float)),
    "num_classes": ("--num-classes", dict(type=int)),
    "kind": ("--kind", dict(choices=REPRESENTATION_KINDS)),
    "embedding": ("--embedding", dict(help="embedding CSV (with --kind external)")),
    "method": ("--method", dict(choices=METHODS)),
    "k": ("--k", dict(type=int)),
    "tau": ("--tau", dict(type=float)),
    "priors": ("--priors", dict(type=_priors, help='"empirical" or comma floats')),
    "hidden": ("--hidden", dict(type=int)),
    "epochs": ("--epochs", dict(type=int)),
    "batch_size": ("--batch-size", dict(type=int)),
    "lr": ("--lr", dict(type=float)),
    "out_scores": ("--out-scores", {}),
    "out_subset": ("--out-subset", {}),
    "subset": ("--subset", dict(help="subset id file")),
    "model": ("--model", {}),
    "test": ("--test", {}),
    "out_csv": ("--out-csv", {}),
    "train": ("--train", dict(help="train dataset CSV (file source)")),
    "seed_list": ("--seed-list", dict(type=_list_of(int), help="comma-separated seeds")),
    "out_dir": ("--out-dir", {}),
    "no_train": ("--no-train", dict(action="store_true")),
    "target_error": ("--target-error", dict(type=float)),
    "n": ("--n", dict(type=int)),
    "nu": ("--nu", dict(type=float)),
    "rho": ("--rho", dict(type=float)),
    "delta": ("--delta", dict(type=float)),
    "omega": ("--omega", dict(type=float)),
    "p0": ("--p0", dict(type=float)),
    "kl1": ("--kl1", dict(type=float)),
    "mode": ("--mode", dict(choices=WINDOW_MODES)),
    "d_range": ("--d-range", dict(type=_list_of(int), help="comma list or LO:HI inclusive")),
    "ablation": ("--ablation", dict(choices=ABLATION_KINDS)),
    "grid": ("--grid", dict(help="comma-separated grid points")),
    "trials": ("--trials", dict(type=int)),
    "tuples": ("--tuples", dict(type=int)),
}


class Verb(NamedTuple):
    help: str
    flags: tuple        # FLAGS keys in order; a (key, keywords) pair overrides some keywords
    required: tuple     # dests the handler cannot run without
    handler: Callable[[dict], int]


_MLP = ("hidden", "epochs", "batch_size", "lr")
_SYNTHETIC = ("group", "d", "n_train", "n_test", "feature_range")
_SELECTOR = ("num_classes", "kind", "embedding", "method", "k", "tau", "priors", *_MLP)
_EXP = (*_SYNTHETIC, "train", ("test", dict(help="test dataset CSV (with --train)")),
        ("p", dict(help="label flip probability")), *_SELECTOR,
        "seed_list", "out_dir", "no_train", "target_error")

VERBS = {
    "gen": Verb("generate a synthetic dataset",
                ("seed", *_SYNTHETIC, "out_train", "out_test"), ("group",), _cmd_gen),
    "corrupt": Verb("inject symmetric label noise",
                    ("seed", "infile", "outfile", "p", "num_classes"),
                    ("infile", "outfile", "p"), _cmd_corrupt),
    "represent": Verb("compute a representation CSV",
                      ("infile", "outfile",
                       ("kind", dict(choices=tuple(k for k in REPRESENTATION_KINDS
                                                   if k != "external")))),
                      ("infile", "outfile"), _cmd_represent),
    "select": Verb("select a training subset",
                   ("seed", "infile", *_SELECTOR, "out_scores", "out_subset"),
                   ("infile",), _cmd_select),
    "train": Verb("train the downstream classifier",
                  ("seed", "infile", "subset", "num_classes", *_MLP,
                   ("outfile", dict(dest="out_model"))),
                  ("infile", "out_model"), _cmd_train),
    "eval": Verb("evaluate a saved classifier", ("model", "test", "out_csv"),
                 ("model", "test"), _cmd_eval),
    "exp": Verb("end-to-end seeded experiment", _EXP, (), _cmd_exp),
    "bounds": Verb("feasibility window over dimensions",
                   ("n", "nu", "rho", "delta", "omega", "p0", "kl1", "mode", "d_range",
                    "out_dir"), (), _cmd_bounds),
    "ablate": Verb("sweep one knob through the pipeline", ("ablation", "grid", *_EXP), (),
                   _cmd_ablate),
    "validate-theory": Verb("Monte Carlo theory checks", ("seed", "trials", "tuples"), (),
                            _cmd_validate_theory),
}


def _flags(verb) -> dict:
    """``{dest: (option string, argparse keywords)}`` of ``verb``'s flags, in order."""
    flags = {}
    for entry in VERBS[verb].flags:
        key, keywords = entry if isinstance(entry, tuple) else (entry, {})
        option, kw = FLAGS[key]
        kw = {"dest": key, **kw, **keywords}
        flags[kw["dest"]] = option, kw
    return flags


def _require(verb, values) -> None:
    """A usage error naming every required flag of ``verb`` when one is unset."""
    required = VERBS[verb].required
    if not set(required) <= values.keys():
        flags = _flags(verb)
        *rest, last = (flags[dest][0] for dest in required)
        names = f"{', '.join(rest)} and {last}" if rest else last
        raise UsageError(f"{names} {'are' if rest else 'is'} required")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="icut",
        description="Invariance-aware cutstats data curation and theory checks")
    sub = parser.add_subparsers(dest="command")
    for verb, spec in VERBS.items():
        # unset flags stay out of the namespace, so library defaults apply; no
        # abbreviations, or a removed --seed would silently mean --seed-list
        p = sub.add_parser(verb, help=spec.help, argument_default=argparse.SUPPRESS,
                           allow_abbrev=False)
        # no verb declares a numeric option, so any "-<digit>" token is a value:
        # argparse's own pattern misses the exponent form (--range -1e-3 1)
        p._negative_number_matcher = re.compile(r"^-\.?\d")
        p.add_argument("--config", help="JSON config; flags override its keys")
        for option, kw in _flags(verb).values():
            p.add_argument(option, **kw)
    return parser


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
            values = {**_config_values(verb, values.pop("config")), **values}
        _require(verb, values)
        return VERBS[verb].handler(values)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - a failed stage or any other runtime failure
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
