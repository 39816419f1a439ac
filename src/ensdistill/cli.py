"""Command-line pipeline driver.

Every subcommand is a pure function of its flags and input files: rerunning
with the same inputs produces byte-identical outputs.  Exit codes separate
science from plumbing: 0 success, 1 verified-claim violation, 2 bad
flags/config, 3 I/O failure or an allocation the host refused,
4 theorem-premise violation.
"""
from __future__ import annotations

import argparse
import math
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import data as data_mod
from . import distill as distill_mod
from . import evaluate as eval_mod
from .core import content_hash, parse_json, read_json, write_json, write_table
from .findwl import FindWlConfig, SgdConfig
from .nets import (AT_LEAST_ONE, FINITE_NONNEGATIVE, FINITE_POSITIVE, LIST_AT_LEAST_ONE,
                   NONNEGATIVE_BELOW_ONE, POSITIVE_UP_TO_ONE, ConfigError, check, flops,
                   params_from_dict, params_to_dict)

EXIT_OK = 0
EXIT_CLAIM = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_PREMISE = 4

def _keys(cls) -> set:
    return {f.name for f in fields(cls)}


def _take(doc: dict, keys: set, where: str) -> dict:
    """A copy of `doc` after checking that it is an object whose every key is
    one of `keys`; the config classes' `validate` checks the values."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must be a JSON object, not a {type(doc).__name__}")
    for key in doc:
        if key not in keys:
            raise ConfigError(f"unknown config key {key!r} in {where}")
    return dict(doc)


def build_config(doc: dict) -> distill_mod.DistillConfig:
    """Construct the run configuration from a JSON document.  Its keys are the
    config classes' fields; unknown keys and bad values are refused by name,
    missing keys fall back to package defaults."""
    top = _take(doc, _keys(distill_mod.DistillConfig), "config")
    fw_doc = _take(top.pop("findwl", {}), _keys(FindWlConfig), "config.findwl")
    sgd_doc = _take(fw_doc.pop("sgd", {}), _keys(SgdConfig), "config.findwl.sgd")
    if isinstance(sgd_doc.get("lr_drops"), list):
        sgd_doc["lr_drops"] = tuple(sgd_doc["lr_drops"])
    base_findwl = FindWlConfig()
    findwl = replace(base_findwl, **fw_doc, sgd=replace(base_findwl.sgd, **sgd_doc))
    cfg = replace(distill_mod.DistillConfig(), **top, findwl=findwl)
    cfg.validate()
    return cfg


def _load_config(path: str | None) -> distill_mod.DistillConfig:
    """`build_config` of the JSON file at `path`, or of `{}` (the package
    defaults) when no path is given."""
    try:
        doc = read_json(path) if path else {}
    except ValueError as exc:   # not UTF-8 JSON; an unreadable file stays an I/O error
        raise ConfigError(str(exc)) from exc
    return build_config(doc)


def _check_features(path: Path, ds, members: list) -> None:
    """Refuse `ds`, the dataset read from `path`, unless its feature count is
    the input width of member 0, the one member that reads the features
    alone; an ensemble without members is refused where it is evaluated."""
    if members and members[0].spec[0].in_dim != ds.d:
        raise ConfigError(f"{path} has {ds.d} feature columns, but member 0 "
                          f"expects input width {members[0].spec[0].in_dim}")


def _training_pair(data_dir: Path, members: list = ()):
    """`train.csv` and its teacher logits `train_logits.csv`, refused unless
    they have the same row count and, given the ensemble members they are
    read against, member 0's input width in features (`_check_features`) and
    one logit column per output of each member."""
    train = data_mod.load_dataset_csv(data_dir / "train.csv")
    g = data_mod.load_logits_csv(data_dir / "train_logits.csv")
    if train.n != g.shape[0]:
        raise ValueError(f"data has {train.n} rows but teacher logits {g.shape[0]}")
    _check_features(data_dir / "train.csv", train, members)
    for i, member in enumerate(members):
        if member.spec[-1].out_dim != g.shape[1]:
            raise ConfigError(f"member {i} has {member.spec[-1].out_dim} outputs, but "
                              f"{data_dir / 'train_logits.csv'} has {g.shape[1]} columns")
    return train, g


def cmd_gen_data(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.dataset == "ellipsoid":
        ds = data_mod.gen_ellipsoid(args.seed, args.n, args.d)
    else:
        ds = data_mod.gen_cube(args.seed, args.n, args.d)
    train, test = data_mod.split(ds, 0.8, args.seed)
    write_json(out / "meta.json", ds.meta)
    data_mod.save_dataset_csv(out / "train.csv", train)
    data_mod.save_dataset_csv(out / "test.csv", test)
    print(f"wrote {args.dataset} n={ds.n} d={ds.d} to {out} "
          f"(train {train.n} / test {test.n})")
    return EXIT_OK


def cmd_train_teacher(args) -> int:
    data_dir = Path(args.data)
    train = data_mod.load_dataset_csv(data_dir / "train.csv")
    test = data_mod.load_dataset_csv(data_dir / "test.csv")
    n_classes = int(max(train.labels.max(), test.labels.max())) + 1
    spec = data_mod.mlp_spec(train.d, args.spec, n_classes)
    recipe = replace(data_mod.default_teacher_recipe(), lr=args.lr, momentum=args.momentum,
                     weight_decay=args.weight_decay, epochs=args.epochs,
                     batch_size=args.batch_size)
    try:
        params = data_mod.train_teacher(train, spec, recipe, seed=args.seed)
    except FloatingPointError as exc:   # a step size the logits cannot absorb
        raise ConfigError(f"teacher training diverged at --lr {args.lr} ({exc}); "
                          f"lower --lr") from exc
    write_json(args.out, params_to_dict(params))
    # the training-split pass sets this phase's memory peak and never reads
    # the test split, so the test split is scored and released before it
    test_acc = eval_mod.accuracy(data_mod.teacher_logits(params, test.x), test.labels)
    del test
    train_logits = data_mod.teacher_logits(params, train.x)
    data_mod.save_logits_csv(data_dir / "train_logits.csv", train_logits)
    train_acc = eval_mod.accuracy(train_logits, train.labels)
    print(f"teacher trained: train accuracy {train_acc:.4f}, test accuracy {test_acc:.4f}")
    return EXIT_OK


def cmd_distill(args) -> int:
    cfg = _load_config(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
    train, g = _training_pair(Path(args.data))
    teacher_hash = content_hash(Path(args.teacher).read_bytes())
    ens, hist = distill_mod.run(cfg, train.x, g, teacher_hash=teacher_hash)
    distill_mod.save_ensemble(args.out, ens)
    distill_mod.write_history(args.history, hist)
    n_esc = len(hist.escalations)
    print(f"distilled {len(ens.members)} members (T={cfg.T}, R={cfg.R}, "
          f"escalations={n_esc}, eta={ens.eta:.6g})")
    return EXIT_OK


# the optional flags each eval mode reads; another one given is refused
_EVAL_FLAGS = {"anytime": (), "early-exit": ("threshold",), "resched": ("seed", "config")}


def cmd_eval(args) -> int:
    for flag in ("threshold", "seed", "config"):
        if getattr(args, flag) is not None and flag not in _EVAL_FLAGS[args.mode]:
            raise ConfigError(f"--{flag} is not read by --mode {args.mode}")
    ens = distill_mod.load_ensemble(args.ensemble)
    raw = Path(args.teacher).read_bytes()
    teacher_hash = content_hash(raw)
    if teacher_hash != ens.teacher_hash:
        raise ConfigError(f"teacher {args.teacher} has hash {teacher_hash}, but the ensemble "
                          f"was distilled from a teacher with hash {ens.teacher_hash!r}")
    teacher = params_from_dict(parse_json(raw, f"teacher {args.teacher}"))
    # a teacher taps no member, and its cost is read from its layers alone
    check("kind", teacher.connection.kind, (lambda v: v == "none", "'none' in a teacher"))
    data_dir = Path(args.data)
    test = data_mod.load_dataset_csv(data_dir / "test.csv")
    _check_features(data_dir / "test.csv", test, ens.members)
    teacher_cost = flops(teacher)
    if args.mode == "anytime":
        points = eval_mod.anytime_curve(ens, test.x, test.labels, teacher_cost)
        eval_mod.write_curve_csv(args.out, points)
        print(f"anytime curve: {len(points)} points, "
              f"final accuracy {points[-1].accuracy:.4f}")
    elif args.mode == "resched":
        recipe = _load_config(args.config).findwl.sgd
        train, g = _training_pair(data_dir, ens.members)
        specs = [eval_mod.standalone_spec(m) for m in ens.members]
        try:
            points = eval_mod.baseline_resched(specs, train.x, g, test.x, test.labels,
                                               teacher_cost, recipe, seed=args.seed or 0)
        except FloatingPointError as exc:   # as for the teacher: a step size too large
            raise ConfigError(f"resched training diverged at 'lr' {recipe.lr} "
                              f"({exc}); lower the config's findwl.sgd.lr") from exc
        eval_mod.write_curve_csv(args.out, points)
        print(f"resched baseline: {len(points)} points, "
              f"final accuracy {points[-1].accuracy:.4f}")
    else:  # early-exit
        if args.threshold is None:
            raise ConfigError("--threshold is required for early-exit mode")
        preds, evaluated, spent = eval_mod.early_exit(ens, test.x, args.threshold)
        acc = float(np.mean(preds == test.labels))
        summary = (args.threshold, np.mean(evaluated), np.mean(spent) / teacher_cost, acc)
        write_table(args.out, np.array([summary], [(name, np.float64) for name in (
            "threshold", "mean_members_evaluated", "mean_flops_fraction", "accuracy")]))
        print(f"early exit at {args.threshold}: mean members {np.mean(evaluated):.2f}, "
              f"accuracy {acc:.4f}")
    return EXIT_OK


def cmd_verify(args) -> int:
    rows = distill_mod.read_history(args.history)
    ens = distill_mod.load_ensemble(args.ensemble)
    train, g = _training_pair(Path(args.data), ens.members)
    report = eval_mod.verify_bound(rows, ens, train.x, g, args.g_inf)
    if args.out:
        eval_mod.save_bound_report(args.out, report)
    print(f"verify: {report.status} (measured {report.measured_sup_error:.6g} "
          f"vs bound {report.theorem_bound:.6g})")
    if report.status == "premise_violated":
        failures = {
            "rounds_ok": f"rounds T={report.T} < ln(2N)={math.log(2.0 * report.n_samples):.3g}",
            "eta_ok": f"eta*G={report.eta * report.g_inf_config:.6g} > 1",
            "residuals_ok": f"observed max|l|={report.observed_max_residual:.6g}"
                            f" > --g-inf {report.g_inf_config:.6g}"}
        for premise, failure in failures.items():
            if not report.premises[premise]:
                print(f"premise failed: {failure}")
        return EXIT_PREMISE
    return EXIT_OK if report.status == "pass" else EXIT_CLAIM


def _flag(convert, accept, expected: str):
    """argparse type: a converted value that `accept` refuses is a usage error."""
    def parse(text: str):
        value = convert(text)
        if not accept(value):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text}")
        return value
    parse.__name__ = convert.__name__   # argparse names it in "invalid int value"
    return parse


def widths(text: str) -> list:
    return [int(w) for w in text.split(",") if w]


POSITIVE_INT = _flag(int, *AT_LEAST_ONE)
POSITIVE_FLOAT = _flag(float, *FINITE_POSITIVE)
NONNEGATIVE_FLOAT = _flag(float, *FINITE_NONNEGATIVE)
MOMENTUM = _flag(float, *NONNEGATIVE_BELOW_ONE)
UNIT_INTERVAL = _flag(float, *POSITIVE_UP_TO_ONE)
WIDTHS = _flag(widths, *LIST_AT_LEAST_ONE)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ensdistill",
                                     description="Distill a teacher network onto an "
                                                 "anytime ensemble of small students.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic dataset with an 80/20 split")
    p.add_argument("--dataset", required=True, choices=("ellipsoid", "cube"))
    p.add_argument("--n", type=POSITIVE_INT, required=True)
    p.add_argument("--d", type=POSITIVE_INT, default=32)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train-teacher", help="fit the teacher MLP on hard labels")
    p.add_argument("--data", required=True)
    p.add_argument("--spec", type=WIDTHS, required=True,
                   help="comma-separated hidden widths, e.g. 64,64")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    recipe = data_mod.default_teacher_recipe()
    p.add_argument("--lr", type=NONNEGATIVE_FLOAT, default=recipe.lr)
    p.add_argument("--momentum", type=MOMENTUM, default=recipe.momentum)
    p.add_argument("--weight-decay", type=NONNEGATIVE_FLOAT, default=recipe.weight_decay)
    p.add_argument("--epochs", type=POSITIVE_INT, default=recipe.epochs)
    p.add_argument("--batch-size", type=POSITIVE_INT, default=recipe.batch_size)
    p.set_defaults(func=cmd_train_teacher)

    p = sub.add_parser("distill", help="run the boosting loop against cached teacher logits")
    p.add_argument("--data", required=True)
    p.add_argument("--teacher", required=True)
    p.add_argument("--config", default=None, help="JSON run config; defaults used when omitted")
    p.add_argument("--out", required=True)
    p.add_argument("--history", required=True)
    p.add_argument("--seed", type=int, default=None, help="overrides the config seed")
    p.set_defaults(func=cmd_distill)

    p = sub.add_parser("eval", help="anytime curve, early-exit, or the resched baseline")
    p.add_argument("--ensemble", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--teacher", required=True)
    p.add_argument("--mode", required=True, choices=tuple(_EVAL_FLAGS))
    p.add_argument("--out", required=True)
    p.add_argument("--threshold", type=UNIT_INTERVAL, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--config", default=None,
                   help="resched: the distill JSON config, whose findwl.sgd recipe trains "
                        "each member; package defaults when omitted")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("verify", help="replay a run and check the convergence bound")
    p.add_argument("--history", required=True)
    p.add_argument("--ensemble", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--g-inf", type=POSITIVE_FLOAT, required=True, dest="g_inf")
    p.add_argument("--out", default=None, help="bound report JSON path")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except MemoryError as exc:
        # an array sized by the input (a row count, a label) that the host
        # cannot hold: a plumbing failure, not a verified-claim violation
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_IO
    except FloatingPointError as exc:
        # residuals outgrew what the configured eta can absorb: the bounded-
        # magnitude premise of the convergence argument failed at runtime
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PREMISE


if __name__ == "__main__":
    sys.exit(main())
