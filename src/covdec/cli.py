"""Command-line entry point: synthesize data, train, evaluate, inspect.

Exit codes: 0 success, 1 gradient-check failure, 2 configuration/state error,
3 data error, 4 numeric abort (each the `exit_code` of its `errors` class),
141 (128 + SIGPIPE) when stdout was closed before the command finished
writing, for example by `| head -n 1`.
Diagnostics go to stderr, results to stdout.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import re
import sys
from functools import cache
from pathlib import Path

from .config import EPOCH_KEYS, config_from_dict, config_values
from .covariance import prepare
from .data import SynthSpec, load, load_trial, write_synth_dataset
from .errors import ConfigError, CovdecError, DataError
from .files import read_file
from .gradcheck import run_suite
from .report import format_confusion, format_report, load_artifacts, save_run
from .training import evaluate, predict_batch, run_training


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it as it was.

    Each subcommand's handler is bound here; a handler looks its library calls
    up when it runs.
    """
    parser = argparse.ArgumentParser(
        prog="covdec",
        description="Hierarchical covariance-feature decoder for EEG trials.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-synth", help="generate a synthetic dataset")
    p.add_argument("--out", required=True, help="output dataset directory")
    # each flag sets the SynthSpec field it names, whose default it keeps
    p.add_argument("--channels", type=int)
    p.add_argument("--samples", type=int)
    p.add_argument("--classes", type=int)
    p.add_argument("--trials-per-class", type=int)
    p.add_argument("--noise", type=float, dest="noise_sigma")
    p.add_argument("--strength", type=float, dest="signature_strength")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=_cmd_gen_synth)

    p = sub.add_parser("train", help="run the three training stages end to end")
    p.add_argument("--data", required=True, help="dataset manifest")
    p.add_argument("--out", required=True, help="run output directory")
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--seed", type=int, help="override the run seed")
    p.add_argument("--epochs", help="override epochs as E1,E2,E3")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a trained run on a dataset")
    p.add_argument("--data", required=True, help="dataset manifest")
    p.add_argument("--weights", required=True, help="trained run directory")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("predict", help="classify one trial file")
    p.add_argument("--trial", required=True, help="trial file")
    p.add_argument("--weights", required=True, help="trained run directory")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("gradcheck", help="finite-difference check of every layer type")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_gradcheck)

    p = sub.add_parser("report", help="summarize a run directory")
    p.add_argument("--run", required=True, help="run directory")
    p.set_defaults(func=_cmd_report)

    # an argument that starts like a number ("-1e3", "-1e-3") is a value, not
    # an option; argparse before Python 3.13 reads only plain decimals so
    for p in sub.choices.values():
        p._negative_number_matcher = re.compile(r"-\.?\d")
    return parser


def _check_out(out: str) -> None:
    """Raise ConfigError, before anything is written, when the output
    directory `out` is, or lies under, an existing non-directory."""
    path = Path(out)
    existing = next(p for p in (path, *path.parents) if p.exists())
    if not existing.is_dir():
        raise ConfigError(f"--out {path}: {existing} exists and is not a directory")


def _cmd_gen_synth(args) -> int:
    _check_out(args.out)
    given = {f.name: getattr(args, f.name) for f in dataclasses.fields(SynthSpec)}
    spec = SynthSpec(**{name: value for name, value in given.items() if value is not None})
    manifest_path = write_synth_dataset(args.out, spec)
    # echo the generator settings next to the data for reproducibility
    echo = "".join(f"{k} = {v}\n" for k, v in dataclasses.asdict(spec).items())
    (Path(args.out) / "synth.txt").write_text(echo, encoding="utf-8")
    print(f"wrote {spec.classes * spec.trials_per_class} trials, "
          f"manifest {manifest_path}")
    return 0


def _cmd_train(args) -> int:
    # save_run creates --out after the whole training; fail before it instead
    _check_out(args.out)
    trials, manifest = load(args.data)
    values: dict = {}
    lines: dict[str, int] = {}  # the --config line that set each of its keys
    if args.config:
        path = Path(args.config)
        values, lines = config_values(read_file(path, "config file not found", ConfigError),
                                      path)
    flags: dict = {}
    if args.seed is not None:
        flags["seed"] = args.seed
    if args.epochs is not None:
        parts = args.epochs.split(",")
        if len(parts) != 3:
            raise ConfigError(f"--epochs wants E1,E2,E3, got {args.epochs!r}")
        flags.update(zip(EPOCH_KEYS, parts))
    values.update(flags)
    # a declared class count must match the manifest; run_training checks it
    values.setdefault("classes", len(manifest.classes))
    try:
        config = config_from_dict(values)
    except ConfigError as exc:
        # a rejected value that the --config file set names its line; any
        # other names where the merged values came from
        if exc.key in lines and exc.key not in flags:
            raise ConfigError(f"{path}:{lines[exc.key]}: {exc}") from None
        sources = [args.config] if args.config else []
        sources += [flag for flag, v in (("--seed", args.seed), ("--epochs", args.epochs))
                    if v is not None]
        if not sources:
            raise
        raise ConfigError(f"{' with '.join(sources)}: {exc}") from None

    outcome = run_training(trials, manifest.classes, config)
    save_run(args.out, outcome)
    print(f"run written to {args.out}")
    print(f"train accuracy = {outcome.train_eval.accuracy:.4f}")
    print(f"val accuracy = {outcome.val_eval.accuracy:.4f}")
    return 0


def _cmd_eval(args) -> int:
    artifacts = load_artifacts(args.weights)
    trials, manifest = load(args.data)
    # a label is a list position, so the same names in another order would
    # score every trial against a different class
    if list(manifest.classes) != list(artifacts.classes):
        raise DataError(
            f"dataset classes {','.join(manifest.classes)} differ from the "
            f"trained classes {','.join(artifacts.classes)} (classes.txt order)"
        )
    result = evaluate(trials, artifacts)
    print(f"trials = {result.count}")
    print(f"accuracy = {result.accuracy:.4f}")
    print("confusion matrix (rows = true, cols = predicted):")
    print("\n".join(format_confusion(artifacts.classes, result.confusion)))
    return 0


def _cmd_predict(args) -> int:
    artifacts = load_artifacts(args.weights)
    trial, _ = load_trial(args.trial)
    mats, _ = prepare([trial], artifacts.config.tau, artifacts.norm)
    labels, probs = predict_batch(mats, artifacts)
    label, probs = int(labels[0]), probs[0]
    print(f"class = {artifacts.classes[label]}")
    for name, p in zip(artifacts.classes, probs):
        print(f"  p({name}) = {p:.6f}")
    return 0


def _cmd_gradcheck(args) -> int:
    results = run_suite(args.seed)
    failures = []
    for r in results:
        status = "ok" if r.passed else "FAIL"
        print(f"{r.name:<14} rel_err = {r.rel_err:.3e}  (threshold {r.threshold:g})  {status}")
        if not r.passed:
            failures.append(r.name)
    if failures:
        print(f"gradient check failed for: {', '.join(failures)}", file=sys.stderr)
        return 1
    return 0


def _cmd_report(args) -> int:
    print(format_report(args.run), end="")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader went away; point fd 1 at devnull so that the flush at
        # interpreter exit cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except CovdecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
