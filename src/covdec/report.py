"""The on-disk layout of a training run directory: writing, loading, rendering.

A run directory contains:

    cnn.cvdp rnn.cvdp dae.cvdp head.cvdp   stage weights, parameter values only
    norm.cvdp                              standardization mean/std
    config.txt                             effective config echo
    classes.txt                            class names, one per line
    curves.csv                             epoch,stage,train_loss,val_loss,val_acc
    report.json                            accuracy, per-class metrics, wall clock

No other module names these files; `covdec report` prints `format_report`.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path

import numpy as np

from . import params as pstore
from .branches import join_rnn_gates, split_rnn_gates
from .config import _read_utf8, config_from_file, write_config
from .covariance import STD_FLOOR, NormStats
from .errors import CovdecError, ParseError, StateError
from .training import CurvePoint, PipelineArtifacts, RunOutcome

REPORT_FORMAT_VERSION = 1

STAGE_FILES = ("cnn", "rnn", "dae", "head")

# (stage file, bias, config field): each bias is as wide as its field says.
# Inference reads every width from the weights, so without this check a
# config.txt that disagrees with them would load and describe another model.
CONFIG_WIDTHS = (
    ("cnn", "fc1.b", "cnn_fc1"), ("cnn", "fc2.b", "cnn_feature"),
    ("rnn", "fc1.b", "rnn_fc1"), ("rnn", "fc2.b", "rnn_fc2"),
    ("rnn", "lstm1.b_i", "rnn_hidden1"), ("rnn", "lstm2.b_i", "rnn_hidden2"),
    ("dae", "enc1.b", "dae_hidden"), ("dae", "enc2.b", "dae_latent"),
    ("head", "fc1.b", "head_hidden"), ("head", "out.b", "classes"),
)


def _number(v, k=None) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _per_class(item):
    """A check for a list with one entry per class, each passing item(entry, k)."""
    return lambda v, k: isinstance(v, list) and len(v) == k and all(item(x, k) for x in v)


# the report.json fields `format_report` reads: what each must be, and its
# check given k classes; `classes` comes first and fixes k
REPORT_FIELDS = {
    "classes": ("a list of strings",
                lambda v, k: isinstance(v, list) and all(isinstance(x, str) for x in v)),
    "train_accuracy": ("a number", _number),
    "val_accuracy": ("a number", _number),
    "precision": ("a list of numbers, one per class", _per_class(_number)),
    "recall": ("a list of numbers, one per class", _per_class(_number)),
    "confusion": ("a list of integer rows, one row and one column per class",
                  _per_class(_per_class(lambda v, k: _number(v) and isinstance(v, int)))),
    "wall_clock": ("an object of numbers",
                   lambda v, k: isinstance(v, dict) and all(map(_number, v.values()))),
}


def write_curves_csv(path: str | Path, curves: list[CurvePoint]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "stage", "train_loss", "val_loss", "val_acc"])
        for c in curves:
            writer.writerow([
                c.epoch, c.stage, f"{c.train_loss:.9g}",
                "" if c.val_loss is None else f"{c.val_loss:.9g}",
                "" if c.val_acc is None else f"{c.val_acc:.9g}",
            ])


def read_curves_csv(path: str | Path) -> list[CurvePoint]:
    p = Path(path)
    if not p.is_file():
        raise StateError(f"missing curves file: {p}")
    reader = csv.DictReader(io.StringIO(_read_utf8(p, ParseError), newline=""))
    out = []
    try:
        for row in reader:
            out.append(CurvePoint(
                epoch=int(row["epoch"]),
                stage=row["stage"],
                train_loss=float(row["train_loss"]),
                val_loss=float(row["val_loss"]) if row["val_loss"] else None,
                val_acc=float(row["val_acc"]) if row["val_acc"] else None,
            ))
    except (csv.Error, KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{p}:{reader.line_num}: bad curves row ({exc})") from None
    return out


def save_run(out_dir: str | Path, outcome: RunOutcome) -> None:
    """Write weights, stats, config echo, class names, curves and report.json."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    artifacts = outcome.artifacts
    for stage in STAGE_FILES:
        store = split_rnn_gates(artifacts.rnn) if stage == "rnn" else getattr(artifacts, stage)
        pstore.save(store, out / f"{stage}.cvdp")
    norm_store = pstore.ParamStore()
    norm_store.add("mean", artifacts.norm.mean)
    norm_store.add("std", artifacts.norm.std)
    pstore.save(norm_store, out / "norm.cvdp")

    write_config(out / "config.txt", artifacts.config)
    (out / "classes.txt").write_text(
        "\n".join(artifacts.classes) + "\n", encoding="utf-8"
    )
    write_curves_csv(out / "curves.csv", outcome.curves)

    val = outcome.val_eval
    report = {
        "format_version": REPORT_FORMAT_VERSION,
        "config": artifacts.config.to_dict(),
        "classes": list(artifacts.classes),
        "train_accuracy": outcome.train_eval.accuracy,
        "val_accuracy": val.accuracy,
        "precision": val.precision.tolist(),
        "recall": val.recall.tolist(),
        "confusion": val.confusion.tolist(),
        "wall_clock": dict(outcome.wall_clock),
    }
    (out / "report.json").write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")


def _run_file(read, path: Path, missing: str):
    """read(path); if that fails and path is not a file, StateError `missing`.

    The file is opened once and stat'ed only when reading it failed.
    """
    try:
        return read(path)
    except (CovdecError, OSError):
        if path.is_file():
            raise
        raise StateError(f"{missing}: {path}") from None


def load_artifacts(run_dir: str | Path) -> PipelineArtifacts:
    """Load a trained run directory; missing or mis-shaped pieces, and weights
    whose widths disagree with config.txt, raise StateError naming the entry
    as the file holds it; rnn.cvdp's gate entries are fused last."""
    run = Path(run_dir)
    paths = {stage: run / f"{stage}.cvdp" for stage in STAGE_FILES + ("norm",)}
    stores = {stage: _run_file(pstore.load, path, f"missing stage weights '{stage}'")
              for stage, path in paths.items()}
    config_path = run / "config.txt"
    config = _run_file(config_from_file, config_path, "missing config echo")
    classes_path = run / "classes.txt"
    text = _run_file(lambda path: _read_utf8(path, ParseError), classes_path,
                     "missing class names")
    classes = [line for line in text.splitlines() if line]
    if len(classes) != config.classes:
        raise StateError(
            f"{classes_path}: {len(classes)} class names for a model trained "
            f"on {config.classes} classes"
        )
    norm_path = paths["norm"]
    pstore.require(stores["norm"], ("mean", "std"), str(norm_path))
    mean, std = stores["norm"]["mean"].value, stores["norm"]["std"].value
    if mean.ndim != 2 or mean.shape[0] != mean.shape[1] or std.shape != mean.shape:
        raise StateError(
            f"{norm_path}: mean {mean.shape} and std {std.shape} are not "
            f"one square [C, C] shape"
        )
    if np.any(std < STD_FLOOR):
        raise StateError(f"{norm_path}: std has entries below {STD_FLOOR:g}")
    for stage, name, field in CONFIG_WIDTHS:
        pstore.require(stores[stage], (name,), str(paths[stage]))
        shape, width = stores[stage][name].value.shape, getattr(config, field)
        if shape != (width,):
            raise StateError(
                f"{paths[stage]}: '{name}' has shape {shape}, but {config_path.name} "
                f"sets {field} = {width}"
            )
    return PipelineArtifacts(
        config=config, classes=classes,
        cnn=stores["cnn"], rnn=join_rnn_gates(stores["rnn"], str(paths["rnn"])),
        dae=stores["dae"], head=stores["head"], norm=NormStats(mean, std),
    )


def load_report_json(run_dir: str | Path) -> dict:
    """Parse report.json; ParseError names a missing or malformed REPORT_FIELDS field."""
    p = Path(run_dir) / "report.json"
    if not p.is_file():
        raise StateError(f"missing report: {p}")
    try:
        report = json.loads(_read_utf8(p, ParseError))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{p}:{exc.lineno}: invalid JSON ({exc.msg})") from None
    if not isinstance(report, dict):
        raise ParseError(f"{p}: expected a JSON object, got {type(report).__name__}")
    k = None
    for key, (what, check) in REPORT_FIELDS.items():
        if key not in report:
            raise ParseError(f"{p}: missing key '{key}'")
        if not check(report[key], k):
            raise ParseError(f"{p}: key '{key}' must be {what}")
        k = len(report["classes"])
    return report


def format_confusion(classes: list[str], confusion) -> list[str]:
    """One line per true class: its name, then the count per predicted class."""
    return [f"  {name:<12} " + " ".join(f"{v:4d}" for v in row)
            for name, row in zip(classes, confusion)]


def format_report(run_dir: str | Path) -> str:
    """The text `covdec report` prints, built only after every file is read and checked."""
    report = load_report_json(run_dir)
    curves = read_curves_csv(Path(run_dir) / "curves.csv")
    classes = report["classes"]
    lines = [
        f"run {run_dir}",
        f"classes: {', '.join(classes)}",
        f"train accuracy = {report['train_accuracy']:.4f}",
        f"val accuracy = {report['val_accuracy']:.4f}",
    ]
    for stage in STAGE_FILES:
        points = [c for c in curves if c.stage == stage]
        if not points:
            lines.append(f"{stage}: no curve data")
            continue
        trained = sum(1 for c in points if c.epoch > 0)
        first, last = points[0], points[-1]
        line = (f"{stage}: {trained} epochs, "
                f"train loss {first.train_loss:.4g} -> {last.train_loss:.4g}")
        with_val = [c for c in points if c.val_loss is not None]
        if with_val:
            best = min(with_val, key=lambda c: c.val_loss)
            line += f", best val loss {best.val_loss:.4g} at epoch {best.epoch}"
        lines.append(line)
    lines.append("val precision / recall per class:")
    lines.extend(f"  {name:<12} {p:.4f} / {r:.4f}"
                 for name, p, r in zip(classes, report["precision"], report["recall"]))
    lines.append("val confusion matrix (rows = true, cols = predicted):")
    lines.extend(format_confusion(classes, report["confusion"]))
    lines.append("wall clock (seconds):")
    lines.extend(f"  {name:<12} {s:.3f}" for name, s in report["wall_clock"].items())
    return "\n".join(lines) + "\n"
