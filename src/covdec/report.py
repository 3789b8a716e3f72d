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
from .autoenc import dae_layout, head_layout
from .branches import cnn_layout, join_rnn_gates, rnn_layout, split_rnn_gates
from .config import config_from_dict, config_values, write_config
from .covariance import STD_FLOOR, NormStats
from .errors import ConfigError, ParseError, StateError
from .files import decode_utf8, read_file
from .training import CurvePoint, PipelineArtifacts, RunOutcome

REPORT_FORMAT_VERSION = 1

STAGE_FILES = ("cnn", "rnn", "dae", "head")

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
    text = decode_utf8(read_file(p, "missing curves file", StateError), p, ParseError)
    reader = csv.DictReader(io.StringIO(text, newline=""))
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


def load_artifacts(run_dir: str | Path) -> PipelineArtifacts:
    """Load a trained run directory; missing or mis-shaped pieces raise
    StateError naming the file and the entry as the file holds it. Every
    weight entry must have the shape its stage's layout gives for config.txt
    and the channel count of norm.cvdp; rnn.cvdp's gate entries are fused last.

    Each file is read once, and each weight payload copied once out of its
    file's bytes: rnn.cvdp's by the join, into the fused arrays.
    """
    run = Path(run_dir)
    paths = {stage: run / f"{stage}.cvdp" for stage in STAGE_FILES + ("norm",)}
    entries = {}
    for stage, path in paths.items():
        views = pstore.read_entries(
            read_file(path, f"missing stage weights '{stage}'", StateError), path)
        entries[stage] = views if stage == "rnn" else pstore.owned(views)
    config_path = run / "config.txt"
    config = config_from_dict(config_values(
        read_file(config_path, "missing config echo", StateError), config_path))
    classes_path = run / "classes.txt"
    text = decode_utf8(read_file(classes_path, "missing class names", StateError),
                       classes_path, ParseError)
    classes = [line for line in text.splitlines() if line]
    if len(classes) != config.classes:
        raise StateError(
            f"{classes_path}: {len(classes)} class names for a model trained "
            f"on {config.classes} classes"
        )
    norm_path = paths["norm"]
    pstore.require(entries["norm"], ("mean", "std"), str(norm_path))
    mean, std = entries["norm"]["mean"], entries["norm"]["std"]
    if mean.ndim != 2 or mean.shape[0] != mean.shape[1] or std.shape != mean.shape:
        raise StateError(
            f"{norm_path}: mean {mean.shape} and std {std.shape} are not "
            f"one square [C, C] shape"
        )
    if np.any(std < STD_FLOOR):
        raise StateError(f"{norm_path}: std has entries below {STD_FLOOR:g}")
    channels = mean.shape[0]
    try:
        layouts = {"cnn": cnn_layout(config, channels), "rnn": rnn_layout(config, channels),
                   "dae": dae_layout(config), "head": head_layout(config)}
    except ConfigError as exc:  # kernels too wide for the channels of norm.cvdp
        raise StateError(f"{config_path}: {exc}") from None
    for stage, layout in layouts.items():
        pstore.require(entries[stage], [name for name, _, _ in layout], str(paths[stage]))
        for name, shape, _ in layout:
            if entries[stage][name].shape != shape:
                raise StateError(
                    f"{paths[stage]}: '{name}' has shape {entries[stage][name].shape}, "
                    f"but {config_path.name} and {norm_path.name} want {shape}"
                )
    return PipelineArtifacts(
        config=config, classes=classes,
        cnn=pstore.store_of(entries["cnn"]),
        rnn=join_rnn_gates(entries["rnn"]),
        dae=pstore.store_of(entries["dae"]), head=pstore.store_of(entries["head"]),
        norm=NormStats(mean, std),
    )


def load_report_json(run_dir: str | Path) -> dict:
    """Parse report.json; ParseError names a missing or malformed REPORT_FIELDS field."""
    p = Path(run_dir) / "report.json"
    text = decode_utf8(read_file(p, "missing report", StateError), p, ParseError)
    try:
        report = json.loads(text)
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
