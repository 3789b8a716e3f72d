"""Run reports and the on-disk layout of a training run directory.

A run directory contains:

    cnn.cvdp rnn.cvdp dae.cvdp head.cvdp   stage weights, parameter values only
    norm.cvdp                              standardization mean/std
    config.txt                             effective config echo
    classes.txt                            class names, one per line
    curves.csv                             epoch,stage,train_loss,val_loss,val_acc
    report.txt / report.json               human / machine readable report
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from pathlib import Path

from . import params as pstore
from .config import _read_utf8, config_from_file, write_config
from .covariance import NormStats
from .errors import ParseError, StateError
from .training import CurvePoint, PipelineArtifacts, RunOutcome

REPORT_FORMAT_VERSION = 1

STAGE_FILES = ("cnn", "rnn", "dae", "head")

# the report.json fields that `covdec report` prints
REPORT_KEYS = ("classes", "train_accuracy", "val_accuracy")


@dataclass
class RunReport:
    format_version: int
    config: dict
    classes: list[str]
    train_accuracy: float
    val_accuracy: float
    precision: list[float]   # per class, validation set
    recall: list[float]
    confusion: list[list[int]]  # rows = true class, cols = predicted
    wall_clock: dict[str, float]

    def metric_fields(self) -> dict:
        """Everything except wall clock, for determinism comparisons."""
        return {
            "format_version": self.format_version,
            "config": self.config,
            "classes": self.classes,
            "train_accuracy": self.train_accuracy,
            "val_accuracy": self.val_accuracy,
            "precision": self.precision,
            "recall": self.recall,
            "confusion": self.confusion,
        }


def build_report(outcome: RunOutcome) -> RunReport:
    val = outcome.val_eval
    return RunReport(
        format_version=REPORT_FORMAT_VERSION,
        config=outcome.artifacts.config.to_dict(),
        classes=list(outcome.artifacts.classes),
        train_accuracy=outcome.train_eval.accuracy,
        val_accuracy=val.accuracy,
        precision=[float(x) for x in val.precision],
        recall=[float(x) for x in val.recall],
        confusion=[[int(x) for x in row] for row in val.confusion],
        wall_clock={k: float(v) for k, v in outcome.wall_clock.items()},
    )


def format_report_text(report: RunReport) -> str:
    lines = ["covdec run report", f"format_version = {report.format_version}", ""]
    lines.append("[config]")
    lines.extend(f"{k} = {v}" for k, v in report.config.items())
    lines.append("")
    lines.append("[classes]")
    lines.extend(f"{i} = {name}" for i, name in enumerate(report.classes))
    lines.append("")
    lines.append("[accuracy]")
    lines.append(f"train = {report.train_accuracy:.6f}")
    lines.append(f"val = {report.val_accuracy:.6f}")
    lines.append("")
    lines.append("[precision]  # validation, per class")
    lines.extend(
        f"{name} = {v:.6f}" for name, v in zip(report.classes, report.precision)
    )
    lines.append("")
    lines.append("[recall]  # validation, per class")
    lines.extend(f"{name} = {v:.6f}" for name, v in zip(report.classes, report.recall))
    lines.append("")
    lines.append("[confusion]  # rows = true class, cols = predicted")
    lines.extend(" ".join(str(v) for v in row) for row in report.confusion)
    lines.append("")
    lines.append("[wall_clock_seconds]")
    lines.extend(f"{k} = {v:.3f}" for k, v in report.wall_clock.items())
    return "\n".join(lines) + "\n"


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
    if not p.exists():
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


def save_run(out_dir: str | Path, outcome: RunOutcome) -> RunReport:
    """Write weights, stats, config echo, curves, and both report variants."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    artifacts = outcome.artifacts
    for stage in STAGE_FILES:
        pstore.save(getattr(artifacts, stage), out / f"{stage}.cvdp")
    norm_store = pstore.ParamStore()
    norm_store.add("mean", artifacts.norm.mean)
    norm_store.add("std", artifacts.norm.std)
    pstore.save(norm_store, out / "norm.cvdp")

    write_config(out / "config.txt", artifacts.config)
    (out / "classes.txt").write_text(
        "\n".join(artifacts.classes) + "\n", encoding="utf-8"
    )
    write_curves_csv(out / "curves.csv", outcome.curves)

    report = build_report(outcome)
    (out / "report.txt").write_text(format_report_text(report), encoding="utf-8")
    (out / "report.json").write_text(
        json.dumps({**report.metric_fields(), "wall_clock": report.wall_clock},
                   indent=2) + "\n",
        encoding="utf-8",
    )
    return report


def load_artifacts(run_dir: str | Path) -> PipelineArtifacts:
    """Load a trained run directory; missing pieces raise StateError by name."""
    run = Path(run_dir)
    stores = {}
    for stage in STAGE_FILES + ("norm",):
        path = run / f"{stage}.cvdp"
        if not path.exists():
            raise StateError(f"missing stage weights '{stage}': {path}")
        stores[stage] = pstore.load(path)
    config_path = run / "config.txt"
    if not config_path.exists():
        raise StateError(f"missing config echo: {config_path}")
    config = config_from_file(config_path)
    classes_path = run / "classes.txt"
    if not classes_path.exists():
        raise StateError(f"missing class names: {classes_path}")
    classes = [line for line in _read_utf8(classes_path, ParseError).splitlines() if line]
    if len(classes) != config.classes:
        raise StateError(
            f"{classes_path}: {len(classes)} class names for a model trained "
            f"on {config.classes} classes"
        )
    norm = NormStats(stores["norm"]["mean"].value, stores["norm"]["std"].value)
    return PipelineArtifacts(
        config=config, classes=classes,
        cnn=stores["cnn"], rnn=stores["rnn"],
        dae=stores["dae"], head=stores["head"], norm=norm,
    )


def load_report_json(run_dir: str | Path) -> dict:
    """Parse report.json; raises ParseError when it lacks a REPORT_KEYS field."""
    p = Path(run_dir) / "report.json"
    if not p.exists():
        raise StateError(f"missing report: {p}")
    try:
        report = json.loads(_read_utf8(p, ParseError))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{p}:{exc.lineno}: invalid JSON ({exc.msg})") from None
    if not isinstance(report, dict):
        raise ParseError(f"{p}: expected a JSON object, got {type(report).__name__}")
    for key in REPORT_KEYS:
        if key not in report:
            raise ParseError(f"{p}: missing key '{key}'")
    return report
