"""Run configuration: every knob of the three-stage training procedure.

`TrainConfig` is also the one description of the network's shape: the layer
builders in `branches` and `autoenc` read their widths from it, and each
derived width (`rnn_feature`, `feature_width`) has one rule here.

Configs round-trip through a flat "key = value" text file; unknown keys are
rejected so typos cannot silently fall back to defaults. `patience = off`
disables early stopping, which also makes a run exact-epoch: the final-epoch
weights are returned instead of the best-validation checkpoint.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError
from .files import key_values

RNN_ORDERS = ("fc-first", "lstm-first")
RNN_AXES = ("rows", "cols")

# every layer width, kernel length and filter count; each must be >= 1
_WIDTH_KEYS = (
    "cnn_filters1", "cnn_kernel1", "cnn_filters2", "cnn_kernel2", "cnn_fc1", "cnn_feature",
    "rnn_fc1", "rnn_fc2", "rnn_hidden1", "rnn_hidden2", "dae_hidden", "dae_latent",
    "head_hidden",
)
_LR_KEYS = ("lr_stage1", "lr_stage2", "lr_stage3")
EPOCH_KEYS = ("epochs_stage1", "epochs_stage2", "epochs_stage3")


@dataclass
class TrainConfig:
    seed: int = 0
    classes: int = 3
    tau: int = 0
    split_fraction: float = 0.8
    batch_size: int = 16
    lr_stage1: float = 1e-3
    lr_stage2: float = 1e-3
    lr_stage3: float = 1e-3
    epochs_stage1: int = 100
    epochs_stage2: int = 200
    epochs_stage3: int = 100
    patience: int | None = 25
    cnn_filters1: int = 32
    cnn_kernel1: int = 3
    cnn_filters2: int = 64
    cnn_kernel2: int = 3
    cnn_fc1: int = 128
    cnn_feature: int = 64
    rnn_fc1: int = 128
    rnn_fc2: int = 64
    rnn_hidden1: int = 64
    rnn_hidden2: int = 64
    rnn_order: str = "fc-first"
    rnn_axis: str = "rows"
    dae_hidden: int = 64
    dae_latent: int = 32
    head_hidden: int = 16

    def validate(self) -> "TrainConfig":
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}", "seed")
        for key in _WIDTH_KEYS:
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be >= 1, got {getattr(self, key)}", key)
        for key in _LR_KEYS:
            lr = getattr(self, key)
            if not (math.isfinite(lr) and lr > 0.0):
                raise ConfigError(f"{key} must be a finite number above 0, got {lr}", key)
        if not 0.0 < self.split_fraction < 1.0:
            raise ConfigError(f"split_fraction must be in (0, 1), got {self.split_fraction}",
                              "split_fraction")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}", "batch_size")
        if self.classes < 2:
            raise ConfigError(f"need at least 2 classes, got {self.classes}", "classes")
        for key in EPOCH_KEYS:
            if getattr(self, key) < 0:
                raise ConfigError("epoch counts must be >= 0", key)
        if self.patience is not None and self.patience < 1:
            raise ConfigError(f"patience must be >= 1 or off, got {self.patience}", "patience")
        if self.rnn_order not in RNN_ORDERS:
            raise ConfigError(f"rnn_order must be one of {RNN_ORDERS}, got {self.rnn_order!r}",
                              "rnn_order")
        if self.rnn_axis not in RNN_AXES:
            raise ConfigError(f"rnn_axis must be one of {RNN_AXES}, got {self.rnn_axis!r}",
                              "rnn_axis")
        if not self.dae_latent < self.feature_width:
            raise ConfigError(
                f"dae latent width {self.dae_latent} must be smaller than "
                f"input width {self.feature_width}", "dae_latent"
            )
        return self

    @property
    def rnn_feature(self) -> int:
        """Width of the RNN branch's exported feature."""
        return self.rnn_hidden2 if self.rnn_order == "fc-first" else self.rnn_fc2

    @property
    def feature_width(self) -> int:
        """Width of the joint [cnn || rnn] feature, the DAE input."""
        return self.cnn_feature + self.rnn_feature

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["patience"] = "off" if self.patience is None else self.patience
        return d


_FIELDS = {f.name: f for f in dataclasses.fields(TrainConfig)}


def _coerce(key: str, raw: str):
    kind = "int or off" if key == "patience" else _FIELDS[key].type
    try:
        if key == "patience":
            return None if raw.lower() in ("off", "none") else int(raw)
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
    except ValueError:
        raise ConfigError(f"config key {key!r}: cannot read {raw!r} as {kind}", key) from None
    return raw


def config_from_dict(values: dict) -> TrainConfig:
    unknown = set(values) - set(_FIELDS)
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(sorted(unknown))}")
    coerced = {k: _coerce(k, str(v)) for k, v in values.items()}
    return TrainConfig(**coerced).validate()


def config_values(data: bytes, path: Path) -> tuple[dict[str, str], dict[str, int]]:
    """Raw key -> value strings of the config text `data`, read from `path`,
    before coercion, and the line number that set each key.

    Rejects invalid UTF-8, lines without '=' and duplicate keys; unknown keys
    and bad values are left to config_from_dict, whose ConfigError names the
    rejected key, so that a caller can name the line that set it.
    """
    values: dict[str, str] = {}
    lines: dict[str, int] = {}
    for lineno, key, value in key_values(data, path, ConfigError):
        if key in values:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        values[key], lines[key] = value, lineno
    return values, lines


def write_config(path: str | Path, config: TrainConfig) -> None:
    lines = [f"{k} = {v}" for k, v in config.to_dict().items()]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
