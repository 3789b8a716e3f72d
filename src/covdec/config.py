"""Run configuration: every knob of the three-stage training procedure.

Configs round-trip through a flat "key = value" text file; unknown keys are
rejected so typos cannot silently fall back to defaults. `patience = off`
disables early stopping, which also makes a run exact-epoch: the final-epoch
weights are returned instead of the best-validation checkpoint.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path

from .branches import RNN_AXES, RNN_ORDERS, CnnSpec, RnnSpec
from .autoenc import DaeSpec, HeadSpec
from .errors import ConfigError


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
        if not 0.0 < self.split_fraction < 1.0:
            raise ConfigError(f"split_fraction must be in (0, 1), got {self.split_fraction}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.classes < 2:
            raise ConfigError(f"need at least 2 classes, got {self.classes}")
        if min(self.epochs_stage1, self.epochs_stage2, self.epochs_stage3) < 0:
            raise ConfigError("epoch counts must be >= 0")
        if self.patience is not None and self.patience < 1:
            raise ConfigError(f"patience must be >= 1 or off, got {self.patience}")
        if self.rnn_order not in RNN_ORDERS:
            raise ConfigError(f"rnn_order must be one of {RNN_ORDERS}, got {self.rnn_order!r}")
        if self.rnn_axis not in RNN_AXES:
            raise ConfigError(f"rnn_axis must be one of {RNN_AXES}, got {self.rnn_axis!r}")
        # spec constructors enforce the remaining width invariants
        self.cnn_spec()
        self.rnn_spec()
        self.dae_spec()
        self.head_spec()
        return self

    @property
    def feature_width(self) -> int:
        rnn_feat = self.rnn_hidden2 if self.rnn_order == "fc-first" else self.rnn_fc2
        return self.cnn_feature + rnn_feat

    def cnn_spec(self) -> CnnSpec:
        return CnnSpec(
            filters1=self.cnn_filters1, kernel1=self.cnn_kernel1,
            filters2=self.cnn_filters2, kernel2=self.cnn_kernel2,
            fc1_width=self.cnn_fc1, feature_width=self.cnn_feature,
            classes=self.classes,
        )

    def rnn_spec(self) -> RnnSpec:
        return RnnSpec(
            fc1_width=self.rnn_fc1, fc2_width=self.rnn_fc2,
            hidden1=self.rnn_hidden1, hidden2=self.rnn_hidden2,
            classes=self.classes,
        )

    def dae_spec(self) -> DaeSpec:
        return DaeSpec(
            input_width=self.feature_width, hidden_width=self.dae_hidden,
            latent_width=self.dae_latent,
        )

    def head_spec(self) -> HeadSpec:
        return HeadSpec(
            latent_width=self.dae_latent, hidden_width=self.head_hidden,
            classes=self.classes,
        )

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
        raise ConfigError(f"config key {key!r}: cannot read {raw!r} as {kind}") from None
    return raw


def config_from_dict(values: dict) -> TrainConfig:
    unknown = set(values) - set(_FIELDS)
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(sorted(unknown))}")
    coerced = {k: _coerce(k, str(v)) for k, v in values.items()}
    return TrainConfig(**coerced).validate()


def read_config_values(path: str | Path) -> dict[str, str]:
    """Raw key -> value strings of a config file, before coercion.

    Rejects a missing file, invalid UTF-8, lines without '=' and duplicate
    keys; unknown keys and bad values are left to config_from_dict.
    """
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    try:
        text = p.read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{p}: invalid UTF-8 at byte {exc.start}") from None
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{p}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        if key in values:
            raise ConfigError(f"{p}:{lineno}: duplicate key {key!r}")
        values[key] = value
    return values


def config_from_file(path: str | Path) -> TrainConfig:
    return config_from_dict(read_config_values(path))


def write_config(path: str | Path, config: TrainConfig) -> None:
    lines = [f"{k} = {v}" for k, v in config.to_dict().items()]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
