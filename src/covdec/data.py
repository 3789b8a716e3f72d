"""Dataset I/O: the trial container format, manifests, and synthetic EEG.

TrialFile layout (all little-endian):

    magic        4 bytes  b"EEGT"
    version      u32
    channels     u32
    samples      u32
    label        u32
    sample_rate  f32      provenance only; the pipeline is rate-agnostic
    payload      f32 * channels * samples, row-major

Manifest grammar (UTF-8, one "key = value" per line, '#' comments):

    task = long_words
    classes = cooperate,independent
    subject = S3
    trial = trials/t0000.eegt      # repeated; paths relative to manifest
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from .config import _read_key_values
from .covariance import Trial
from .errors import ConfigError, DataError, ParseError

TRIAL_MAGIC = b"EEGT"
TRIAL_VERSION = 1
_HEADER = struct.Struct("<4sIIIIf")
_LABEL_OFFSET = 16  # byte offset of the label field within the header

# Class inventories of the public imagined-speech tasks this pipeline targets
# (label index = list position).
TASK_CLASSES: dict[str, list[str]] = {
    "vowels": ["a", "i", "u"],
    "short_words": ["in", "out", "up"],
    "long_words": ["cooperate", "independent"],
}

# Previously reported per-subject long-word accuracies (%), kept as comparison
# targets for runs on the real dataset; not reproducible from synthetic data.
REFERENCE_LONG_WORD_ACCURACY: dict[str, float] = {
    "S2": 77.5, "S3": 90.7, "S6": 73.7, "S7": 86.8, "S9": 80.1, "S11": 71.1,
}


def conversion_contract() -> dict[str, list[str]]:
    """Task -> ordered class names expected from a dataset converter."""
    return {task: list(names) for task, names in TASK_CLASSES.items()}


# ---------------------------------------------------------------------------
# trial files
# ---------------------------------------------------------------------------


def save_trial(path: str | Path, trial: Trial, sample_rate_hz: float = 0.0) -> None:
    """Write one trial; float64 samples are stored at float32 precision."""
    header = _HEADER.pack(
        TRIAL_MAGIC, TRIAL_VERSION, trial.channels, trial.samples,
        trial.label, sample_rate_hz,
    )
    payload = np.ascontiguousarray(trial.data, dtype="<f4").tobytes()
    Path(path).write_bytes(header + payload)


def load_trial(
    path: str | Path,
    max_label: int | None = None,
    subject_id: str = "",
) -> tuple[Trial, float]:
    """Read one trial file; returns (trial, sample_rate_hz)."""
    p = Path(path)
    if not p.is_file():
        raise DataError(f"trial file not found: {p}")
    blob = p.read_bytes()
    if len(blob) < _HEADER.size:
        raise ParseError(
            f"{p}: truncated at byte {len(blob)} "
            f"(header needs {_HEADER.size} bytes)"
        )
    magic, version, channels, samples, label, rate = _HEADER.unpack_from(blob)
    if magic != TRIAL_MAGIC:
        raise ParseError(f"{p}: bad magic {magic!r} at byte 0 (expected {TRIAL_MAGIC!r})")
    if version != TRIAL_VERSION:
        raise ParseError(f"{p}: unsupported format version {version} at byte 4")
    expected = _HEADER.size + channels * samples * 4
    if len(blob) < expected:
        raise ParseError(
            f"{p}: truncated at byte {len(blob)} (payload needs {expected} bytes)"
        )
    if len(blob) > expected:
        raise ParseError(f"{p}: {len(blob) - expected} trailing bytes at byte {expected}")
    if max_label is not None and label >= max_label:
        raise ParseError(
            f"{p}: label {label} out of range [0, {max_label}) at byte {_LABEL_OFFSET}"
        )
    data = (
        np.frombuffer(blob, dtype="<f4", offset=_HEADER.size)
        .reshape(channels, samples)
        .astype(np.float64)
    )
    trial = Trial(data, int(label), subject_id=subject_id, trial_id=p.stem)
    return trial, float(rate)


# ---------------------------------------------------------------------------
# manifests
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Manifest:
    task: str
    classes: list[str]
    subject: str
    trial_paths: list[Path]

    def __post_init__(self):
        if not self.classes:
            raise DataError("manifest declares no classes")
        if len(set(self.classes)) != len(self.classes):
            raise DataError(f"duplicate class names: {self.classes}")


def load_manifest(path: str | Path) -> Manifest:
    p = Path(path)
    if not p.is_file():
        raise DataError(f"manifest not found: {p}")
    task, subject, classes = "", "", []
    trial_paths: list[Path] = []
    # resolved once: an entry is joined to it as written, not resolved itself
    root = p.parent.resolve()
    for lineno, key, value in _read_key_values(p, ParseError):
        if key == "task":
            task = value
        elif key == "subject":
            subject = value
        elif key == "classes":
            classes = [c.strip() for c in value.split(",") if c.strip()]
        elif key == "trial":
            trial_paths.append(root / value)
        else:
            raise ParseError(f"{p}:{lineno}: unknown key {key!r}")
    return Manifest(task, classes, subject, trial_paths)


def save_manifest(path: str | Path, manifest: Manifest) -> None:
    p = Path(path)
    lines = [
        f"task = {manifest.task}",
        f"classes = {','.join(manifest.classes)}",
        f"subject = {manifest.subject}",
    ]
    for tp in manifest.trial_paths:
        rel = Path(tp)
        if rel.is_absolute():
            rel = rel.relative_to(p.parent.resolve())
        lines.append(f"trial = {rel.as_posix()}")
    p.write_text("\n".join(lines) + "\n", encoding="utf-8")


def load(manifest_path: str | Path) -> tuple[Iterator[Trial], Manifest]:
    """(the manifest's trials, the manifest), the trials read lazily.

    The manifest is read and checked at once. The trials come from an
    iterator that reads each file only when asked for the next trial, in
    manifest order, checking its label against the manifest's classes then;
    it keeps no reference to a trial it has yielded, so a consumer that
    reduces each trial as it arrives (`covariance.prepare`) holds one raw
    trial at a time. The iterator can be consumed once.
    """
    manifest = load_manifest(manifest_path)
    return _read_trials(manifest), manifest


def _read_trials(manifest: Manifest) -> Iterator[Trial]:
    k = len(manifest.classes)
    for tp in manifest.trial_paths:
        # no local name: a suspended generator would keep the trial alive
        yield load_trial(tp, max_label=k, subject_id=manifest.subject)[0]


# ---------------------------------------------------------------------------
# synthetic EEG
# ---------------------------------------------------------------------------


# the largest |noise_sigma| and |signature_strength| gen_synth takes: a sample
# is at most (1 + |strength|) * sqrt(2 * channels) + noise_sigma * |z|, under
# 1e35 with fewer than 2**31 channels and |z| < 1e3 (beyond any normal draw),
# so every sample is finite in float32 (max 3.4e38)
SYNTH_SCALE_MAX = 1e30


@dataclass(frozen=True)
class SynthSpec:
    channels: int = 8
    samples: int = 128
    classes: int = 3
    trials_per_class: int = 40
    noise_sigma: float = 0.05
    signature_strength: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if min(self.channels, self.samples, self.classes, self.trials_per_class) < 1:
            raise ConfigError("synth spec fields must be positive")
        # NaN compares False against any bound, so finiteness is its own test
        for name, value in (("noise_sigma", self.noise_sigma),
                            ("signature_strength", self.signature_strength)):
            if not math.isfinite(value):
                raise ConfigError(f"synth spec {name} must be finite, got {value}")
            if abs(value) > SYNTH_SCALE_MAX:
                raise ConfigError(
                    f"synth spec {name} must be at most {SYNTH_SCALE_MAX:g} in "
                    f"magnitude, got {value}"
                )
        if self.noise_sigma < 0:
            raise ConfigError(f"noise sigma must be >= 0, got {self.noise_sigma}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.channels > self.samples // 2 - 1:
            raise ConfigError(
                f"need channels <= samples/2 - 1 for distinct source frequencies "
                f"({self.channels} channels, {self.samples} samples)"
            )


def gen_synth(spec: SynthSpec) -> list[Trial]:
    """Deterministic synthetic trials whose class identity lives in channel
    covariance.

    Each trial mixes unit-variance sinusoidal sources (random distinct integer
    cycle counts, random phases, exactly orthogonal over the window) through a
    class-specific matrix Q_k @ diag(gains), then adds white noise. The class
    covariance is then Q_k diag(gains^2) Q_k^T + noise, so separability decays
    as noise grows.
    """
    return list(_synth_trials(spec))


def _synth_trials(spec: SynthSpec) -> Iterator[Trial]:
    """gen_synth's trials, drawn one at a time as they are asked for: the class
    mixers first, then per trial its frequencies, phases and noise."""
    rng = np.random.default_rng(spec.seed)
    c, t_len = spec.channels, spec.samples
    gains = np.linspace(1.0, 1.0 + spec.signature_strength, c)

    mixers = []
    for _ in range(spec.classes):
        q, r = np.linalg.qr(rng.standard_normal((c, c)))
        q = q * np.where(np.diag(r) >= 0, 1.0, -1.0)  # canonical column signs
        mixers.append(q * gains)

    t_axis = np.arange(t_len)
    for k in range(spec.classes):
        for j in range(spec.trials_per_class):
            freqs = rng.choice(np.arange(1, t_len // 2), size=c, replace=False)
            phases = rng.uniform(0.0, 2.0 * np.pi, size=c)
            sources = np.sqrt(2.0) * np.sin(
                2.0 * np.pi * freqs[:, None] * t_axis / t_len + phases[:, None]
            )
            x = mixers[k] @ sources
            if spec.noise_sigma > 0:
                x = x + spec.noise_sigma * rng.standard_normal((c, t_len))
            # snap to storage precision so save -> load is the identity; no
            # local name, since a suspended generator would keep the trial alive
            yield Trial(x.astype(np.float32).astype(np.float64), k,
                        subject_id="synth", trial_id=f"c{k}-t{j:03d}")


def write_synth_dataset(out_dir: str | Path, spec: SynthSpec, task: str = "synth") -> Path:
    """Materialize gen_synth output as trial files plus a manifest.

    Each trial is written as soon as it is drawn, so one trial is in memory
    at a time."""
    out = Path(out_dir)
    (out / "trials").mkdir(parents=True, exist_ok=True)
    root = out.resolve()  # resolving each trial path would follow a symlinked trials/
    paths = []
    # no enumerate(): its reused result tuple would keep the last trial alive
    for trial in _synth_trials(spec):
        path = root / "trials" / f"t{len(paths):04d}.eegt"
        save_trial(path, trial, sample_rate_hz=0.0)
        paths.append(path)
        del trial  # release it before the generator draws the next one
    manifest = Manifest(
        task=task,
        classes=[f"class{k}" for k in range(spec.classes)],
        subject="synth",
        trial_paths=paths,
    )
    manifest_path = out / "manifest.txt"
    save_manifest(manifest_path, manifest)
    return manifest_path
