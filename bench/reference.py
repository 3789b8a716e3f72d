"""Reference decoder in plain numpy, written from the documented formats and
formulas only (docs/formats.md, the README's architecture description).

It shares no code with covdec: weight files and trial headers are parsed
with `struct`, covariance comes from `np.cov`, and every layer is spelled out from
its formula. The benchmark compares the program's predictions and
probabilities with this decoder's on every trial it checks.

Only the configuration the benchmark trains is supported: lag 0, the
fc-first recurrent branch reading matrix rows. Anything else raises.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np


def read_cvdp(path) -> dict[str, np.ndarray]:
    """Parameter entries of a CVDP weight file; Adam moment entries skipped."""
    blob = Path(path).read_bytes()
    if blob[:4] != b"CVDP":
        raise ValueError(f"{path}: bad magic {blob[:4]!r}")
    version, count = struct.unpack_from("<II", blob, 4)
    if version != 1:
        raise ValueError(f"{path}: unsupported version {version}")
    off = 12
    out: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack_from("<H", blob, off)
        off += 2
        name = blob[off : off + name_len].decode("utf-8")
        off += name_len
        (rank,) = struct.unpack_from("<I", blob, off)
        off += 4
        dims = struct.unpack_from(f"<{rank}I", blob, off)
        off += 4 * rank
        size = int(np.prod(dims)) if rank else 1
        values = struct.unpack_from(f"<{size}d", blob, off)
        off += 8 * size
        if "::" not in name:
            out[name] = np.array(values, dtype=np.float64).reshape(dims)
    if off != len(blob):
        raise ValueError(f"{path}: {len(blob) - off} trailing bytes")
    return out


_EEGT_HEADER = struct.Struct("<4sIIIIf")


def _eegt_header(blob: bytes, path) -> tuple[int, int, int]:
    magic, version, channels, samples, label, _rate = _EEGT_HEADER.unpack_from(blob)
    if magic != b"EEGT" or version != 1:
        raise ValueError(f"{path}: not an EEGT v1 file")
    return channels, samples, label


def read_eegt_label(path) -> int:
    with open(path, "rb") as fh:
        return _eegt_header(fh.read(_EEGT_HEADER.size), path)[2]


def read_eegt(path) -> tuple[np.ndarray, int]:
    """([channels, samples] float64 data, label) of one EEGT trial file."""
    blob = Path(path).read_bytes()
    channels, samples, label = _eegt_header(blob, path)
    payload = np.frombuffer(blob, dtype="<f4", count=channels * samples, offset=24)
    return payload.astype(np.float64).reshape(channels, samples), label


def read_manifest(path) -> tuple[list[str], list[Path]]:
    """(class names, trial paths) of a manifest."""
    p = Path(path)
    classes: list[str] = []
    trials: list[Path] = []
    for raw in p.read_text(encoding="utf-8").splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, value = (s.strip() for s in line.split("=", 1))
        if key == "classes":
            classes = [c.strip() for c in value.split(",") if c.strip()]
        elif key == "trial":
            trials.append(p.parent / value)
    return classes, trials


def read_key_values(path) -> dict[str, str]:
    out = {}
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            key, value = (s.strip() for s in line.split("=", 1))
            out[key] = value
    return out


def _relu(x):
    return np.maximum(x, 0.0)


def _sigmoid(x):
    with np.errstate(over="ignore"):  # exp(-x) -> inf gives the right limit, 0
        return 1.0 / (1.0 + np.exp(-x))


def _conv1d(x, w, b):
    """out[n, o, t] = b[o] + sum_{i,k} w[o, i, k] * x[n, i, t + k] (valid)."""
    k = w.shape[2]
    length = x.shape[2] - k + 1
    out = np.zeros((x.shape[0], w.shape[0], length)) + b[None, :, None]
    for j in range(k):
        out += np.einsum("oi,nit->not", w[:, :, j], x[:, :, j : j + length])
    return out


def _lstm(xs, p, prefix):
    """Run one LSTM layer over a list of [N, d] inputs; returns the h sequence.

    i, f, o = sigmoid(x Wx + h Wh + b), g = tanh(same),
    c = f * c + i * g, h = o * tanh(c).
    """
    width = p[f"{prefix}.wh_i"].shape[0]
    h = np.zeros((xs[0].shape[0], width))
    c = np.zeros_like(h)
    hs = []
    for x in xs:
        pre = {
            gate: x @ p[f"{prefix}.wx_{gate}"] + h @ p[f"{prefix}.wh_{gate}"] + p[f"{prefix}.b_{gate}"]
            for gate in "ifgo"
        }
        c = _sigmoid(pre["f"]) * c + _sigmoid(pre["i"]) * np.tanh(pre["g"])
        h = _sigmoid(pre["o"]) * np.tanh(c)
        hs.append(h)
    return hs


class ReferenceDecoder:
    """Loads a run directory and decodes raw [C, T] trials to probabilities."""

    def __init__(self, run_dir):
        run = Path(run_dir)
        self.config = read_key_values(run / "config.txt")
        if self.config["tau"] != "0" or self.config["rnn_order"] != "fc-first" or \
                self.config["rnn_axis"] != "rows":
            raise ValueError("reference decoder supports tau 0, fc-first, rows only")
        self.classes = [
            line for line in (run / "classes.txt").read_text(encoding="utf-8").splitlines() if line
        ]
        self.cnn = read_cvdp(run / "cnn.cvdp")
        self.rnn = read_cvdp(run / "rnn.cvdp")
        self.dae = read_cvdp(run / "dae.cvdp")
        self.head = read_cvdp(run / "head.cvdp")
        norm = read_cvdp(run / "norm.cvdp")
        self.mean, self.std = norm["mean"], norm["std"]

    @classmethod
    def from_params(cls, cnn, rnn, dae, head, mean, std) -> "ReferenceDecoder":
        """A decoder over parameter dicts held in memory, named as in the
        `.cvdp` files; `probabilities` is all it offers."""
        self = cls.__new__(cls)
        self.cnn, self.rnn, self.dae, self.head = cnn, rnn, dae, head
        self.mean, self.std = mean, std
        return self

    def probabilities(self, trials) -> np.ndarray:
        """[N, K] class probabilities for an iterable of N raw trials."""
        mats = np.stack([(np.cov(x) - self.mean) / self.std for x in trials])
        p = self.cnn
        h = _relu(_conv1d(mats, p["conv1.w"], p["conv1.b"]))
        h = _relu(_conv1d(h, p["conv2.w"], p["conv2.b"]))
        h = h.reshape(h.shape[0], -1)
        h = _relu(h @ p["fc1.w"] + p["fc1.b"])
        cnn_feature = _relu(h @ p["fc2.w"] + p["fc2.b"])

        p = self.rnn
        steps = [
            _relu(_relu(mats[:, t, :] @ p["fc1.w"] + p["fc1.b"]) @ p["fc2.w"] + p["fc2.b"])
            for t in range(mats.shape[1])
        ]
        rnn_feature = _lstm(_lstm(steps, p, "lstm1"), p, "lstm2")[-1]

        features = np.concatenate([cnn_feature, rnn_feature], axis=1)
        p = self.dae
        latent = _relu(_relu(features @ p["enc1.w"] + p["enc1.b"]) @ p["enc2.w"] + p["enc2.b"])
        p = self.head
        logits = _relu(latent @ p["fc1.w"] + p["fc1.b"]) @ p["out.w"] + p["out.b"]
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        return e / e.sum(axis=1, keepdims=True)
