"""Named parameter collections, the Adam update, and the CVDP weight format.

CVDP file layout (all little-endian):

    magic        4 bytes  b"CVDP"
    version      u32
    count        u32      number of entries
    per entry:
        name_len u16
        name     UTF-8 bytes
        rank     u32
        dims     u32 * rank
        payload  f64 * prod(dims), row-major

Files hold parameter values only. "::" is reserved and rejected in parameter
names: older writers appended Adam moment buffers as "<param>::adam_m" and
"<param>::adam_v" entries, which the reader still validates and then drops.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .autodiff import Node
from .errors import ConfigError, NumericError, ParseError, StateError

MAGIC = b"CVDP"
FORMAT_VERSION = 1

_ADAM_M = "::adam_m"
_ADAM_V = "::adam_v"


class ParamStore:
    """Ordered name -> Node map with per-parameter, in-memory Adam moment buffers.

    Iteration follows insertion order, which also fixes the on-disk entry
    order, so identical construction yields byte-identical files.
    """

    def __init__(self):
        self._nodes: dict[str, Node] = {}
        self._adam_m: dict[str, np.ndarray] = {}
        self._adam_v: dict[str, np.ndarray] = {}

    def add(self, name: str, value) -> Node:
        if not name or _is_reserved(name):
            raise ConfigError(f"invalid parameter name {name!r}")
        if name in self._nodes:
            raise ConfigError(f"duplicate parameter name {name!r}")
        node = Node(value, op="param")
        self._nodes[name] = node
        return node

    def __getitem__(self, name: str) -> Node:
        return self._nodes[name]

    def __contains__(self, name: str) -> bool:
        return name in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self) -> Iterator[str]:
        return iter(self._nodes)

    def names(self) -> list[str]:
        return list(self._nodes)

    def items(self) -> Iterable[tuple[str, Node]]:
        return self._nodes.items()

    def zero_grad(self) -> None:
        for node in self._nodes.values():
            node.grad[...] = 0.0

    def snapshot(self) -> dict[str, np.ndarray]:
        """Copy of all current values, for checkpointing."""
        return {name: node.value.copy() for name, node in self._nodes.items()}

    def load_values(self, values: dict[str, np.ndarray]) -> None:
        for name, arr in values.items():
            self._nodes[name].value[...] = arr

    def adam_buffers(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        """Moment buffers for one parameter, created as zeros on first use."""
        if name not in self._adam_m:
            shape = self._nodes[name].value.shape
            self._adam_m[name] = np.zeros(shape)
            self._adam_v[name] = np.zeros(shape)
        return self._adam_m[name], self._adam_v[name]


def _is_reserved(name: str) -> bool:
    return "::" in name


def require(store: ParamStore, names: Iterable[str], stage: str) -> None:
    """Raise StateError naming the stage when any expected weight is absent."""
    missing = [n for n in names if n not in store]
    if missing:
        raise StateError(f"stage '{stage}' missing parameter(s): {', '.join(missing)}")


def adam_step(
    store: ParamStore,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
    t: int = 1,
) -> None:
    """Standard in-place Adam update with bias correction at step t >= 1."""
    if t < 1:
        raise ConfigError(f"adam_step: step count must be >= 1, got {t}")
    bc1 = 1.0 - beta1**t
    bc2 = 1.0 - beta2**t
    for name, node in store.items():
        g = node.grad
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient for parameter '{name}'")
        m, v = store.adam_buffers(name)
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * (g * g)
        node.value -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _pack_entry(name: str, arr: np.ndarray) -> bytes:
    name_b = name.encode("utf-8")
    parts = [struct.pack("<H", len(name_b)), name_b, struct.pack("<I", arr.ndim)]
    parts.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
    parts.append(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    return b"".join(parts)


def save(store: ParamStore, path: str | Path) -> None:
    """Write the store's parameter values to a CVDP file."""
    entries = [_pack_entry(name, node.value) for name, node in store.items()]
    blob = MAGIC + struct.pack("<II", FORMAT_VERSION, len(entries)) + b"".join(entries)
    Path(path).write_bytes(blob)


class _Reader:
    """Byte cursor that reports the exact offset on truncation."""

    def __init__(self, data: bytes, path: str):
        self.data = data
        self.path = path
        self.off = 0

    def take(self, n: int) -> bytes:
        if self.off + n > len(self.data):
            raise ParseError(
                f"{self.path}: truncated at byte {self.off} "
                f"(need {n} bytes, {len(self.data) - self.off} available)"
            )
        out = self.data[self.off : self.off + n]
        self.off += n
        return out

    def u16(self) -> int:
        return struct.unpack("<H", self.take(2))[0]

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]


def load(path: str | Path) -> ParamStore:
    """Read a CVDP file back into a ParamStore; moment entries are dropped."""
    p = Path(path)
    if not p.exists():
        raise ParseError(f"weight file not found: {p}")
    r = _Reader(p.read_bytes(), str(p))
    magic = r.take(4)
    if magic != MAGIC:
        raise ParseError(f"{p}: bad magic {magic!r} at byte 0 (expected {MAGIC!r})")
    version = r.u32()
    if version != FORMAT_VERSION:
        raise ParseError(f"{p}: unsupported format version {version}")
    count = r.u32()

    store = ParamStore()
    moments: list[str] = []
    for _ in range(count):
        name_off = r.off
        name_bytes = r.take(r.u16())
        try:
            name = name_bytes.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(
                f"{p}: entry name is not valid UTF-8 at byte {name_off + 2 + exc.start}"
            ) from None
        rank = r.u32()
        dims = [r.u32() for _ in range(rank)]
        size = math.prod(dims)  # exact; a wrapped int64 product could pass as 0
        payload = r.take(8 * size)
        arr = np.frombuffer(payload, dtype="<f8").reshape(dims).astype(np.float64)
        if not np.all(np.isfinite(arr)):
            raise ParseError(f"{p}: non-finite values in entry '{name}' at byte {name_off}")
        if _is_reserved(name):
            moments.append(name)
        else:
            if name in store:
                raise ParseError(f"{p}: duplicate entry '{name}' at byte {name_off}")
            store.add(name, arr)
    if r.off != len(r.data):
        raise ParseError(f"{p}: {len(r.data) - r.off} trailing bytes at byte {r.off}")

    paired: dict[str, set[str]] = {_ADAM_M: set(), _ADAM_V: set()}
    for full_name in moments:
        base, sep, suffix = full_name.rpartition("::")
        if sep + suffix not in paired:
            raise ParseError(f"{p}: unrecognized reserved entry '{full_name}'")
        if base not in store:
            raise ParseError(f"{p}: moment entry '{full_name}' has no parameter")
        paired[sep + suffix].add(base)
    if paired[_ADAM_M] != paired[_ADAM_V]:
        raise ParseError(f"{p}: unpaired Adam moment entries")
    return store
