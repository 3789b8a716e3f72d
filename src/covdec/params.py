"""Named parameter collections, the Adam update, and the CVDP weight format.

In memory, a store packs itself on its first zero_grad() or adam_step(): its
values, gradients, Adam moments and scratch space move into flat float64
buffers, parameters end to end (see ParamStore), so that adam_step is a fixed
sequence of in-place numpy calls over every parameter at once. Loading and
forward evaluation never pack a store, so they allocate no gradient or moment
buffer.

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

# rows of the packed buffer: values, gradients, Adam m, Adam v, two scratch
_ROWS = 6
_VALUE, _GRAD = 0, 1


class ParamStore:
    """Ordered name -> Node map, packed into flat training buffers on first use.

    Iteration follows insertion order, which also fixes the on-disk entry
    order, so identical construction yields byte-identical files.

    Packing (on the first zero_grad() or adam_step()) allocates one [6, n]
    float64 array, n the total parameter count: rows hold the values, the
    gradients, the Adam first and second moments and two scratch arrays.
    Each parameter takes the same slice of every row, in insertion order, and
    its Node's .value and .grad become views of its value and gradient
    slices. Values and any gradient allocated before packing are copied in.
    A view that a caller later replaces by assignment (`node.grad = ...`) is
    copied into its slice and rebound at the next zero_grad() or adam_step().
    A packed store takes no new parameters; unpack() returns it to owned
    value arrays and frees the buffer.
    """

    def __init__(self):
        self._nodes: dict[str, Node] = {}
        self._flat: np.ndarray | None = None
        self._views: list[tuple[Node, np.ndarray, np.ndarray]] = []

    def add(self, name: str, value) -> Node:
        if not name or _is_reserved(name):
            raise ConfigError(f"invalid parameter name {name!r}")
        if name in self._nodes:
            raise ConfigError(f"duplicate parameter name {name!r}")
        if self._flat is not None:
            raise StateError(f"cannot add parameter {name!r} to a store packed for training")
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
        self._packed()[_GRAD].fill(0.0)

    def snapshot(self) -> dict[str, np.ndarray]:
        """Copy of all current values, for checkpointing."""
        return {name: node.value.copy() for name, node in self._nodes.items()}

    def load_values(self, values: dict[str, np.ndarray]) -> None:
        for name, arr in values.items():
            self._nodes[name].value[...] = arr

    def unpack(self) -> None:
        """Free the training buffers: each value becomes an owned copy of its
        slice, and the gradients, Adam moments and scratch rows are dropped.
        A later zero_grad() or adam_step() packs the store again, with zeroed
        moments."""
        if self._flat is None:
            return
        for node in self._nodes.values():
            node.value = node.value.copy()
            node._grad = None
        self._flat = None
        self._views = []

    def _packed(self) -> np.ndarray:
        """The [6, n] training buffer, packed on first use, with every view bound."""
        if self._flat is None:
            sizes = [node.value.size for node in self._nodes.values()]
            self._flat = np.zeros((_ROWS, sum(sizes)))
            start = 0
            for node, size in zip(self._nodes.values(), sizes):
                value, grad = (self._flat[row, start : start + size].reshape(node.value.shape)
                               for row in (_VALUE, _GRAD))
                self._views.append((node, value, grad))
                start += size
        for node, value, grad in self._views:
            if node.value is not value:
                value[...] = node.value
                node.value = value
            if node._grad is not grad:
                if node._grad is not None:
                    grad[...] = node._grad
                node._grad = grad
        return self._flat


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
    """Standard in-place Adam update with bias correction at step t >= 1.

    Each element takes the per-parameter formula's operations in the same
    order, lr * (m/bc1) / (sqrt(v/bc2) + eps), so the update is bit-identical
    to evaluating it array by array; it allocates nothing once the store is
    packed. A non-finite gradient raises NumericError naming the first such
    parameter of the store (for the RNN, a fused LSTM parameter such as
    `lstm1.wh`) before any value changes.
    """
    if t < 1:
        raise ConfigError(f"adam_step: step count must be >= 1, got {t}")
    bc1 = 1.0 - beta1**t
    bc2 = 1.0 - beta2**t
    value, g, m, v, s, u = store._packed()
    # the flags go into scratch memory that is overwritten below
    if not np.isfinite(g, out=s.view(np.bool_)[: g.size]).all():
        name = next(n for n, node in store.items() if not np.isfinite(node.grad).all())
        raise NumericError(f"non-finite gradient for parameter '{name}'")
    np.multiply(m, beta1, out=m)
    np.multiply(g, 1.0 - beta1, out=s)
    np.add(m, s, out=m)
    np.multiply(v, beta2, out=v)
    np.multiply(g, g, out=s)
    np.multiply(s, 1.0 - beta2, out=s)
    np.add(v, s, out=v)
    np.divide(v, bc2, out=s)
    np.sqrt(s, out=s)
    np.add(s, eps, out=s)
    np.divide(m, bc1, out=u)
    np.multiply(u, lr, out=u)
    np.divide(u, s, out=u)
    np.subtract(value, u, out=value)


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


_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")


def load(path: str | Path) -> ParamStore:
    """Read a CVDP file back into a ParamStore; moment entries are dropped.

    Every header is walked and checked (truncation, names, dims, trailing
    bytes) before any payload is read; the payloads are then copied out and
    checked for non-finite values in entry order.
    """
    p = Path(path)
    try:
        data = p.read_bytes()
    except (FileNotFoundError, IsADirectoryError, NotADirectoryError):
        raise ParseError(f"weight file not found: {p}") from None
    end = len(data)

    def truncated(off: int, n: int) -> ParseError:
        return ParseError(f"{p}: truncated at byte {off} (need {n} bytes, {end - off} available)")

    if end < 4:
        raise truncated(0, 4)
    if data[:4] != MAGIC:
        raise ParseError(f"{p}: bad magic {data[:4]!r} at byte 0 (expected {MAGIC!r})")
    if end < 8:
        raise truncated(4, 4)
    (version,) = _U32.unpack_from(data, 4)
    if version != FORMAT_VERSION:
        raise ParseError(f"{p}: unsupported format version {version}")
    if end < 12:
        raise truncated(8, 4)
    (count,) = _U32.unpack_from(data, 8)

    # pass 1: headers; each entry becomes (name, its byte offset, payload view)
    entries = []
    params: set[str] = set()
    moments: list[str] = []
    off = 12
    for _ in range(count):
        start = off
        if off + 2 > end:
            raise truncated(off, 2)
        (n,) = _U16.unpack_from(data, off)
        off += 2
        if off + n > end:
            raise truncated(off, n)
        try:
            name = data[off : off + n].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"{p}: entry name is not valid UTF-8 at byte {off + exc.start}") from None
        off += n
        if off + 4 > end:
            raise truncated(off, 4)
        (rank,) = _U32.unpack_from(data, off)
        off += 4
        if off + 4 * rank > end:
            raise truncated(off + (end - off) // 4 * 4, 4)  # the first missing dim
        dims = struct.unpack_from(f"<{rank}I", data, off)
        off += 4 * rank
        size = math.prod(dims)  # exact; a wrapped int64 product could pass as 0
        if off + 8 * size > end:
            raise truncated(off, 8 * size)
        if not name:
            raise ParseError(f"{p}: empty entry name at byte {start}")
        if _is_reserved(name):
            moments.append(name)
        elif name in params:
            raise ParseError(f"{p}: duplicate entry '{name}' at byte {start}")
        else:
            params.add(name)
        try:
            view = np.frombuffer(data, "<f8", size, off).reshape(dims)
        except ValueError as exc:  # more dims than numpy takes, or a 0 beside huge dims
            raise ParseError(
                f"{p}: entry '{name}' at byte {start} has {rank} dims that no array can hold ({exc})"
            ) from None
        entries.append((name, start, view))
        off += 8 * size
    if off != end:
        raise ParseError(f"{p}: {end - off} trailing bytes at byte {off}")

    # pass 2: payloads, copied into aligned arrays; names are checked, so
    # nodes go into the store without ParamStore.add's checks
    store = ParamStore()
    for name, start, view in entries:
        arr = view.astype(np.float64)
        if not np.isfinite(arr).all():
            raise ParseError(f"{p}: non-finite values in entry '{name}' at byte {start}")
        if name in params:
            store._nodes[name] = Node(arr, op="param")

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
