"""Named parameter collections, their layouts and init, the Adam update, and
the CVDP weight format.

A store is made whole from an ordered name -> array mapping
(`ParamStore(arrays)`; `init_values` draws a layout's arrays), so its names
are fixed when it is made. For training, a store packs (`pack()`, which
`training._fit` calls once per stage): its values, gradients, Adam moments
and scratch space move into flat float64 buffers, parameters end to end (see
ParamStore), and each parameter's value and gradient views are bound then,
once, so that zero_grad and adam_step are fixed sequences of in-place numpy
calls over every parameter at once. Loading and forward evaluation never
pack a store, so they allocate no gradient or moment buffer.

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

An entry is a name and an array; no name is reserved. Files hold parameter
values only; the entries an older writer appended after them (Adam moments,
"<param>::adam_m" and "<param>::adam_v") load as extra entries that no stage
reads. A lookup of an absent name raises StateError naming it.
Payloads move between the file and their own arrays: `save` writes each
array's buffer after its header, and `read_entries` reads each payload
straight into a fresh array, so a loaded parameter is one copy of its bytes.
"""

from __future__ import annotations

import io
import math
import os
import struct
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from .autodiff import Node
from .errors import ConfigError, CovdecError, NumericError, ParseError, StateError
from .files import open_regular

MAGIC = b"CVDP"
FORMAT_VERSION = 1

# rows of the packed buffer: values, gradients, Adam m, Adam v, one scratch
_ROWS = 5
_VALUE, _GRAD = 0, 1

_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8


class ParamStore:
    """Ordered name -> Node map, packed into flat training buffers for training.

    A store is made whole from an ordered name -> array mapping, each array
    held as it is; its names are fixed then. Iteration follows that order,
    which also fixes the on-disk entry order, so identical construction
    yields byte-identical files.

    pack() (which zero_grad() and adam_step() call too) allocates one [5, n]
    float64 array, n the total parameter count: rows hold the values, the
    gradients, the Adam first and second moments and one scratch array.
    adam_step spends the gradient row as scratch space too, so after a step
    it holds that step's update, not the gradient.
    Each parameter takes the same slice of every row, in order, and its
    Node's .value and .grad become views of its value and gradient slices,
    bound once, when the store packs. Values and any gradient that arrived
    before packing are copied in. unpack() returns the store to owned value
    arrays and frees the buffer.
    """

    def __init__(self, arrays: Mapping[str, np.ndarray]):
        if "" in arrays:
            raise ConfigError("invalid parameter name ''")
        self._nodes = {name: Node(arr, op="param") for name, arr in arrays.items()}
        self._flat: np.ndarray | None = None

    def __getitem__(self, name: str) -> Node:
        try:
            return self._nodes[name]
        except KeyError:
            raise StateError(f"missing parameter '{name}'") from None

    def names(self) -> list[str]:
        return list(self._nodes)

    def items(self) -> Iterable[tuple[str, Node]]:
        return self._nodes.items()

    def zero_grad(self) -> None:
        self.pack()[_GRAD].fill(0.0)

    def unpack(self) -> None:
        """Free the training buffers: each value becomes an owned copy of its
        slice, and the gradients, Adam moments and scratch rows are dropped.
        A later pack() packs the store again, with zeroed moments."""
        if self._flat is None:
            return
        for node in self._nodes.values():
            node.value = node.value.copy()
            node._grad = None
        self._flat = None

    def pack(self) -> np.ndarray:
        """The [5, n] training buffer, allocated by the first call after the
        store was made or unpacked, which is also when every value and
        gradient view is bound; row 0 holds the values."""
        if self._flat is None:
            sizes = [node.value.size for node in self._nodes.values()]
            self._flat = np.zeros((_ROWS, sum(sizes)))
            start = 0
            for node, size in zip(self._nodes.values(), sizes):
                value, grad = (self._flat[row, start : start + size].reshape(node.value.shape)
                               for row in (_VALUE, _GRAD))
                value[...] = node.value
                if node._grad is not None:
                    grad[...] = node._grad
                node.value, node._grad = value, grad
                start += size
        return self._flat


# A stage's parameter layout: its entries in order, each (name, shape, init
# rule). A weight's rule is ("he" | "xavier" | "logit", fan_in, fan_out), of
# which he reads fan_in only and logit neither; a constant's is ("zeros",) or
# ("ones",).
Layout = list[tuple[str, tuple[int, ...], tuple]]


def linear_layout(name: str, n_in: int, n_out: int, rule: str) -> Layout:
    """The entries of one linear layer: `name.w` [n_in, n_out] drawn by
    `rule` ("he", "xavier" or "logit"), then `name.b` [n_out] of zeros."""
    return [(f"{name}.w", (n_in, n_out), (rule, n_in, n_out)),
            (f"{name}.b", (n_out,), ("zeros",))]


def init_values(layout: Layout, seed: int) -> dict[str, np.ndarray]:
    """Fresh parameter arrays, one per layout entry in order, each drawn from
    one generator seeded with `seed`, so the layout fixes the draws."""
    rng = np.random.default_rng(seed)
    values = {}
    for name, shape, (rule, *fans) in layout:
        if rule == "he":
            values[name] = rng.normal(0.0, np.sqrt(2.0 / fans[0]), size=shape)
        elif rule == "xavier":
            limit = np.sqrt(6.0 / sum(fans))
            values[name] = rng.uniform(-limit, limit, size=shape)
        elif rule == "logit":
            # small logit layer so an untrained net predicts near-uniformly
            values[name] = rng.normal(0.0, 0.01, size=shape)
        else:
            values[name] = np.full(shape, 1.0 if rule == "ones" else 0.0)
    return values


def adam_step(store: ParamStore, lr: float, t: int = 1) -> None:
    """Standard in-place Adam update with bias correction at step t >= 1,
    beta1 = 0.9, beta2 = 0.999 and eps = 1e-8.

    Each element takes the per-parameter formula's operations in the same
    order, lr * (m/bc1) / (sqrt(v/bc2) + eps), so the update is bit-identical
    to evaluating it array by array; it allocates nothing once the store is
    packed. v is updated first, through the scratch row; the gradient is
    then last read by the m update, which writes (1 - beta1) * g over it, and
    the update is made in the same row: after the call every gradient holds
    the step's update, lr * (m/bc1) / (sqrt(v/bc2) + eps). A non-finite
    gradient raises NumericError naming the first such parameter of the store
    (for the RNN, a fused LSTM parameter such as `lstm1.wh`) before any value
    changes.
    """
    if t < 1:
        raise ConfigError(f"adam_step: step count must be >= 1, got {t}")
    bc1 = 1.0 - _BETA1**t
    bc2 = 1.0 - _BETA2**t
    value, g, m, v, s = store.pack()
    # the flags go into scratch memory that is overwritten below
    if not np.isfinite(g, out=s.view(np.bool_)[: g.size]).all():
        name = next(n for n, node in store.items() if not np.isfinite(node.grad).all())
        raise NumericError(f"non-finite gradient for parameter '{name}'")
    np.multiply(v, _BETA2, out=v)
    np.multiply(g, g, out=s)
    np.multiply(s, 1.0 - _BETA2, out=s)
    np.add(v, s, out=v)
    np.multiply(m, _BETA1, out=m)
    np.multiply(g, 1.0 - _BETA1, out=g)  # the gradient's last read
    np.add(m, g, out=m)
    np.divide(v, bc2, out=s)
    np.sqrt(s, out=s)
    np.add(s, _EPS, out=s)
    np.divide(m, bc1, out=g)
    np.multiply(g, lr, out=g)
    np.divide(g, s, out=g)
    np.subtract(value, g, out=value)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_BUFFER = 1 << 16


def _header(name: str, arr: np.ndarray) -> bytes:
    name_b = name.encode("utf-8")
    return (_U16.pack(len(name_b)) + name_b + _U32.pack(arr.ndim)
            + struct.pack(f"<{arr.ndim}I", *arr.shape))


def save(store: ParamStore, path: str | Path) -> None:
    """Write the store's parameter values to a CVDP file: each entry's header,
    then its array's own buffer. A Node holds a C-contiguous float64 array
    (`autodiff.as_tensor`; a split LSTM gate is made contiguous when
    `branches.split_rnn_gates` hands it to its Node), so only a big-endian
    machine copies a payload here."""
    headers = [_header(name, node.value) for name, node in store.items()]
    with open(path, "wb") as f:
        f.write(MAGIC + struct.pack("<II", FORMAT_VERSION, len(headers)))
        for header, (_, node) in zip(headers, store.items()):
            f.write(header)
            f.write(np.ascontiguousarray(node.value, dtype="<f8").data)


def load(path: str | Path) -> ParamStore:
    """Read a CVDP file back into a ParamStore that holds each entry's payload
    in an array of its own (`read_entries` lists the checks)."""
    return ParamStore(read_entries(Path(path)))


def read_entries(path: Path, missing: str = "weight file not found",
                 error: type[CovdecError] = ParseError) -> dict[str, np.ndarray]:
    """The entries of the CVDP file at `path`: name -> a fresh float64 array
    holding its payload, in file order.

    One pass reads the file through a 64 KiB buffer. Each header is checked
    (truncation, names, dims) against the size fstat gave, and only then is
    its payload read straight into a new array of its dims, so no array
    outgrows the file; a file that ends early is truncated where it ends.
    After the last header come the trailing-bytes check and the payloads'
    check for non-finite values in entry order. A path that names no regular
    file raises error(f"{missing}: {path}") (`files.open_regular`); a fault
    in the file raises ParseError.
    """
    fd, end = open_regular(path, missing, error)
    try:
        with open(fd, "rb", buffering=_BUFFER, closefd=False) as f:
            return _read_entries(f, end, path)
    except OSError as exc:
        raise error(f"{path}: cannot read ({exc.strerror})") from None
    finally:
        os.close(fd)


def _read_entries(f: io.BufferedReader, end: int, path: Path) -> dict[str, np.ndarray]:
    def truncated(off: int, n: int) -> ParseError:
        return ParseError(f"{path}: truncated at byte {off} (need {n} bytes, {end - off} available)")

    def take(off: int, n: int) -> bytes:
        """The n bytes at `off`, where the reader stands."""
        nonlocal end
        if off + n > end:
            raise truncated(off, n)
        data = f.read(n)
        if len(data) < n:  # the file shrank after fstat
            end = off + len(data)
            raise truncated(off, n)
        return data

    magic = take(0, 4)
    if magic != MAGIC:
        raise ParseError(f"{path}: bad magic {magic!r} at byte 0 (expected {MAGIC!r})")
    (version,) = _U32.unpack(take(4, 4))
    if version != FORMAT_VERSION:
        raise ParseError(f"{path}: unsupported format version {version}")
    (count,) = _U32.unpack(take(8, 4))

    # pass 1: headers, each payload read into its array; each entry becomes
    # (name, its byte offset, array)
    entries = []
    names: set[str] = set()
    off = 12
    for _ in range(count):
        start = off
        (n,) = _U16.unpack(take(off, 2))
        off += 2
        try:
            name = take(off, n).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: entry name is not valid UTF-8 at byte {off + exc.start}") from None
        off += n
        (rank,) = _U32.unpack(take(off, 4))
        off += 4
        if off + 4 * rank > end:
            raise truncated(off + (end - off) // 4 * 4, 4)  # the first missing dim
        dims = struct.unpack(f"<{rank}I", take(off, 4 * rank))
        off += 4 * rank
        size = math.prod(dims)  # exact; a wrapped int64 product could pass as 0
        if off + 8 * size > end:
            raise truncated(off, 8 * size)
        if not name:
            raise ParseError(f"{path}: empty entry name at byte {start}")
        if name in names:
            raise ParseError(f"{path}: duplicate entry '{name}' at byte {start}")
        names.add(name)
        try:
            arr = np.empty(dims, "<f8")
        except ValueError as exc:  # more dims than numpy takes, or a 0 beside huge dims
            raise ParseError(
                f"{path}: entry '{name}' at byte {start} has {rank} dims that no array can hold ({exc})"
            ) from None
        got = f.readinto(arr)
        if got < 8 * size:  # the file shrank after fstat
            end = off + got
            raise truncated(off, 8 * size)
        entries.append((name, start, arr))
        off += 8 * size
    if off != end:
        raise ParseError(f"{path}: {end - off} trailing bytes at byte {off}")

    # pass 2: payloads. A finite sum proves every value finite; a sum that
    # overflowed, or met an inf or NaN, sends its entry to the exact check
    with np.errstate(over="ignore", invalid="ignore"):
        sums = [arr.sum() for _, _, arr in entries]
    for (name, start, arr), total in zip(entries, sums):
        if not math.isfinite(total) and not np.isfinite(arr).all():
            raise ParseError(f"{path}: non-finite values in entry '{name}' at byte {start}")
    return {name: arr for name, _, arr in entries}
