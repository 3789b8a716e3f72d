"""The one way covdec reads an input file: trials, manifests, configs and
every file of a run directory.

`open_regular` opens a path once, without blocking, and hands out the
descriptor only when fstat calls it a regular file; `read_file` takes all
its bytes. A path that names nothing, a directory, a FIFO, a socket or a
device gets the error a missing file gets, so a FIFO in place of an input
cannot stall a command; any other failure to open or read it gets an error
naming the path. The text formats are decoded as UTF-8 (`decode_utf8`) and
the key = value ones split into lines (`key_values`).
"""

from __future__ import annotations

import errno
import os
import stat
from pathlib import Path

from .errors import CovdecError

_FLAGS = os.O_RDONLY | os.O_NONBLOCK | os.O_CLOEXEC

# open() errors meaning that no file is there to read: a missing path, a
# component that is not a directory, a symlink loop, a socket or a device
# with nothing behind it
_ABSENT = frozenset((errno.ENOENT, errno.ENOTDIR, errno.ELOOP, errno.ENXIO, errno.ENODEV))


def open_regular(path: Path, missing: str, error: type[CovdecError]) -> tuple[int, int]:
    """A descriptor open for reading on the regular file at `path`, which the
    caller closes, and the size fstat gives the file.

    Raises error(f"{missing}: {path}") when `path` names no regular file
    (with the path quoted when it holds a NUL byte),
    and error(f"{path}: cannot read (<reason>)") when opening it fails
    otherwise, as for a file without read permission; a caller raises the
    same for a read that fails.
    """
    try:
        fd = os.open(path, _FLAGS)
    except ValueError:  # a NUL byte, which no file name holds
        raise error(f"{missing}: {str(path)!r} (a path cannot hold a NUL byte)") from None
    except OSError as exc:
        if exc.errno in _ABSENT:
            raise error(f"{missing}: {path}") from None
        raise error(f"{path}: cannot read ({exc.strerror})") from None
    try:
        st = os.fstat(fd)
        if stat.S_ISREG(st.st_mode):
            return fd, st.st_size
    except OSError as exc:
        os.close(fd)
        raise error(f"{path}: cannot read ({exc.strerror})") from None
    os.close(fd)
    raise error(f"{missing}: {path}")


def read_file(path: Path, missing: str, error: type[CovdecError]) -> bytes:
    """The whole content of the regular file at `path`, with the errors of
    `open_regular`."""
    fd, size = open_regular(path, missing, error)
    try:
        # one byte past the size fstat gave, so that the file usually takes
        # one read and the empty one that ends the loop. Later reads ask for
        # at most 64 KiB: each read allocates what it asks for, and a second
        # buffer the size of a large file costs glibc a heap trim and the
        # page faults that refill it. Weight files, the large ones, do not
        # come here: `params.read_entries` reads each payload straight into
        # its array
        chunks, size = [], size + 1
        while chunk := os.read(fd, size):
            chunks.append(chunk)
            size = min(size, 1 << 16)
        return b"".join(chunks)
    except OSError as exc:
        raise error(f"{path}: cannot read ({exc.strerror})") from None
    finally:
        os.close(fd)


def decode_utf8(data: bytes, path: Path, error: type[CovdecError]) -> str:
    """`data` as UTF-8 text; invalid bytes raise `error` naming `path` and the byte offset."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: invalid UTF-8 at byte {exc.start}") from None


def key_values(data: bytes, path: Path, error: type[CovdecError]) -> list[tuple[int, str, str]]:
    """(line number, key, value) per "key = value" line of the UTF-8 text
    `data`, read from `path`; '#' starts a comment.

    Invalid UTF-8 and a line without '=' raise `error`; the caller checks
    what the keys mean.
    """
    entries = []
    for lineno, raw in enumerate(decode_utf8(data, path, error).splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise error(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        entries.append((lineno, key, value))
    return entries
