"""How artifacts reach disk and are read back: the atomic writer, row tables,
the settings text shared with configs, and the SEVX binary tensor container.

Layout: magic ``SEVX``, format version (u32 LE), length-prefixed UTF-8
metadata block (u64 LE length; dotted key = value lines), then named tensors
until EOF. Each tensor is: name length (u64 LE), UTF-8 name, rank (u64 LE),
dims (u64 LE each), raw float32 little-endian payload. Round-trips are
bit-exact; every read error reports the byte offset it happened at.
"""

from __future__ import annotations

import contextlib
import math
import os
import struct
from collections import OrderedDict

import numpy as np

MAGIC = b"SEVX"
VERSION = 1


class ContainerError(IOError):
    """Corrupt or truncated container, with file-and-offset diagnostics."""


def metadata_to_text(meta: dict[str, str]) -> str:
    return "".join(f"{k} = {v}\n" for k, v in meta.items())


def metadata_from_text(text: str) -> dict[str, str]:
    """Inverse of ``metadata_to_text``; blank lines and ``#`` comments are
    skipped, and any other line without ``=``, or a key set twice, raises
    ``ValueError``."""
    meta: dict[str, str] = {}
    key_lines: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, value = line.partition("=")
        if not eq:
            raise ValueError(f"line {lineno}: expected 'key = value', got {line!r}")
        key = key.strip()
        if key in key_lines:
            raise ValueError(f"lines {key_lines[key]} and {lineno}: key {key!r} set twice")
        key_lines[key] = lineno
        meta[key] = value.strip()
    return meta


def value_from_text(key: str, text: str, parse):
    """``parse(text)``; a ``ValueError`` is re-raised with ``key`` in front."""
    try:
        return parse(text)
    except ValueError as exc:
        raise ValueError(f"{key}: {exc}") from None


def list_to_text(items) -> str:
    return ",".join(map(str, items))


def list_from_text(text: str, parse) -> tuple:
    """Inverse of ``list_to_text``: ``parse`` (``int`` or ``float``, which both
    reject a blank item) of each comma-separated item; blank text is ``()``."""
    if not text.strip():
        return ()
    try:
        return tuple(parse(item) for item in text.split(","))
    except ValueError:
        raise ValueError(
            f"expected a comma list of {parse.__name__} values, got {text!r}") from None


@contextlib.contextmanager
def replaced_atomically(path: str, binary: bool = False):
    """A file open on the sibling ``<path>.<pid>.tmp``, in a directory made if
    missing. A clean exit ``os.replace``s it over ``path``; an exception removes
    it. A killed process leaves ``path`` whole, plus at most the sibling. There
    is no fsync: this survives a process crash, not a power loss."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb" if binary else "w", encoding=None if binary else "utf-8") as f:
            yield f
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def write_rows(path: str, rows) -> None:
    """One line per row of ``rows``, its fields (``str`` of each) joined by tabs."""
    with replaced_atomically(path) as f:
        f.writelines("\t".join(map(str, row)) + "\n" for row in rows)


def read_rows(path: str, n: int, parse) -> list:
    """``parse(*fields)`` of each nonblank line, split on whitespace into ``n``
    fields, the last keeping any inner whitespace. A shorter line, or a
    ``ValueError`` from ``parse``, raises ``ValueError`` prefixed ``path:line:``."""
    rows = []
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            fields = line.strip().split(None, n - 1)
            if not fields:
                continue
            if len(fields) < n:
                raise ValueError(f"{path}:{lineno}: expected {n} fields, got {len(fields)}")
            try:
                rows.append(parse(*fields))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    return rows


def write_container(path: str, metadata: str, tensors) -> None:
    """Write named float32 tensors with a metadata header, replacing ``path`` whole.

    ``tensors`` is an iterable of (name, ndarray); order is preserved, so a
    deterministic producer yields byte-identical files.
    """
    meta_bytes = metadata.encode("utf-8")
    with replaced_atomically(path, binary=True) as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", VERSION))
        f.write(struct.pack("<Q", len(meta_bytes)))
        f.write(meta_bytes)
        for name, arr in tensors:
            data = np.ascontiguousarray(arr, dtype="<f4")
            name_bytes = name.encode("utf-8")
            f.write(struct.pack("<Q", len(name_bytes)))
            f.write(name_bytes)
            f.write(struct.pack("<Q", data.ndim))
            for d in data.shape:
                f.write(struct.pack("<Q", d))
            f.write(data.tobytes())


def read_container(path: str) -> tuple[str, "OrderedDict[str, np.ndarray]"]:
    """Read (metadata text, ordered name -> float32 array).

    Every length field is checked against the bytes left in the file before
    anything is allocated, text must be UTF-8, and tensor names must be unique.
    """
    tensors: OrderedDict[str, np.ndarray] = OrderedDict()
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size

        def read(n: int, what: str) -> bytes:
            offset = f.tell()
            if n > size - offset:
                raise ContainerError(
                    f"{path}: truncated or corrupt {what} at offset {offset} "
                    f"(wanted {n} bytes, {size - offset} left)")
            return f.read(n)

        def read_text(n: int, what: str) -> str:
            offset = f.tell()
            try:
                return read(n, what).decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ContainerError(
                    f"{path}: corrupt {what} at offset {offset + exc.start} (not UTF-8)") from None

        magic = read(4, "magic")
        if magic != MAGIC:
            raise ContainerError(f"{path}: bad magic {magic!r} at offset 0, not a SEVX container")
        (version,) = struct.unpack("<I", read(4, "version"))
        if version != VERSION:
            raise ContainerError(f"{path}: unsupported container version {version} at offset 4")
        (meta_len,) = struct.unpack("<Q", read(8, "metadata length"))
        meta = read_text(meta_len, "metadata block")
        while True:
            head = f.read(8)
            if len(head) == 0:
                break
            if len(head) != 8:
                raise ContainerError(
                    f"{path}: truncated tensor header at offset {f.tell() - len(head)}")
            (name_len,) = struct.unpack("<Q", head)
            name_offset = f.tell()
            name = read_text(name_len, "tensor name")
            if name in tensors:
                raise ContainerError(
                    f"{path}: duplicate tensor name {name!r} at offset {name_offset}")
            (rank,) = struct.unpack("<Q", read(8, f"rank of {name!r}"))
            dims_offset = f.tell()
            dims = struct.unpack(f"<{rank}Q", read(8 * rank, f"dims of {name!r}"))
            payload = read(4 * math.prod(dims), f"payload of {name!r}")
            try:
                array = np.frombuffer(payload, dtype="<f4").reshape(dims)
            except ValueError:
                raise ContainerError(
                    f"{path}: corrupt dims of {name!r} at offset {dims_offset}: "
                    f"{dims} is not a valid shape") from None
            tensors[name] = array.copy()
    return meta, tensors
