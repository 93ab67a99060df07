"""The one binary container every walkforge artifact is stored in.

Layout, little-endian throughout:

    MAGIC (4 bytes) | VERSION (u16) | header length (u32) | header | arrays

The header is UTF-8 JSON: {"kind": str, "meta": {...}, "arrays": [[name,
dtype, shape], ...]}. JSON round-trips floats exactly (NaN and 1e308
included), so scalars live in meta. The arrays follow back to back in
header order as raw C-order bytes; `load` reads each one with `readinto`
straight into its final storage. `load_meta` stops after the header, with
the same checks, the file size against the array specs included.
"""

from __future__ import annotations

import json
import math
import os
import struct
import sys
from typing import BinaryIO, Callable, TypeVar

import numpy as np

from .errors import BadArtifact

MAGIC = b"WFAR"
VERSION = 1
_PREFIX = struct.Struct("<4sHI")
_DTYPES = ("<f8", "<i8")

T = TypeVar("T")


def save(path: str, kind: str, meta: dict, arrays: dict[str, np.ndarray]) -> None:
    arrays = {name: np.ascontiguousarray(arr, dtype=arr.dtype.newbyteorder("<"))
              for name, arr in arrays.items()}
    header = json.dumps({
        "kind": kind,
        "meta": meta,
        "arrays": [[name, arr.dtype.str, list(arr.shape)] for name, arr in arrays.items()],
    }).encode("utf-8")
    with open(path, "wb") as f:
        f.write(_PREFIX.pack(MAGIC, VERSION, len(header)))
        f.write(header)
        for arr in arrays.values():
            f.write(memoryview(arr.reshape(-1)).cast("B"))


def _read_header(f: BinaryIO, path: str, kind: str) -> tuple[dict, list[tuple]]:
    """Check the prefix, the header and the file size; return (meta, specs)
    with f positioned at the first array."""
    prefix = f.read(_PREFIX.size)
    if len(prefix) != _PREFIX.size:
        raise BadArtifact(path, "truncated: no container header")
    magic, version, length = _PREFIX.unpack(prefix)
    if magic != MAGIC:
        raise BadArtifact(path, f"bad magic {magic!r}, expected {MAGIC!r}")
    if version != VERSION:
        raise BadArtifact(path, f"unsupported container version {version}")
    # sizes are checked against the file before anything is allocated
    size = os.fstat(f.fileno()).st_size
    if _PREFIX.size + length > size:
        raise BadArtifact(path, f"truncated: header wants {length} bytes, "
                                f"file holds {size - _PREFIX.size}")
    raw = f.read(length)
    try:
        header = json.loads(raw)
        got_kind, meta = header["kind"], header["meta"]
        specs = [(str(name), dtype, tuple(shape)) for name, dtype, shape in header["arrays"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise BadArtifact(path, f"bad container header: {exc}") from exc
    if got_kind != kind:
        raise BadArtifact(path, f"holds a {got_kind!r} artifact, expected {kind!r}")
    for name, dtype, shape in specs:
        if dtype not in _DTYPES or not all(type(d) is int and d >= 0 for d in shape):
            raise BadArtifact(path, f"array {name!r}: bad dtype {dtype!r} or shape {shape}")
    body = sum(math.prod(shape) * np.dtype(dtype).itemsize for _, dtype, shape in specs)
    have = size - f.tell()
    if have != body:
        raise BadArtifact(path, f"truncated or padded: arrays want {body} bytes, "
                                f"file holds {have}")
    return meta, specs


def _build(path: str, kind: str, build: Callable[..., T], *parts) -> T:
    try:
        return build(*parts)
    except (IndexError, KeyError, TypeError, ValueError) as exc:
        raise BadArtifact(path, f"malformed {kind} artifact: {exc!r}") from exc


def load(path: str, kind: str, build: Callable[[dict, dict[str, np.ndarray]], T]) -> T:
    """Read a container of `kind` and return build(meta, arrays).

    Raises BadArtifact on a wrong magic, version or kind, a malformed or
    truncated file, or contents that `build` cannot assemble."""
    with open(path, "rb") as f:
        meta, specs = _read_header(f, path, kind)
        arrays = {}
        for name, dtype, shape in specs:
            arr = np.empty(shape, dtype=np.dtype(dtype).newbyteorder("="))
            view = memoryview(arr.reshape(-1)).cast("B")
            got = f.readinto(view)
            if got != view.nbytes:
                raise BadArtifact(path, f"truncated: array {name!r} wants {view.nbytes} "
                                        f"bytes, got {got}")
            if sys.byteorder != "little":
                arr.byteswap(inplace=True)
            arrays[name] = arr
    return _build(path, kind, build, meta, arrays)


def load_meta(path: str, kind: str, build: Callable[[dict], T]) -> T:
    """Return build(meta) of a container of `kind` without reading its
    arrays; the file is checked, and fails, exactly as `load` checks it."""
    with open(path, "rb") as f:
        meta, _ = _read_header(f, path, kind)
    return _build(path, kind, build, meta)
