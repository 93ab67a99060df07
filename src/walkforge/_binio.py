"""The one binary container every walkforge artifact is stored in.

Layout, little-endian throughout:

    MAGIC (4 bytes) | VERSION (u16) | header length (u32) | header | arrays

The header is UTF-8 JSON: {"kind": str, "meta": {...}, "arrays": [[name,
dtype, shape], ...]}. JSON round-trips floats exactly (NaN and 1e308
included), so scalars live in meta. The arrays follow back to back in
header order as raw C-order bytes; `load` reads each one with `readinto`
straight into the storage its kind's loader lays out for it: a new array
(`empty`), or a view of a buffer the artifact already holds. Each kind has
one loader, which reads the whole artifact.
"""

from __future__ import annotations

import json
import math
import os
import struct
import sys
from typing import BinaryIO, Callable, TypeVar

import numpy as np

from .errors import DataError

MAGIC = b"WFAR"
VERSION = 1
_PREFIX = struct.Struct("<4sHI")
_DTYPES = ("<f8", "<f4", "<i8")

T = TypeVar("T")
Spec = tuple[str, np.dtype, tuple[int, ...]]  # an array's name, native dtype and shape


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


def _read_header(f: BinaryIO, path: str, kind: str) -> tuple[dict, list[Spec]]:
    """Check the prefix, the header and the file size; return (meta, specs)
    with f positioned at the first array."""
    prefix = f.read(_PREFIX.size)
    if len(prefix) != _PREFIX.size:
        raise DataError(f"{path}: truncated: no container header")
    magic, version, length = _PREFIX.unpack(prefix)
    if magic != MAGIC:
        raise DataError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
    if version != VERSION:
        raise DataError(f"{path}: unsupported container version {version}")
    # sizes are checked against the file before anything is allocated
    size = os.fstat(f.fileno()).st_size
    if _PREFIX.size + length > size:
        raise DataError(f"{path}: truncated: header wants {length} bytes, "
                        f"file holds {size - _PREFIX.size}")
    raw = f.read(length)
    try:
        header = json.loads(raw)
        got_kind, meta = header["kind"], header["meta"]
        specs = [(str(name), dtype, tuple(shape)) for name, dtype, shape in header["arrays"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: bad container header: {exc}") from exc
    if got_kind != kind:
        raise DataError(f"{path}: holds a {got_kind!r} artifact, expected {kind!r}")
    for name, dtype, shape in specs:
        if dtype not in _DTYPES or not all(type(d) is int and d >= 0 for d in shape):
            raise DataError(f"{path}: array {name!r}: bad dtype {dtype!r} or shape {shape}")
    # numpy's own native descriptor, not an equal new one: np.asarray(a,
    # np.float64) then returns a loaded array a itself, so a ufunc writing a
    # in place reads one operand, not an overlapping view, and copies nothing
    specs = [(name, np.dtype(dtype[1:]), shape) for name, dtype, shape in specs]
    body = sum(math.prod(shape) * dtype.itemsize for _, dtype, shape in specs)
    have = size - f.tell()
    if have != body:
        raise DataError(f"{path}: truncated or padded: arrays want {body} bytes, "
                        f"file holds {have}")
    return meta, specs


def empty(specs: list[Spec]) -> dict[str, np.ndarray]:
    """A new array for each spec, by name: the storage of an artifact that
    holds its arrays as they are read."""
    return {name: np.empty(shape, dtype) for name, dtype, shape in specs}


def load(path: str, kind: str,
         build: Callable[[dict, list[Spec]], tuple[T, dict[str, np.ndarray]]]) -> T:
    """Read a container of `kind` and return the artifact of build(meta,
    specs), which returns it with the arrays to read into: one C-contiguous
    array per spec, by name, in the file's order, of its dtype and shape.
    Each is filled with `readinto` after build returns, so the artifact may
    hold them as views of one buffer.

    Raises DataError on a wrong magic, version or kind, a malformed or
    truncated file, a header that `build` cannot lay out, or arrays that
    are not the ones the layout holds, in its order and shapes."""
    with open(path, "rb") as f:
        meta, specs = _read_header(f, path, kind)
        try:
            artifact, arrays = build(meta, specs)
        except (IndexError, KeyError, TypeError, ValueError) as exc:
            raise DataError(f"{path}: malformed {kind} artifact: {exc!r}") from exc
        if len(arrays) != len(specs):
            raise DataError(f"{path}: {len(specs)} arrays, expected {len(arrays)}")
        for (name, dtype, shape), (want, arr) in zip(specs, arrays.items()):
            if (name, dtype, shape) != (want, arr.dtype, arr.shape):
                raise DataError(f"{path}: array {name!r} {dtype} {shape} where "
                                f"{want!r} {arr.dtype} {arr.shape} belongs")
            view = memoryview(arr.reshape(-1)).cast("B")  # a view: arr is C-contiguous
            got = f.readinto(view)
            if got != view.nbytes:
                raise DataError(f"{path}: truncated: array {name!r} wants {view.nbytes} "
                                f"bytes, got {got}")
            if sys.byteorder != "little":
                arr.byteswap(inplace=True)
    return artifact

