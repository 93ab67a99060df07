"""Low-level helpers for the little-endian binary artifact containers."""

from __future__ import annotations

import struct
import sys
from typing import BinaryIO

import numpy as np

from .errors import BadArtifact


def write_u16(f: BinaryIO, value: int) -> None:
    f.write(struct.pack("<H", value))


def write_u8(f: BinaryIO, value: int) -> None:
    f.write(struct.pack("<B", value))


def write_u64(f: BinaryIO, value: int) -> None:
    f.write(struct.pack("<Q", value))


def write_i64(f: BinaryIO, value: int) -> None:
    f.write(struct.pack("<q", value))


def write_f64(f: BinaryIO, value: float) -> None:
    f.write(struct.pack("<d", value))


def write_f64_array(f: BinaryIO, arr: np.ndarray) -> None:
    f.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def write_i64_array(f: BinaryIO, arr: np.ndarray) -> None:
    f.write(np.ascontiguousarray(arr, dtype="<i8").tobytes())


def write_i32_array(f: BinaryIO, arr: np.ndarray) -> None:
    f.write(np.ascontiguousarray(arr, dtype="<i4").tobytes())


def write_str(f: BinaryIO, text: str) -> None:
    payload = text.encode("utf-8")
    f.write(struct.pack("<I", len(payload)))
    f.write(payload)


def _read_exact(f: BinaryIO, count: int, path: str) -> bytes:
    data = f.read(count)
    if len(data) != count:
        raise BadArtifact(path, f"truncated: wanted {count} bytes, got {len(data)}")
    return data


def read_u16(f: BinaryIO, path: str) -> int:
    return struct.unpack("<H", _read_exact(f, 2, path))[0]


def read_u8(f: BinaryIO, path: str) -> int:
    return struct.unpack("<B", _read_exact(f, 1, path))[0]


def read_u64(f: BinaryIO, path: str) -> int:
    return struct.unpack("<Q", _read_exact(f, 8, path))[0]


def read_i64(f: BinaryIO, path: str) -> int:
    return struct.unpack("<q", _read_exact(f, 8, path))[0]


def read_f64(f: BinaryIO, path: str) -> float:
    return struct.unpack("<d", _read_exact(f, 8, path))[0]


def read_f64_array(f: BinaryIO, shape: tuple[int, ...], path: str) -> np.ndarray:
    count = int(np.prod(shape)) if shape else 1
    data = _read_exact(f, 8 * count, path)
    return np.frombuffer(data, dtype="<f8").astype(np.float64).reshape(shape)


def read_f64_into(f: BinaryIO, arr: np.ndarray, path: str) -> None:
    """Fill a C-contiguous float64 array straight from the file, no copy."""
    view = memoryview(arr).cast("B")
    got = f.readinto(view)
    if got != view.nbytes:
        raise BadArtifact(path, f"truncated: wanted {view.nbytes} bytes, got {got}")
    if sys.byteorder != "little":
        arr.byteswap(inplace=True)


def read_i64_array(f: BinaryIO, count: int, path: str) -> np.ndarray:
    data = _read_exact(f, 8 * count, path)
    return np.frombuffer(data, dtype="<i8").astype(np.int64)


def read_i32_array(f: BinaryIO, count: int, path: str) -> np.ndarray:
    data = _read_exact(f, 4 * count, path)
    return np.frombuffer(data, dtype="<i4").astype(np.int32)


def read_str(f: BinaryIO, path: str) -> str:
    length = struct.unpack("<I", _read_exact(f, 4, path))[0]
    return _read_exact(f, length, path).decode("utf-8")


def expect_magic(f: BinaryIO, magic: bytes, path: str) -> None:
    got = f.read(len(magic))
    if got != magic:
        raise BadArtifact(path, f"bad magic {got!r}, expected {magic!r}")
