"""Technical-indicator feature expansion.

All 12 indicator kinds of one window are computed in one call over every
input column at once: a (column, row) stack, windows on the contiguous
time axis, each shared intermediate (rolling mean and std, the EMA and the
EMA of the EMA) computed once. With the 23-column schema and windows
(7, 30, 90) the expanded matrix has 23 + 23*12*3 = 851 columns. Entries
before a column's valid_from row are NaN; usable_from floors the
matrix-wide warm-up at warmup_rows(windows) so the double-smoothed kinds
have settled before any row is consumed downstream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import _binio
from .errors import ConfigError, DataError
from .ingest import RawSeries

KINDS = (
    "sma",
    "wma",
    "ema",
    "dema",
    "tema",
    "std",
    "var",
    "rsi",
    "roc",
    "boll_up",
    "boll_lo",
    "macd",
)

DEFAULT_WINDOWS = (7, 30, 90)


def _nan_pad(tail: np.ndarray, n: int) -> np.ndarray:
    out = np.full(tail.shape[:-1] + (n,), np.nan)
    out[..., n - tail.shape[-1]:] = tail
    return out


def _sma(x: np.ndarray, w: int) -> np.ndarray:
    if x.shape[-1] < w:
        return np.full(x.shape, np.nan)
    return _nan_pad(sliding_window_view(x, w, axis=-1).mean(axis=-1), x.shape[-1])


def _wma(x: np.ndarray, w: int) -> np.ndarray:
    if x.shape[-1] < w:
        return np.full(x.shape, np.nan)
    weights = np.arange(1, w + 1, dtype=np.float64)
    tail = sliding_window_view(x, w, axis=-1) @ weights / (w * (w + 1) / 2.0)
    return _nan_pad(tail, x.shape[-1])


def _ema(x: np.ndarray, w: int) -> np.ndarray:
    """out[t] = alpha*x[t] + (1 - alpha)*out[t-1], run time-major so each
    step is two ufunc calls over every series at once; the two roundings
    per step are those of the scalar recursion."""
    alpha = 2.0 / (w + 1.0)
    scaled = np.moveaxis(x * alpha, -1, 0).copy()  # (n, ...) time-major
    out = np.empty_like(scaled)
    out[0, ...] = x[..., 0]
    carry = np.empty_like(out[0, ...])
    for t in range(1, len(out)):
        np.multiply(out[t - 1, ...], 1.0 - alpha, out=carry)
        np.add(scaled[t, ...], carry, out=out[t, ...])
    return np.moveaxis(out, 0, -1)


# Elements of the (series, window start, offset) temporary that std makes
# in one call: 2 MiB, so a stack costs no more memory than a few series.
_STD_BLOCK = 1 << 18


def _rolling_std(x: np.ndarray, w: int) -> np.ndarray:
    n = x.shape[-1]
    if n < w:
        return np.full(x.shape, np.nan)
    series = x.reshape(-1, n)
    tail = np.empty((len(series), n - w + 1))
    step = max(1, _STD_BLOCK // (tail.shape[1] * w))
    for lo in range(0, len(series), step):
        block = sliding_window_view(series[lo: lo + step], w, axis=-1)
        tail[lo: lo + step] = block.std(axis=-1, ddof=1)
    return _nan_pad(tail.reshape(x.shape[:-1] + tail.shape[-1:]), n)


def _rsi(x: np.ndarray, w: int) -> np.ndarray:
    n = x.shape[-1]
    out = np.full(x.shape, np.nan)
    if n < w + 1:
        return out
    diffs = np.diff(x, axis=-1)
    gains = sliding_window_view(np.maximum(diffs, 0.0), w, axis=-1).mean(axis=-1)
    losses = sliding_window_view(np.maximum(-diffs, 0.0), w, axis=-1).mean(axis=-1)
    tail = np.empty_like(gains)
    flat = (gains == 0.0) & (losses == 0.0)
    up_only = (losses == 0.0) & ~flat
    rest = ~(flat | up_only)
    tail[flat] = 50.0
    tail[up_only] = 100.0
    with np.errstate(divide="ignore"):
        tail[rest] = 100.0 - 100.0 / (1.0 + gains[rest] / losses[rest])
    out[..., w:] = tail
    return out


def _roc(x: np.ndarray, w: int) -> np.ndarray:
    n = x.shape[-1]
    out = np.full(x.shape, np.nan)
    if n < w + 1:
        return out
    base = x[..., : n - w]
    zeros = np.argwhere(base == 0.0)  # row-major: lowest series, then earliest row
    if zeros.size:
        raise DataError(f"rate of change undefined at row {zeros[0, -1] + w}: base value is zero")
    out[..., w:] = 100.0 * (x[..., w:] - base) / base
    return out


def compute_indicator(x: np.ndarray, window: int,
                      out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Every kind at one window, for one series (n,) or a stack of series
    (k, n), time on the last axis. Returns (values, valid_from): values[i]
    holds kind KINDS[i] in x's shape, NaN before column valid_from[i]. Each
    series of a stack gets the bits it gets alone. values is written into
    out, of shape (12,) + x.shape and any strides, when it is given."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.ndim not in (1, 2) or x.size < 1:
        raise DataError("indicator input must be a non-empty series (n,) or stack (k, n)")
    w = window
    if w < 2:
        raise ConfigError(f"window must be >= 2, got {w}")
    sma, std = _sma(x, w), _rolling_std(x, w)
    e = _ema(x, w)
    ee = _ema(e, w)
    kinds = {
        "sma": (sma, w - 1),
        "wma": (_wma(x, w), w - 1),
        "ema": (e, 0),
        "dema": (2.0 * e - ee, 0),
        "tema": (3.0 * e - 3.0 * ee + _ema(ee, w), 0),
        "std": (std, w - 1),
        "var": (std ** 2, w - 1),
        "rsi": (_rsi(x, w), w),
        "roc": (_roc(x, w), w),
        "boll_up": (sma + 2.0 * std, w - 1),
        "boll_lo": (sma - 2.0 * std, w - 1),
        "macd": (e - _ema(x, 2 * w), 0),
    }
    return (np.stack([kinds[kind][0] for kind in KINDS], out=out),
            np.array([kinds[kind][1] for kind in KINDS]))


@dataclass(frozen=True)
class FeatureMatrix:
    """Raw columns followed by every derived column, fixed order."""

    names: tuple[str, ...]
    dates: np.ndarray
    values: np.ndarray
    valid_from: np.ndarray
    usable_from: int

    @property
    def n(self) -> int:
        return self.values.shape[0]

    def index_of(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise DataError(f"no feature named {name!r}") from None

    def usable(self) -> np.ndarray:
        """Rows at and after usable_from: every column finite."""
        return self.values[self.usable_from:]


def feature_names(columns: tuple[str, ...], windows: tuple[int, ...]) -> tuple[str, ...]:
    names = list(columns)
    for column in columns:
        for kind in KINDS:
            for w in windows:
                names.append(f"{column}_{kind}_{w}")
    return tuple(names)


def warmup_rows(windows: tuple[int, ...] = DEFAULT_WINDOWS) -> int:
    """Leading rows consumed by indicator warm-up for the given windows.

    The longest memory is the double-length EMA chain (needs 2w - 1 rows
    before its transient is standardized away), so a series of
    n + warmup_rows(windows) raw rows yields exactly n usable rows.
    """
    if not windows or any(w < 2 for w in windows):
        raise ConfigError(f"windows must be >= 2, got {windows!r}")
    return 2 * max(windows) - 1


def check_windows(windows: tuple[int, ...]) -> None:
    """expand_features' windows, which RunConfig also checks."""
    if not windows or any(w < 2 for w in windows) or len(set(windows)) != len(windows):
        raise ConfigError(f"windows must be distinct and >= 2, got {windows!r}")


def expand_features(raw: RawSeries, windows: tuple[int, ...] = DEFAULT_WINDOWS) -> FeatureMatrix:
    """Expand a cleaned series into raw + indicator columns.

    Needs warmup_rows(windows) + 2 rows so at least one row survives the
    warm-up floor with a successor to predict.
    """
    check_windows(windows)
    if not np.isfinite(raw.values).all():
        raise DataError("feature expansion needs a cleaned series (no missing values)")
    usable_from = warmup_rows(windows)  # every column's valid_from is at most max(windows)
    required = usable_from + 2
    if raw.n < required:
        raise DataError(f"series has {raw.n} rows, feature expansion needs at least {required}")

    names = feature_names(raw.columns, tuple(windows))
    n, p = raw.n, len(names)
    values = np.empty((n, p))
    valid_from = np.zeros(p, dtype=np.int64)
    values[:, : len(raw.columns)] = raw.values

    # one call per window over every column; the derived block is viewed as
    # (row, column, kind, window), the order of feature_names
    k = len(raw.columns)
    stack = raw.values.T  # (k, n): each column's series on the last axis
    derived = values[:, k:].reshape(n, k, len(KINDS), len(windows))
    derived_from = valid_from[k:].reshape(k, len(KINDS), len(windows))
    for j, w in enumerate(windows):  # each window's kinds land in the matrix
        _, derived_from[:, :, j] = compute_indicator(
            stack, w, out=derived[:, :, :, j].transpose(2, 1, 0))  # (kind, column, row)

    matrix = FeatureMatrix(
        names=names,
        dates=raw.dates.copy(),
        values=values,
        valid_from=valid_from,
        usable_from=usable_from,
    )
    if not np.isfinite(matrix.usable()).all():
        raise DataError("internal: non-finite value past the warm-up floor")
    return matrix


def save_cache(matrix: FeatureMatrix, path: str) -> None:
    """The matrix, dates and per-column valid_from as arrays; the names and
    usable_from as metadata. NaN warm-up entries are stored as they are."""
    meta = {"names": list(matrix.names), "usable_from": int(matrix.usable_from)}
    arrays = {"values": matrix.values, "dates": matrix.dates, "valid_from": matrix.valid_from}
    _binio.save(path, "features", meta, arrays)


def load_cache(path: str) -> FeatureMatrix:
    def build(meta: dict, specs: list[_binio.Spec]) -> tuple[FeatureMatrix, dict]:
        names, arrays = tuple(meta["names"]), _binio.empty(specs)
        if len(names) != arrays["values"].shape[1]:
            raise ValueError(f"{len(names)} names for {arrays['values'].shape[1]} columns")
        return FeatureMatrix(names=names, usable_from=int(meta["usable_from"]), **arrays), arrays

    return _binio.load(path, "features", build)
