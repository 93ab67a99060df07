"""Technical-indicator feature expansion.

Each of the 12 indicator kinds is computed per input column per window.
With the 23-column schema and windows (7, 30, 90) the expanded matrix has
23 + 23*12*3 = 851 columns. Entries before a column's valid_from row are
NaN; usable_from floors the matrix-wide warm-up at 2*max(window) - 1 so the
double-smoothed kinds have settled before any row is consumed downstream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import _binio
from .errors import DataError, InvalidSpec, SeriesTooShort, ZeroDenominator
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


@dataclass(frozen=True)
class IndicatorSpec:
    kind: str
    window: int

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise InvalidSpec(f"unknown indicator kind {self.kind!r}")
        if self.window < 2:
            raise InvalidSpec(f"window must be >= 2, got {self.window}")

    @property
    def name(self) -> str:
        return f"{self.kind}_{self.window}"


def _nan_pad(tail: np.ndarray, n: int) -> np.ndarray:
    out = np.full(n, np.nan)
    if tail.size:
        out[n - tail.size:] = tail
    return out


def _sma(x: np.ndarray, w: int) -> np.ndarray:
    if len(x) < w:
        return np.full(len(x), np.nan)
    return _nan_pad(sliding_window_view(x, w).mean(axis=1), len(x))


def _wma(x: np.ndarray, w: int) -> np.ndarray:
    if len(x) < w:
        return np.full(len(x), np.nan)
    weights = np.arange(1, w + 1, dtype=np.float64)
    tail = sliding_window_view(x, w) @ weights / (w * (w + 1) / 2.0)
    return _nan_pad(tail, len(x))


def _ema(x: np.ndarray, w: int) -> np.ndarray:
    alpha = 2.0 / (w + 1.0)
    out = np.empty_like(x)
    out[0] = x[0]
    for t in range(1, len(x)):
        out[t] = alpha * x[t] + (1.0 - alpha) * out[t - 1]
    return out


def _rolling_std(x: np.ndarray, w: int) -> np.ndarray:
    if len(x) < w:
        return np.full(len(x), np.nan)
    return _nan_pad(sliding_window_view(x, w).std(axis=1, ddof=1), len(x))


def _rsi(x: np.ndarray, w: int) -> np.ndarray:
    n = len(x)
    out = np.full(n, np.nan)
    if n < w + 1:
        return out
    diffs = np.diff(x)
    gains = sliding_window_view(np.maximum(diffs, 0.0), w).mean(axis=1)
    losses = sliding_window_view(np.maximum(-diffs, 0.0), w).mean(axis=1)
    tail = np.empty_like(gains)
    flat = (gains == 0.0) & (losses == 0.0)
    up_only = (losses == 0.0) & ~flat
    rest = ~(flat | up_only)
    tail[flat] = 50.0
    tail[up_only] = 100.0
    with np.errstate(divide="ignore"):
        tail[rest] = 100.0 - 100.0 / (1.0 + gains[rest] / losses[rest])
    out[w:] = tail
    return out


def _roc(x: np.ndarray, w: int) -> np.ndarray:
    n = len(x)
    out = np.full(n, np.nan)
    if n < w + 1:
        return out
    base = x[: n - w]
    zeros = np.nonzero(base == 0.0)[0]
    if zeros.size:
        raise ZeroDenominator(int(zeros[0]) + w)
    out[w:] = 100.0 * (x[w:] - base) / base
    return out


def compute_indicator(x: np.ndarray, spec: IndicatorSpec) -> tuple[np.ndarray, int]:
    """Return (values, valid_from); values[t] is NaN for t < valid_from."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or len(x) < 1:
        raise DataError("indicator input must be a non-empty 1-D array")
    w = spec.window
    kind = spec.kind
    if kind == "sma":
        return _sma(x, w), w - 1
    if kind == "wma":
        return _wma(x, w), w - 1
    if kind == "ema":
        return _ema(x, w), 0
    if kind == "dema":
        e = _ema(x, w)
        return 2.0 * e - _ema(e, w), 0
    if kind == "tema":
        e = _ema(x, w)
        ee = _ema(e, w)
        return 3.0 * e - 3.0 * ee + _ema(ee, w), 0
    if kind == "std":
        return _rolling_std(x, w), w - 1
    if kind == "var":
        return _rolling_std(x, w) ** 2, w - 1
    if kind == "rsi":
        return _rsi(x, w), w
    if kind == "roc":
        return _roc(x, w), w
    if kind == "boll_up":
        return _sma(x, w) + 2.0 * _rolling_std(x, w), w - 1
    if kind == "boll_lo":
        return _sma(x, w) - 2.0 * _rolling_std(x, w), w - 1
    if kind == "macd":
        return _ema(x, w) - _ema(x, 2 * w), 0
    raise InvalidSpec(f"unknown indicator kind {kind!r}")  # unreachable


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

    @property
    def p(self) -> int:
        return self.values.shape[1]

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
        raise InvalidSpec(f"windows must be >= 2, got {windows!r}")
    return 2 * max(windows) - 1


def expand_features(raw: RawSeries, windows: tuple[int, ...] = DEFAULT_WINDOWS) -> FeatureMatrix:
    """Expand a cleaned series into raw + indicator columns.

    Needs n >= 2*max(window) + 1 rows so at least one row survives the
    warm-up floor of 2*max(window) - 1 with a successor to predict.
    """
    if not windows or any(w < 2 for w in windows) or len(set(windows)) != len(windows):
        raise InvalidSpec(f"windows must be distinct and >= 2, got {windows!r}")
    if not np.isfinite(raw.values).all():
        raise DataError("feature expansion needs a cleaned series (no missing values)")
    required = 2 * max(windows) + 1
    if raw.n < required:
        raise SeriesTooShort(raw.n, required)

    names = feature_names(raw.columns, tuple(windows))
    n, p = raw.n, len(names)
    values = np.empty((n, p))
    valid_from = np.zeros(p, dtype=np.int64)
    values[:, : len(raw.columns)] = raw.values

    j = len(raw.columns)
    for c, column in enumerate(raw.columns):
        x = raw.values[:, c]
        for kind in KINDS:
            for w in windows:
                col, vf = compute_indicator(x, IndicatorSpec(kind, w))
                values[:, j] = col
                valid_from[j] = vf
                j += 1

    usable_from = int(max(2 * max(windows) - 1, valid_from.max()))
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
    def build(meta: dict, arrays: dict[str, np.ndarray]) -> FeatureMatrix:
        names = tuple(meta["names"])
        if len(names) != arrays["values"].shape[1]:
            raise ValueError(f"{len(names)} names for {arrays['values'].shape[1]} columns")
        return FeatureMatrix(names=names, usable_from=int(meta["usable_from"]), **arrays)

    return _binio.load(path, "features", build)
