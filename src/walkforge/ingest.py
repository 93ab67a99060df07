"""Daily market/chain series: CSV ingestion, gap repair, synthetic generation.

Dates live as int64 days since 1970-01-01 in memory and as ISO-8601 strings
in files. Column order in memory is fixed by SCHEMA so downstream feature
indices stay stable.
"""

from __future__ import annotations

import csv
import datetime
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError

PRICE_COLUMNS = ("open", "close", "high", "low")

AUX_COLUMNS = (
    "transactions",
    "avg_block_size",
    "sent_by_address",
    "avg_difficulty",
    "avg_hashrate",
    "mining_profitability",
    "sent_usd",
    "avg_tx_fee",
    "median_tx_fee",
    "avg_block_time",
    "avg_tx_value",
    "median_tx_value",
    "tweets",
    "google_trends",
    "active_addresses",
    "top100_pct",
    "avg_fee_to_reward",
    "coins_in_circulation",
    "miner_revenue",
)

SCHEMA = PRICE_COLUMNS + AUX_COLUMNS

_EPOCH_ORDINAL = datetime.date(1970, 1, 1).toordinal()


def parse_date(text: str) -> int:
    """ISO-8601 date string -> days since 1970-01-01."""
    try:
        return datetime.date.fromisoformat(text.strip()).toordinal() - _EPOCH_ORDINAL
    except ValueError as exc:
        raise DataError(f"unparsable date {text!r}") from exc


def format_date(day: int) -> str:
    return datetime.date.fromordinal(int(day) + _EPOCH_ORDINAL).isoformat()


@dataclass(frozen=True)
class RawSeries:
    """One row per day; values is (n, len(columns)) float64, NaN = missing."""

    dates: np.ndarray
    values: np.ndarray
    columns: tuple[str, ...] = SCHEMA

    def __post_init__(self) -> None:
        if self.values.ndim != 2 or self.values.shape != (len(self.dates), len(self.columns)):
            raise DataError(
                f"values shape {self.values.shape} does not match "
                f"{len(self.dates)} dates x {len(self.columns)} columns"
            )

    @property
    def n(self) -> int:
        return len(self.dates)

    def column(self, name: str) -> np.ndarray:
        try:
            return self.values[:, self.columns.index(name)]
        except ValueError:
            raise DataError(f"missing required column {name!r}") from None


def _parse_cell(text: str) -> float:
    text = text.strip()
    if not text:
        return math.nan
    try:
        value = float(text)
    except ValueError:
        return math.nan
    return value if math.isfinite(value) else math.nan


def load_csv(path: str) -> RawSeries:
    """Read a daily CSV with a `date` column plus every SCHEMA column.

    Rows come back sorted by date; unparsable numeric cells become NaN.
    """
    with open(path, newline="") as f:
        reader = csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"no data rows in {path}") from None
        header = [h.strip() for h in header]
        positions = {name: i for i, name in enumerate(header)}
        for required in ("date",) + SCHEMA:
            if required not in positions:
                raise DataError(f"missing required column {required!r}")
        date_pos = positions["date"]
        col_pos = [positions[name] for name in SCHEMA]

        days: list[int] = []
        rows: list[list[float]] = []
        for row in reader:
            if not row or all(not cell.strip() for cell in row):
                continue
            days.append(parse_date(row[date_pos]))
            rows.append([_parse_cell(row[i]) if i < len(row) else math.nan for i in col_pos])

    if not rows:
        raise DataError(f"no data rows in {path}")

    dates = np.asarray(days, dtype=np.int64)
    order = np.argsort(dates, kind="stable")
    dates = dates[order]
    dupes = np.nonzero(np.diff(dates) == 0)[0]
    if dupes.size:
        raise DataError(f"duplicate date {format_date(dates[dupes[0]])}")
    values = np.asarray(rows, dtype=np.float64)[order]
    return RawSeries(dates=dates, values=values, columns=SCHEMA)


def write_csv(series: RawSeries, path: str) -> None:
    """Inverse of load_csv: ISO dates, shortest decimal text that round-trips,
    missing cells empty, lines ending in CRLF as csv.writer ends them."""
    gaps = np.isnan(series.values).any(axis=1).tolist()
    with open(path, "w", newline="") as f:
        f.write(",".join(("date",) + series.columns) + "\r\n")
        for day, row, gap in zip(series.dates.tolist(), series.values, gaps):
            row = row.tolist()  # a row at a time: no second copy of the series
            cells = ("" if math.isnan(v) else repr(v) for v in row) if gap else map(repr, row)
            f.write(format_date(day) + "," + ",".join(cells) + "\r\n")


def _fill_column(col: np.ndarray, dates: np.ndarray, name: str, cap: int) -> np.ndarray:
    missing = np.isnan(col)
    if not missing.any():
        return col
    if missing[0]:
        raise DataError(f"column {name!r} starts with a missing value")
    idx = np.arange(len(col))
    last_valid = np.maximum.accumulate(np.where(missing, -1, idx))
    run = idx - last_valid  # 0 on observed rows, k on the k-th missing row of a run
    if run.max() > cap:
        first_bad = int(np.argmax(run > cap))
        start = int(last_valid[first_bad] + 1)
        length = int(np.max(run[last_valid == last_valid[first_bad]]))
        raise DataError(f"column {name!r} has a {length}-day gap starting "
                        f"{format_date(dates[start])}, fill cap is {cap}")
    return col[last_valid]


def check_fill_cap(fill_cap: int) -> None:
    """clean's range for the cap, which RunConfig also checks."""
    if fill_cap < 0:
        raise ConfigError(f"fill cap must be >= 0, got {fill_cap}")


def clean(series: RawSeries, fill_cap: int) -> RawSeries:
    """Insert missing calendar days, forward-fill runs of up to fill_cap
    missing days per column (0 rejects any hole), re-check prices.

    Idempotent: cleaning a cleaned series returns an identical one.
    """
    check_fill_cap(fill_cap)
    if series.n == 0:
        raise DataError("cannot clean an empty series")
    full_dates = np.arange(series.dates[0], series.dates[-1] + 1, dtype=np.int64)
    values = np.full((len(full_dates), len(series.columns)), np.nan)
    values[series.dates - series.dates[0]] = series.values

    filled = np.empty_like(values)
    for j, name in enumerate(series.columns):
        filled[:, j] = _fill_column(values[:, j], full_dates, name, fill_cap)

    out = RawSeries(dates=full_dates, values=filled, columns=series.columns)
    _check_ohlc(out)
    return out


def _check_ohlc(series: RawSeries) -> None:
    opens, closes = series.column("open"), series.column("close")
    highs, lows = series.column("high"), series.column("low")
    body_lo = np.minimum(opens, closes)
    body_hi = np.maximum(opens, closes)
    bad = (lows <= 0) | (lows > body_lo) | (body_hi > highs)
    if bad.any():
        t = int(np.argmax(bad))
        raise DataError(
            f"price columns violate low <= open,close <= high > 0: "
            f"row {format_date(series.dates[t])}: open={opens[t]}, close={closes[t]}, "
            f"high={highs[t]}, low={lows[t]}"
        )


@dataclass(frozen=True)
class SynthConfig:
    """Geometric-random-walk price observed through noisy daily quotes.

    The underlying value follows a seeded geometric random walk
    (drift/volatility); the quoted close adds lognormal microstructure
    noise (quote_noise) around that walk, the way exchange closes jitter
    around fair value. Each auxiliary column is a noisy linear image of
    close so feature selection has real signal to find."""

    start_price: float = 100.0
    drift: float = 0.0002
    volatility: float = 0.005
    quote_noise: float = 0.02
    spread: float = 0.01
    aux_coupling: float = 1.0
    aux_noise: float = 0.35

    def __post_init__(self) -> None:
        if not (self.start_price > 0):
            raise ConfigError("start_price must be positive")
        if not (self.volatility > 0):
            raise ConfigError("volatility must be positive")
        if self.spread < 0 or self.aux_noise < 0 or self.quote_noise < 0:
            raise ConfigError("spread, quote_noise and aux_noise must be non-negative")


def synthesize(n: int, seed: int, config: SynthConfig = SynthConfig()) -> RawSeries:
    """Deterministic synthetic daily series: same (n, seed, config) in, same
    bytes out."""
    if n < 1:
        raise ConfigError(f"need at least 1 row, asked for {n}")
    rng = np.random.default_rng(seed)

    log_steps = config.drift + config.volatility * rng.standard_normal(n)
    quote_jitter = config.quote_noise * rng.standard_normal(n)
    closes = config.start_price * np.exp(np.cumsum(log_steps) + quote_jitter)
    opens = np.empty(n)
    opens[0] = config.start_price
    opens[1:] = closes[:-1]
    high_pad = np.abs(rng.standard_normal(n)) * config.spread
    low_pad = np.abs(rng.standard_normal(n)) * config.spread
    highs = np.maximum(opens, closes) * (1.0 + high_pad)
    lows = np.minimum(opens, closes) / (1.0 + low_pad)

    values = np.empty((n, len(SCHEMA)))
    values[:, SCHEMA.index("open")] = opens
    values[:, SCHEMA.index("close")] = closes
    values[:, SCHEMA.index("high")] = highs
    values[:, SCHEMA.index("low")] = lows

    close_scale = float(np.std(closes)) or 1.0
    for name in AUX_COLUMNS:
        gain = config.aux_coupling * rng.uniform(0.5, 2.0)
        noise = config.aux_noise * rng.uniform(0.5, 2.0) * close_scale
        values[:, SCHEMA.index(name)] = gain * closes + noise * rng.standard_normal(n)

    start_day = parse_date("2013-01-01")
    dates = start_day + np.arange(n, dtype=np.int64)
    return RawSeries(dates=dates, values=values, columns=SCHEMA)
