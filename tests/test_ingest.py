"""CSV ingestion, gap repair, and the synthetic generator."""

import csv
import math

import numpy as np
import pytest

from walkforge.errors import ConfigError, DataError
from walkforge.ingest import (
    AUX_COLUMNS,
    PRICE_COLUMNS,
    SCHEMA,
    RawSeries,
    SynthConfig,
    clean,
    format_date,
    load_csv,
    parse_date,
    synthesize,
    write_csv,
)


def make_series(dates, rows, columns=("open", "close", "high", "low")):
    return RawSeries(
        dates=np.asarray(dates, dtype=np.int64),
        values=np.asarray(rows, dtype=np.float64),
        columns=tuple(columns),
    )


def ohlc_row(price):
    return [price, price, price * 1.01, price * 0.99]


def schema_csv(rows, columns=SCHEMA):
    """CSV text with a date column and the given columns; each row is a date
    and its OHLC cells as text, and every auxiliary column reads 1."""
    lines = [",".join(("date",) + columns)]
    for day, ohlc in rows:
        cells = dict(zip(PRICE_COLUMNS, ohlc))
        lines.append(",".join([day] + [cells.get(name, "1") for name in columns]))
    return "\n".join(lines) + "\n"


class TestDates:
    def test_parse_iso_date(self):
        assert parse_date("1970-01-01") == 0
        assert parse_date("1970-01-02") == 1
        assert parse_date("2013-01-01") == 15706

    def test_format_inverts_parse(self):
        for text in ("1970-01-01", "1999-12-31", "2013-04-07", "2020-02-29"):
            assert format_date(parse_date(text)) == text


class TestSchema:
    def test_schema_is_prices_plus_nineteen_aux(self):
        assert SCHEMA == PRICE_COLUMNS + AUX_COLUMNS
        assert len(PRICE_COLUMNS) == 4
        assert len(AUX_COLUMNS) == 19
        assert len(SCHEMA) == 23
        assert len(set(SCHEMA)) == 23

    def test_column_accessor_and_missing_column(self):
        series = make_series([0, 1], [ohlc_row(10.0), ohlc_row(11.0)])
        assert series.column("close")[1] == 11.0
        with pytest.raises(DataError, match="missing required column 'volume'"):
            series.column("volume")


class TestCsvRoundTrip:
    def test_synthetic_round_trip_is_bit_exact(self, tmp_path):
        series = synthesize(60, seed=3)
        path = str(tmp_path / "series.csv")
        write_csv(series, path)
        back = load_csv(path)
        assert back.columns == series.columns
        np.testing.assert_array_equal(back.dates, series.dates)
        np.testing.assert_array_equal(back.values, series.values)

    def test_bytes_match_a_csv_writer(self, tmp_path):
        series = synthesize(40, seed=5)
        values = series.values.copy()
        values[3, 2] = np.nan
        values[9, :] = np.nan
        values[11, 0], values[12, 1], values[13, 2] = -0.0, 1e16, 1e-5
        series = RawSeries(dates=series.dates, values=values, columns=series.columns)
        reference = tmp_path / "reference.csv"
        with open(reference, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(("date",) + series.columns)
            for day, row in zip(series.dates, series.values):
                writer.writerow([format_date(day)]
                                + ["" if math.isnan(v) else repr(float(v)) for v in row])
        path = tmp_path / "series.csv"
        write_csv(series, str(path))
        assert path.read_bytes() == reference.read_bytes()

    def test_rows_come_back_sorted_by_date(self, tmp_path):
        path = tmp_path / "shuffled.csv"
        path.write_text(schema_csv(
            (day, [str(v) for v in ohlc_row(price)])
            for day, price in (("2020-01-03", 3.0), ("2020-01-01", 1.0), ("2020-01-02", 2.0))
        ))
        series = load_csv(str(path))
        assert [format_date(d) for d in series.dates] == [
            "2020-01-01", "2020-01-02", "2020-01-03",
        ]
        np.testing.assert_allclose(series.column("open"), [1.0, 2.0, 3.0])

    def test_blank_cells_become_nan(self, tmp_path):
        path = tmp_path / "gaps.csv"
        path.write_text(schema_csv([("2020-01-01", ["1.0", "1.0", "1.1", "0.9"]),
                                    ("2020-01-02", ["2.0", "", "2.1", "1.9"])]))
        series = load_csv(str(path))
        assert np.isnan(series.column("close")[1])
        assert series.column("open")[1] == 2.0

    def test_duplicate_date_rejected(self, tmp_path):
        path = tmp_path / "dupe.csv"
        path.write_text(schema_csv([("2020-01-01", ["1", "1", "1.1", "0.9"]),
                                    ("2020-01-01", ["2", "2", "2.1", "1.9"])]))
        with pytest.raises(DataError, match="duplicate date 2020-01-01"):
            load_csv(str(path))

    def test_missing_required_column(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text(schema_csv([("2020-01-01", ["1", "1", "1.1", "0.9"])],
                                   columns=tuple(c for c in SCHEMA if c != "low")))
        with pytest.raises(DataError, match="missing required column 'low'"):
            load_csv(str(path))

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DataError, match="no data rows in"):
            load_csv(str(path))
        path.write_text("date," + ",".join(SCHEMA) + "\n")
        with pytest.raises(DataError, match="no data rows in"):
            load_csv(str(path))


class TestClean:
    def test_negative_cap_rejected(self):
        series = make_series([0], [ohlc_row(10.0)])
        with pytest.raises(ConfigError, match="fill cap must be >= 0, got -1"):
            clean(series, -1)

    def test_single_gap_forward_filled(self):
        # close = [1, missing, 3] with cap 1: the hole takes the prior value.
        series = make_series(
            [0, 1, 2],
            [[1.0, 1.0, 1.1, 0.9], [2.0, np.nan, 2.1, 0.9], [3.0, 3.0, 3.1, 0.9]],
        )
        out = clean(series, 1)
        np.testing.assert_allclose(out.column("close"), [1.0, 1.0, 3.0])

    def test_two_day_gap_exceeds_cap_one(self):
        # close = [1, missing, missing, 4] with cap 1 is irreparable.
        series = make_series(
            [0, 1, 2, 3],
            [
                [1.0, 1.0, 1.1, 0.9],
                [2.0, np.nan, 2.1, 0.9],
                [3.0, np.nan, 3.1, 0.9],
                [4.0, 4.0, 4.1, 0.9],
            ],
        )
        with pytest.raises(DataError, match="column 'close' has a 2-day gap .*, fill cap is 1"):
            clean(series, 1)

    def test_missing_calendar_day_inserted_and_filled(self):
        # Rows for Jan 1 and Jan 3 only: Jan 2 appears, copied from Jan 1.
        jan1, jan3 = parse_date("2020-01-01"), parse_date("2020-01-03")
        series = make_series([jan1, jan3], [ohlc_row(10.0), ohlc_row(12.0)])
        out = clean(series, 1)
        assert out.n == 3
        assert format_date(out.dates[1]) == "2020-01-02"
        np.testing.assert_allclose(out.values[1], out.values[0])

    def test_reject_mode_errors_on_any_hole(self):
        # A fill cap of 0 rejects every missing value.
        jan1, jan3 = parse_date("2020-01-01"), parse_date("2020-01-03")
        series = make_series([jan1, jan3], [ohlc_row(10.0), ohlc_row(12.0)])
        with pytest.raises(DataError, match="1-day gap starting 2020-01-02, fill cap is 0"):
            clean(series, 0)

    def test_leading_hole_cannot_be_filled(self):
        series = make_series(
            [0, 1],
            [[np.nan, 1.0, 1.1, 0.9], [2.0, 2.0, 2.1, 1.9]],
        )
        with pytest.raises(DataError, match="column 'open' starts with a missing value"):
            clean(series, 3)

    def test_price_bracket_violation_rejected(self):
        # high below the open/close body.
        series = make_series([0], [[10.0, 10.0, 9.0, 8.0]])
        with pytest.raises(DataError, match="price columns violate"):
            clean(series, 3)

    def test_nonpositive_low_rejected(self):
        series = make_series([0], [[10.0, 10.0, 11.0, 0.0]])
        with pytest.raises(DataError, match="price columns violate"):
            clean(series, 3)

    def test_clean_is_idempotent(self):
        series = synthesize(40, seed=11)
        once = clean(series, 3)
        twice = clean(once, 3)
        np.testing.assert_array_equal(once.dates, twice.dates)
        np.testing.assert_array_equal(once.values, twice.values)


class TestSynthesize:
    def test_same_seed_same_bytes(self):
        a = synthesize(120, seed=5)
        b = synthesize(120, seed=5)
        np.testing.assert_array_equal(a.values, b.values)
        np.testing.assert_array_equal(a.dates, b.dates)

    def test_different_seeds_differ(self):
        a = synthesize(120, seed=5)
        b = synthesize(120, seed=6)
        assert not np.array_equal(a.values, b.values)

    def test_full_schema_and_consecutive_dates(self):
        series = synthesize(90, seed=0)
        assert series.columns == SCHEMA
        assert series.values.shape == (90, 23)
        assert np.all(np.diff(series.dates) == 1)

    def test_prices_form_valid_brackets(self):
        series = synthesize(500, seed=1)
        opens, closes = series.column("open"), series.column("close")
        highs, lows = series.column("high"), series.column("low")
        assert np.all(lows > 0)
        assert np.all(lows <= np.minimum(opens, closes))
        assert np.all(np.maximum(opens, closes) <= highs)

    def test_output_survives_clean_unchanged(self):
        series = synthesize(200, seed=9)
        out = clean(series, 3)
        np.testing.assert_array_equal(out.values, series.values)

    def test_opens_are_prior_closes(self):
        series = synthesize(50, seed=4)
        np.testing.assert_allclose(
            series.column("open")[1:], series.column("close")[:-1]
        )

    def test_aux_columns_track_close(self):
        series = synthesize(400, seed=2)
        closes = series.column("close")
        for name in AUX_COLUMNS:
            r = np.corrcoef(closes, series.column(name))[0, 1]
            assert abs(r) > 0.2, f"{name} decoupled from close (r={r:.3f})"

    def test_zero_volatility_rejected(self):
        with pytest.raises(ConfigError, match="volatility must be positive"):
            SynthConfig(volatility=0.0)

    def test_negative_noise_rejected(self):
        with pytest.raises(ConfigError, match="quote_noise and aux_noise must be non-negative"):
            SynthConfig(quote_noise=-0.1)
        with pytest.raises(ConfigError, match="quote_noise and aux_noise must be non-negative"):
            SynthConfig(spread=-0.1)

    def test_zero_rows_rejected(self):
        with pytest.raises(ConfigError, match="need at least 1 row, asked for 0"):
            synthesize(0, seed=0)
