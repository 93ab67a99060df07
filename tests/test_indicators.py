"""Technical-indicator kernels against a plain-loop oracle, plus the
feature-matrix expansion and its binary cache."""

import math

import numpy as np
import pytest

from walkforge.errors import ConfigError, DataError
from walkforge.indicators import (
    DEFAULT_WINDOWS,
    KINDS,
    FeatureMatrix,
    compute_indicator,
    expand_features,
    feature_names,
    load_cache,
    save_cache,
    warmup_rows,
)
from walkforge.ingest import RawSeries, clean, synthesize


def one_kind(x, kind, window):
    """One kind's (values, valid_from), out of the call that computes all of
    them at that window."""
    values, valid_from = compute_indicator(x, window)
    i = KINDS.index(kind)
    return values[i], valid_from[i]


# --- independent oracle: direct formulas, one value at a time ---------------


def oracle_sma(x, w, t):
    if t < w - 1:
        return math.nan
    return sum(x[t - w + 1: t + 1]) / w


def oracle_wma(x, w, t):
    if t < w - 1:
        return math.nan
    window = x[t - w + 1: t + 1]
    return sum((i + 1) * v for i, v in enumerate(window)) / (w * (w + 1) / 2)


def oracle_ema(x, w, t):
    # Closed form of the usual recursion: a geometric blend of the history
    # with the first observation carrying the leftover weight.
    alpha = 2.0 / (w + 1.0)
    total = 0.0
    for i in range(t):
        total += alpha * (1.0 - alpha) ** i * x[t - i]
    return total + (1.0 - alpha) ** t * x[0]


def oracle_ema_series(x, w):
    return [oracle_ema(x, w, t) for t in range(len(x))]


def oracle_std(x, w, t):
    if t < w - 1:
        return math.nan
    window = x[t - w + 1: t + 1]
    mean = sum(window) / w
    return math.sqrt(sum((v - mean) ** 2 for v in window) / (w - 1))


def oracle_rsi(x, w, t):
    if t < w:
        return math.nan
    diffs = [x[i + 1] - x[i] for i in range(t - w, t)]
    gain = sum(d for d in diffs if d > 0) / w
    loss = sum(-d for d in diffs if d < 0) / w
    if gain == 0.0 and loss == 0.0:
        return 50.0
    if loss == 0.0:
        return 100.0
    return 100.0 - 100.0 / (1.0 + gain / loss)


def oracle_roc(x, w, t):
    if t < w:
        return math.nan
    return 100.0 * (x[t] - x[t - w]) / x[t - w]


def oracle_value(x, kind, w, t):
    if kind == "sma":
        return oracle_sma(x, w, t)
    if kind == "wma":
        return oracle_wma(x, w, t)
    if kind == "ema":
        return oracle_ema(x, w, t)
    if kind == "dema":
        e = oracle_ema_series(x, w)
        return 2.0 * e[t] - oracle_ema(e, w, t)
    if kind == "tema":
        e = oracle_ema_series(x, w)
        ee = oracle_ema_series(e, w)
        return 3.0 * e[t] - 3.0 * ee[t] + oracle_ema(ee, w, t)
    if kind == "std":
        return oracle_std(x, w, t)
    if kind == "var":
        s = oracle_std(x, w, t)
        return s * s
    if kind == "rsi":
        return oracle_rsi(x, w, t)
    if kind == "roc":
        return oracle_roc(x, w, t)
    if kind == "boll_up":
        return oracle_sma(x, w, t) + 2.0 * oracle_std(x, w, t)
    if kind == "boll_lo":
        return oracle_sma(x, w, t) - 2.0 * oracle_std(x, w, t)
    if kind == "macd":
        return oracle_ema(x, w, t) - oracle_ema(x, 2 * w, t)
    raise AssertionError(kind)


class TestAgainstOracle:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("window", [2, 5, 13])
    def test_every_kind_matches_plain_loop(self, kind, window):
        rng = np.random.default_rng(hash((kind, window)) % 2**32)
        x = 50.0 + np.cumsum(rng.standard_normal(80))
        values, valid_from = one_kind(x, kind, window)
        xs = list(x)
        for t in range(len(x)):
            want = oracle_value(xs, kind, window, t)
            if t < valid_from:
                assert math.isnan(values[t])
            else:
                assert values[t] == pytest.approx(want, rel=1e-9, abs=1e-12), (
                    f"{kind}_{window} at t={t}"
                )


class TestFrozenExamples:
    def test_sma_of_one_to_five(self):
        values, valid_from = one_kind(np.array([1.0, 2.0, 3.0, 4.0, 5.0]), "sma", 3)
        assert valid_from == 2
        assert np.isnan(values[:2]).all()
        np.testing.assert_allclose(values[2:], [2.0, 3.0, 4.0])

    def test_wma_of_one_to_three(self):
        values, _ = one_kind(np.array([1.0, 2.0, 3.0]), "wma", 3)
        assert values[2] == pytest.approx(14.0 / 6.0)

    def test_ema_half_alpha(self):
        # w=3 gives alpha=0.5: [1, 1.5, 2.25].
        values, valid_from = one_kind(np.array([1.0, 2.0, 3.0]), "ema", 3)
        assert valid_from == 0
        np.testing.assert_allclose(values, [1.0, 1.5, 2.25])

    @pytest.mark.parametrize("kind", ["sma", "wma", "ema", "dema", "tema"])
    def test_averages_of_constant_series_are_constant(self, kind):
        x = np.full(30, 42.5)
        values, valid_from = one_kind(x, kind, 5)
        np.testing.assert_allclose(values[valid_from:], 42.5, rtol=1e-12)

    @pytest.mark.parametrize("kind", ["std", "var", "macd"])
    def test_dispersion_of_constant_series_is_zero(self, kind):
        x = np.full(30, 42.5)
        values, valid_from = one_kind(x, kind, 5)
        np.testing.assert_allclose(values[valid_from:], 0.0, atol=1e-12)

    def test_bands_collapse_onto_constant_series(self):
        x = np.full(30, 42.5)
        up, vf = one_kind(x, "boll_up", 5)
        lo, _ = one_kind(x, "boll_lo", 5)
        np.testing.assert_allclose(up[vf:], 42.5, rtol=1e-12)
        np.testing.assert_allclose(lo[vf:], 42.5, rtol=1e-12)

    def test_rsi_extremes(self):
        up = np.arange(1.0, 31.0)
        values, vf = one_kind(up, "rsi", 7)
        np.testing.assert_allclose(values[vf:], 100.0)
        values, vf = one_kind(up[::-1].copy(), "rsi", 7)
        np.testing.assert_allclose(values[vf:], 0.0)
        values, vf = one_kind(np.full(30, 5.0), "rsi", 7)
        np.testing.assert_allclose(values[vf:], 50.0)

    def test_band_width_is_four_sigma(self):
        rng = np.random.default_rng(7)
        x = 100.0 + np.cumsum(rng.standard_normal(60))
        up, vf = one_kind(x, "boll_up", 9)
        lo, _ = one_kind(x, "boll_lo", 9)
        std, _ = one_kind(x, "std", 9)
        np.testing.assert_allclose(
            up[vf:] - lo[vf:], 4.0 * std[vf:], rtol=0, atol=1e-12
        )

    def test_roc_zero_base_rejected(self):
        x = np.array([1.0, 0.0, 2.0, 3.0, 4.0])
        with pytest.raises(DataError, match="rate of change undefined at row 3:"):
            one_kind(x, "roc", 2)

    @pytest.mark.parametrize(
        "kind", ["sma", "wma", "std", "var", "rsi", "roc", "boll_up", "boll_lo"]
    )
    def test_window_bounded_kinds_are_shift_equivariant(self, kind):
        # Dropping s leading rows must not change any value that only ever
        # looked at the surviving rows.
        rng = np.random.default_rng(13)
        x = 50.0 + np.cumsum(rng.standard_normal(60))
        w, s = 6, 17
        full, vf = one_kind(x, kind, w)
        part, _ = one_kind(x[s:], kind, w)
        np.testing.assert_allclose(
            part[vf:], full[s + vf:], rtol=1e-12, atol=1e-12
        )


class TestStacks:
    """A (k, n) stack of series gives each series the bits it gets alone."""

    @staticmethod
    def stack(n, seed=21):
        rng = np.random.default_rng(seed)
        x = 50.0 + np.cumsum(rng.standard_normal((4, n)), axis=1)
        x[1] *= 1e6  # scales a shared reduction order would mix up
        x[2] = np.abs(x[2]) * 1e-4
        x[3, : n // 2] = x[3, 0]  # a flat stretch: rsi's 50 and zero std
        return x

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("window", [2, 7, 30, 90])
    @pytest.mark.parametrize("n", [1, 60, 95, 260])
    def test_stack_matches_one_series_at_a_time(self, kind, window, n):
        # n = 1 and 60 are shorter than the larger windows: the NaN path
        x = self.stack(n)
        values, valid_from = one_kind(x, kind, window)
        assert values.shape == x.shape
        for c in range(len(x)):
            want, want_from = one_kind(x[c], kind, window)
            assert valid_from == want_from
            assert values[c].tobytes() == want.tobytes(), f"series {c}"

    def test_strided_columns_match_contiguous_series(self):
        x = self.stack(120)
        strided, _ = compute_indicator(x.T.copy().T, 7)
        direct, _ = compute_indicator(x, 7)
        assert strided.tobytes() == direct.tobytes()

    def test_out_takes_a_strided_view(self):
        x = self.stack(120)
        want, want_from = compute_indicator(x, 7)
        # the (kind, column, row) view of one window in a (row, column, kind, window) block
        block = np.full((120, len(x), len(KINDS), 2), -1.0)
        view = block[:, :, :, 1].transpose(2, 1, 0)
        values, valid_from = compute_indicator(x, 7, out=view)
        assert values is view
        assert view.tobytes() == want.tobytes()
        assert valid_from.tolist() == want_from.tolist()
        assert (block[:, :, :, 0] == -1.0).all()

    def test_roc_zero_reports_first_zero_of_lowest_series(self):
        x = self.stack(40)
        x[3, 4] = 0.0
        x[1, 12] = 0.0
        x[1, 20] = 0.0
        with pytest.raises(DataError, match=f"rate of change undefined at row {12 + 5}:"):
            one_kind(x, "roc", 5)
        with pytest.raises(DataError, match=f"rate of change undefined at row {12 + 5}:"):
            one_kind(x[1], "roc", 5)

    def test_roc_zero_past_the_last_base_row_is_not_a_denominator(self):
        x = self.stack(40)
        x[0, 38] = 0.0  # only ever a numerator at window 5
        values, _ = one_kind(x, "roc", 5)
        assert values[0, 38] == pytest.approx(-100.0)

    @pytest.mark.parametrize("bad", [np.zeros(0), np.zeros((0, 5)), np.zeros((2, 3, 4))])
    def test_empty_or_three_dimensional_input_rejected(self, bad):
        with pytest.raises(DataError):
            compute_indicator(bad, 2)


def per_column_expansion(raw, windows):
    """The expansion as one compute_indicator call per (column, kind,
    window), column by column: the reference the stacked calls must match."""
    names = feature_names(raw.columns, tuple(windows))
    values = np.empty((raw.n, len(names)))
    valid_from = np.zeros(len(names), dtype=np.int64)
    values[:, : len(raw.columns)] = raw.values
    j = len(raw.columns)
    for c in range(len(raw.columns)):
        for kind in KINDS:
            for w in windows:
                values[:, j], valid_from[j] = one_kind(raw.values[:, c], kind, w)
                j += 1
    usable_from = int(max(2 * max(windows) - 1, valid_from.max()))
    return FeatureMatrix(names=names, dates=raw.dates.copy(), values=values,
                         valid_from=valid_from, usable_from=usable_from)


def gap_filled(n, seed):
    """A synthetic series with a few one- to three-day holes, forward-filled."""
    raw = synthesize(n, seed=seed)
    keep = np.ones(n, dtype=bool)
    keep[[20, 21, 55, 130, 131, 132, n - 9]] = False
    return clean(RawSeries(dates=raw.dates[keep], values=raw.values[keep],
                           columns=raw.columns), 3)


class TestStackedExpansion:
    @pytest.mark.parametrize("windows", [DEFAULT_WINDOWS, (30, 7), (2, 5, 11, 40)])
    def test_matches_per_column_loop_byte_for_byte(self, windows):
        raw = gap_filled(260, seed=9)
        want = per_column_expansion(raw, windows)
        got = expand_features(raw, windows)
        assert got.names == want.names
        assert got.usable_from == want.usable_from
        assert got.dates.tobytes() == want.dates.tobytes()
        assert got.valid_from.tobytes() == want.valid_from.tobytes()
        assert got.values.tobytes() == want.values.tobytes()

    def test_one_call_per_window(self, monkeypatch):
        from walkforge import indicators

        calls = []

        def counting(x, window, out=None):
            calls.append((np.shape(x), window))
            return compute_indicator(x, window, out=out)

        monkeypatch.setattr(indicators, "compute_indicator", counting)
        raw = synthesize(200, seed=4)
        expand_features(raw, DEFAULT_WINDOWS)
        assert calls == [((len(raw.columns), raw.n), w) for w in DEFAULT_WINDOWS]

    def test_each_intermediate_once_per_window(self, monkeypatch):
        from walkforge import indicators

        calls = []
        for name in ("_sma", "_rolling_std", "_ema"):
            def counting(x, w, _name=name, _fn=getattr(indicators, name)):
                calls.append((_name, w))
                return _fn(x, w)
            monkeypatch.setattr(indicators, name, counting)
        compute_indicator(TestStacks.stack(60), 7)
        # the EMA, the EMA of the EMA, its EMA for tema, and the slow EMA for macd
        assert sorted(calls) == sorted([("_sma", 7), ("_rolling_std", 7), ("_ema", 7),
                                        ("_ema", 7), ("_ema", 7), ("_ema", 14)])


class TestSpecValidation:
    def test_window_one_rejected(self):
        with pytest.raises(ConfigError, match="window must be >= 2, got 1"):
            compute_indicator(np.ones(5), 1)

    def test_twelve_kinds(self):
        assert len(KINDS) == 12
        assert len(set(KINDS)) == 12


class TestExpansion:
    def test_851_features_and_warmup_floor(self):
        raw = synthesize(200, seed=0)
        matrix = expand_features(raw, DEFAULT_WINDOWS)
        assert matrix.values.shape[1] == 851
        assert len(matrix.names) == 851
        assert matrix.usable_from == 179
        assert np.isfinite(matrix.usable()).all()

    def test_names_are_column_kind_window(self):
        names = feature_names(("close", "open"), (7, 30))
        assert names[0] == "close"
        assert names[1] == "open"
        assert "close_sma_7" in names
        assert "open_macd_30" in names
        assert len(names) == 2 + 2 * 12 * 2

    def test_raw_columns_pass_through_unchanged(self):
        raw = synthesize(200, seed=1)
        matrix = expand_features(raw)
        for j, name in enumerate(raw.columns):
            assert matrix.index_of(name) == j
            np.testing.assert_array_equal(matrix.values[:, j], raw.values[:, j])

    def test_expanded_columns_match_direct_computation(self):
        raw = synthesize(200, seed=2)
        matrix = expand_features(raw)
        x = raw.column("close")
        for kind, w in (("sma", 7), ("rsi", 30), ("macd", 90)):
            j = matrix.index_of(f"close_{kind}_{w}")
            want, vf = one_kind(x, kind, w)
            assert matrix.valid_from[j] == vf
            np.testing.assert_array_equal(matrix.values[vf:, j], want[vf:])

    def test_short_series_rejected(self):
        raw = synthesize(100, seed=0)
        with pytest.raises(DataError, match="has 100 rows, feature expansion needs at least 181"):
            expand_features(raw, DEFAULT_WINDOWS)

    def test_duplicate_windows_rejected(self):
        raw = synthesize(200, seed=0)
        with pytest.raises(ConfigError, match="windows must be distinct"):
            expand_features(raw, (7, 7, 30))

    def test_usable_rows_count(self):
        raw = synthesize(200, seed=3)
        matrix = expand_features(raw)
        assert len(matrix.usable()) == 200 - 179


class TestWarmup:
    def test_default_windows_need_179_rows(self):
        assert warmup_rows((7, 30, 90)) == 179
        assert warmup_rows((7,)) == 13

    def test_bad_windows_rejected(self):
        with pytest.raises(ConfigError, match=r"windows must be >= 2, got \(\)"):
            warmup_rows(())
        with pytest.raises(ConfigError, match=r"windows must be >= 2, got \(1, 30\)"):
            warmup_rows((1, 30))

    def test_warmup_plus_n_gives_n_usable_rows(self):
        for n in (5, 40):
            raw = synthesize(n + warmup_rows((7, 30)), seed=8)
            matrix = expand_features(raw, (7, 30))
            assert len(matrix.usable()) == n


class TestCache:
    def test_round_trip_is_exact(self, tmp_path):
        matrix = expand_features(synthesize(190, seed=5), (7, 30))
        path = str(tmp_path / "features.bin")
        save_cache(matrix, path)
        back = load_cache(path)
        assert back.names == matrix.names
        assert back.usable_from == matrix.usable_from
        np.testing.assert_array_equal(back.dates, matrix.dates)
        np.testing.assert_array_equal(back.valid_from, matrix.valid_from)
        np.testing.assert_array_equal(back.values, matrix.values)

    def test_nan_warmup_rows_survive_round_trip(self, tmp_path):
        matrix = expand_features(synthesize(190, seed=6), (7, 30))
        path = str(tmp_path / "features.bin")
        save_cache(matrix, path)
        back = load_cache(path)
        assert np.isnan(back.values[0, back.index_of("close_sma_30")])

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "bogus.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(DataError, match="bad magic"):
            load_cache(str(path))

    def test_truncated_file_rejected(self, tmp_path):
        matrix = expand_features(synthesize(190, seed=7), (7, 30))
        path = tmp_path / "features.bin"
        save_cache(matrix, str(path))
        path.write_bytes(path.read_bytes()[:100])
        with pytest.raises(DataError, match="truncated"):
            load_cache(str(path))
