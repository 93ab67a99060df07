"""Technical-indicator kernels against a plain-loop oracle, plus the
feature-matrix expansion and its binary cache."""

import math

import numpy as np
import pytest

from walkforge.errors import (
    BadArtifact,
    InvalidSpec,
    SeriesTooShort,
    ZeroDenominator,
)
from walkforge.indicators import (
    DEFAULT_WINDOWS,
    KINDS,
    IndicatorSpec,
    compute_indicator,
    expand_features,
    feature_names,
    load_cache,
    save_cache,
    warmup_rows,
)
from walkforge.ingest import synthesize

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
        values, valid_from = compute_indicator(x, IndicatorSpec(kind, window))
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
        values, valid_from = compute_indicator(
            np.array([1.0, 2.0, 3.0, 4.0, 5.0]), IndicatorSpec("sma", 3)
        )
        assert valid_from == 2
        assert np.isnan(values[:2]).all()
        np.testing.assert_allclose(values[2:], [2.0, 3.0, 4.0])

    def test_wma_of_one_to_three(self):
        values, _ = compute_indicator(
            np.array([1.0, 2.0, 3.0]), IndicatorSpec("wma", 3)
        )
        assert values[2] == pytest.approx(14.0 / 6.0)

    def test_ema_half_alpha(self):
        # w=3 gives alpha=0.5: [1, 1.5, 2.25].
        values, valid_from = compute_indicator(
            np.array([1.0, 2.0, 3.0]), IndicatorSpec("ema", 3)
        )
        assert valid_from == 0
        np.testing.assert_allclose(values, [1.0, 1.5, 2.25])

    @pytest.mark.parametrize("kind", ["sma", "wma", "ema", "dema", "tema"])
    def test_averages_of_constant_series_are_constant(self, kind):
        x = np.full(30, 42.5)
        values, valid_from = compute_indicator(x, IndicatorSpec(kind, 5))
        np.testing.assert_allclose(values[valid_from:], 42.5, rtol=1e-12)

    @pytest.mark.parametrize("kind", ["std", "var", "macd"])
    def test_dispersion_of_constant_series_is_zero(self, kind):
        x = np.full(30, 42.5)
        values, valid_from = compute_indicator(x, IndicatorSpec(kind, 5))
        np.testing.assert_allclose(values[valid_from:], 0.0, atol=1e-12)

    def test_bands_collapse_onto_constant_series(self):
        x = np.full(30, 42.5)
        up, vf = compute_indicator(x, IndicatorSpec("boll_up", 5))
        lo, _ = compute_indicator(x, IndicatorSpec("boll_lo", 5))
        np.testing.assert_allclose(up[vf:], 42.5, rtol=1e-12)
        np.testing.assert_allclose(lo[vf:], 42.5, rtol=1e-12)

    def test_rsi_extremes(self):
        up = np.arange(1.0, 31.0)
        values, vf = compute_indicator(up, IndicatorSpec("rsi", 7))
        np.testing.assert_allclose(values[vf:], 100.0)
        values, vf = compute_indicator(up[::-1].copy(), IndicatorSpec("rsi", 7))
        np.testing.assert_allclose(values[vf:], 0.0)
        values, vf = compute_indicator(np.full(30, 5.0), IndicatorSpec("rsi", 7))
        np.testing.assert_allclose(values[vf:], 50.0)

    def test_band_width_is_four_sigma(self):
        rng = np.random.default_rng(7)
        x = 100.0 + np.cumsum(rng.standard_normal(60))
        up, vf = compute_indicator(x, IndicatorSpec("boll_up", 9))
        lo, _ = compute_indicator(x, IndicatorSpec("boll_lo", 9))
        std, _ = compute_indicator(x, IndicatorSpec("std", 9))
        np.testing.assert_allclose(
            up[vf:] - lo[vf:], 4.0 * std[vf:], rtol=0, atol=1e-12
        )

    def test_roc_zero_base_rejected(self):
        x = np.array([1.0, 0.0, 2.0, 3.0, 4.0])
        with pytest.raises(ZeroDenominator) as err:
            compute_indicator(x, IndicatorSpec("roc", 2))
        assert err.value.index == 3

    @pytest.mark.parametrize(
        "kind", ["sma", "wma", "std", "var", "rsi", "roc", "boll_up", "boll_lo"]
    )
    def test_window_bounded_kinds_are_shift_equivariant(self, kind):
        # Dropping s leading rows must not change any value that only ever
        # looked at the surviving rows.
        rng = np.random.default_rng(13)
        x = 50.0 + np.cumsum(rng.standard_normal(60))
        w, s = 6, 17
        full, vf = compute_indicator(x, IndicatorSpec(kind, w))
        part, _ = compute_indicator(x[s:], IndicatorSpec(kind, w))
        np.testing.assert_allclose(
            part[vf:], full[s + vf:], rtol=1e-12, atol=1e-12
        )


class TestSpecValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidSpec):
            IndicatorSpec("hull", 5)

    def test_window_one_rejected(self):
        with pytest.raises(InvalidSpec):
            IndicatorSpec("sma", 1)

    def test_twelve_kinds(self):
        assert len(KINDS) == 12
        assert len(set(KINDS)) == 12


class TestExpansion:
    def test_851_features_and_warmup_floor(self):
        raw = synthesize(200, seed=0)
        matrix = expand_features(raw, DEFAULT_WINDOWS)
        assert matrix.p == 851
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
            want, vf = compute_indicator(x, IndicatorSpec(kind, w))
            assert matrix.valid_from[j] == vf
            np.testing.assert_array_equal(matrix.values[vf:, j], want[vf:])

    def test_short_series_rejected(self):
        raw = synthesize(100, seed=0)
        with pytest.raises(SeriesTooShort) as err:
            expand_features(raw, DEFAULT_WINDOWS)
        assert err.value.required == 181

    def test_duplicate_windows_rejected(self):
        raw = synthesize(200, seed=0)
        with pytest.raises(InvalidSpec):
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
        with pytest.raises(InvalidSpec):
            warmup_rows(())
        with pytest.raises(InvalidSpec):
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
        with pytest.raises(BadArtifact):
            load_cache(str(path))

    def test_truncated_file_rejected(self, tmp_path):
        matrix = expand_features(synthesize(190, seed=7), (7, 30))
        path = tmp_path / "features.bin"
        save_cache(matrix, str(path))
        path.write_bytes(path.read_bytes()[:100])
        with pytest.raises(BadArtifact):
            load_cache(str(path))
