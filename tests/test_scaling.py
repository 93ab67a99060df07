"""Median/IQR scaler: frozen parameter values, round trips, robustness."""

import numpy as np
import pytest

from walkforge.errors import ColumnMismatch, DataError, EmptyRange
from walkforge.scaling import (
    ScalerParams,
    fit,
    inverse_transform,
    transform,
)


def col(values):
    return np.asarray(values, dtype=np.float64)[:, None]


class TestFrozenExamples:
    def test_one_to_five_centers_at_three_scale_two(self):
        params = fit(col([1, 2, 3, 4, 5]), slice(None), ("x",))
        assert params.center[0] == pytest.approx(3.0)
        assert params.scale[0] == pytest.approx(2.0)
        out = transform(col([1, 2, 3, 4, 5]), params)
        np.testing.assert_allclose(out[:, 0], [-1.0, -0.5, 0.0, 0.5, 1.0])

    def test_constant_column_gets_unit_scale(self):
        params = fit(col([5, 5, 5]), slice(None), ("x",))
        assert params.center[0] == 5.0
        assert params.scale[0] == 1.0
        np.testing.assert_allclose(transform(col([5, 5, 5]), params), 0.0)


class TestFit:
    def test_only_requested_rows_shape_the_params(self):
        data = col([1, 2, 3, 4, 5, 1e9, -1e9])
        params = fit(data, slice(0, 5), ("x",))
        assert params.center[0] == pytest.approx(3.0)
        assert params.scale[0] == pytest.approx(2.0)

    def test_row_sets_accept_range_slice_and_index_array(self):
        data = col([1, 2, 3, 4, 5, 6, 7, 8])
        by_range = fit(data, range(0, 5), ("x",))
        by_slice = fit(data, slice(0, 5), ("x",))
        by_index = fit(data, np.arange(5), ("x",))
        for params in (by_slice, by_index):
            assert params.center[0] == by_range.center[0]
            assert params.scale[0] == by_range.scale[0]

    def test_transformed_fit_rows_are_standardized(self):
        rng = np.random.default_rng(21)
        data = rng.lognormal(mean=4.0, sigma=0.5, size=(400, 6))
        names = tuple(f"c{j}" for j in range(6))
        params = fit(data, slice(0, 250), names)
        scaled = transform(data[:250], params)
        med = np.median(scaled, axis=0)
        q1, q3 = np.quantile(scaled, [0.25, 0.75], axis=0)
        np.testing.assert_allclose(med, 0.0, atol=1e-12)
        np.testing.assert_allclose(q3 - q1, 1.0, atol=1e-12)

    def test_inflating_the_max_leaves_params_alone(self):
        rng = np.random.default_rng(5)
        base = rng.normal(100.0, 10.0, size=(101, 1))
        before = fit(base, slice(None), ("x",))
        corrupted = base.copy()
        corrupted[np.argmax(base[:, 0]), 0] *= 1000.0
        after = fit(corrupted, slice(None), ("x",))
        np.testing.assert_array_equal(before.center, after.center)
        np.testing.assert_array_equal(before.scale, after.scale)

    def test_empty_row_selection_rejected(self):
        with pytest.raises(EmptyRange):
            fit(col([1, 2, 3]), slice(2, 2), ("x",))

    def test_nan_in_fit_rows_rejected(self):
        with pytest.raises(DataError):
            fit(col([1.0, np.nan, 3.0]), slice(None), ("x",))

    def test_width_mismatch_rejected(self):
        with pytest.raises(ColumnMismatch):
            fit(col([1, 2, 3]), slice(None), ("x", "y"))
        with pytest.raises(ColumnMismatch):
            ScalerParams(("x", "y"), center=np.zeros(1), scale=np.ones(1))


class TestTransform:
    def test_round_trip_recovers_inputs(self):
        rng = np.random.default_rng(3)
        data = rng.normal(50.0, 20.0, size=(120, 4))
        params = fit(data, slice(0, 80), tuple("abcd"))
        back = inverse_transform(transform(data, params), params)
        np.testing.assert_allclose(back, data, rtol=0, atol=1e-12 * 50.0)

    def test_transform_is_monotone_per_column(self):
        data = col([3, 1, 4, 1, 5, 9, 2, 6])
        params = fit(data, slice(None), ("x",))
        scaled = transform(data, params)[:, 0]
        assert np.array_equal(np.argsort(scaled), np.argsort(data[:, 0]))

    def test_single_row_vector_accepted(self):
        params = fit(col([1, 2, 3, 4, 5]), slice(None), ("x",))
        out = transform(np.array([5.0]), params)
        assert out[0] == pytest.approx(1.0)

    def test_wrong_width_rejected(self):
        params = fit(col([1, 2, 3]), slice(None), ("x",))
        with pytest.raises(ColumnMismatch):
            transform(np.zeros((4, 2)), params)
