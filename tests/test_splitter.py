"""Walk-forward batch planning and lookback-window sample construction."""

import numpy as np
import pytest

from walkforge.errors import ConfigError, DataError
from walkforge.splitter import (
    make_batches,
    make_windows,
    plan_from_json,
    plan_to_json,
)


def oracle_batches(n, train_len, test_len, stride):
    """Plain-loop restatement: slide a [train|test] block by stride while
    it still fits."""
    out = []
    k = 0
    while k * stride + train_len + test_len <= n:
        a = k * stride
        out.append((a, a + train_len, a + train_len, a + train_len + test_len))
        k += 1
    return out


class TestMakeBatches:
    def test_eleven_hundred_rows_give_six_batches(self):
        plan = make_batches(1100)
        assert len(plan.batches) == 6
        assert (plan.batches[0].train_start, plan.batches[0].train_end) == (0, 500)
        assert (plan.batches[0].test_start, plan.batches[0].test_end) == (500, 600)
        assert (plan.batches[-1].train_start, plan.batches[-1].train_end) == (500, 1000)
        assert (plan.batches[-1].test_start, plan.batches[-1].test_end) == (1000, 1100)

    def test_exact_minimum_gives_one_batch(self):
        plan = make_batches(600)
        assert len(plan.batches) == 1
        assert (plan.batches[0].train_start, plan.batches[0].train_end) == (0, 500)
        assert (plan.batches[0].test_start, plan.batches[0].test_end) == (500, 600)

    def test_one_row_short_is_rejected(self):
        with pytest.raises(DataError, match=r"599 rows cannot hold one train\+test batch of 600"):
            make_batches(599)

    def test_extra_rows_below_stride_add_no_batch(self):
        assert len(make_batches(699).batches) == 1
        assert len(make_batches(700).batches) == 2

    def test_matches_plain_loop_on_random_shapes(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            train = int(rng.integers(1, 40))
            test = int(rng.integers(1, 20))
            stride = int(rng.integers(1, 25))
            n = int(rng.integers(train + test, 400))
            plan = make_batches(n, train, test, stride)
            want = oracle_batches(n, train, test, stride)
            got = [(b.train_start, b.train_end, b.test_start, b.test_end)
                   for b in plan.batches]
            assert got == want, (n, train, test, stride)

    def test_train_always_ends_where_test_starts(self):
        plan = make_batches(1234, 300, 77, 50)
        for batch in plan.batches:
            assert batch.train_end == batch.test_start
            assert batch.train_end - batch.train_start == 300
            assert batch.test_end - batch.test_start == 77

    def test_default_stride_tiles_the_test_span_contiguously(self):
        plan = make_batches(1100)
        spans = [(b.test_start, b.test_end) for b in plan.batches]
        assert spans[0][0] == 500
        for (_, prev_end), (start, _) in zip(spans, spans[1:]):
            assert start == prev_end
        assert spans[-1][1] == 1100

    def test_no_train_row_at_or_past_its_test_window(self):
        plan = make_batches(2048, 500, 100, 100)
        for batch in plan.batches:
            assert batch.train_end <= batch.test_start

    def test_batch_indices_run_from_zero(self):
        plan = make_batches(900)
        assert [b.index for b in plan.batches] == [0, 1, 2, 3]

    def test_nonpositive_lengths_rejected(self):
        with pytest.raises(ConfigError):
            make_batches(1000, train_len=0)
        with pytest.raises(ConfigError):
            make_batches(1000, stride=0)


class TestPlanJson:
    def test_round_trip(self):
        plan = make_batches(1100)
        back = plan_from_json(plan_to_json(plan))
        assert back == plan

    def test_bad_payload_rejected(self):
        with pytest.raises(DataError):
            plan_from_json("{\"n\": 100}")


def ramp_features(n, p=2):
    # Row t holds [t, t + 0.5, ...] so window contents identify their rows.
    return np.arange(n, dtype=np.float64)[:, None] + np.arange(p) * 0.5


class TestMakeWindows:
    def test_ten_rows_lookback_three(self):
        features = ramp_features(10)
        close = np.arange(10, dtype=np.float64) * 10.0
        got = make_windows(features, close, 0, 10, lookback=3)
        assert got.m == 7
        assert got.inputs.shape[1] == 3
        np.testing.assert_array_equal(got.anchors, [2, 3, 4, 5, 6, 7, 8])
        np.testing.assert_array_equal(got.inputs[0], features[0:3])
        assert got.targets[0] == close[3]
        np.testing.assert_array_equal(got.inputs[-1], features[6:9])
        assert got.targets[-1] == close[9]

    def test_lookback_one_is_next_day_framing(self):
        features = ramp_features(6)
        close = np.arange(6, dtype=np.float64)
        got = make_windows(features, close, 0, 6, lookback=1)
        assert got.m == 5
        for i, t in enumerate(got.anchors):
            np.testing.assert_array_equal(got.inputs[i, 0], features[t])
            assert got.targets[i] == close[t + 1]

    def test_range_must_hold_lookback_plus_target(self):
        features = ramp_features(10)
        close = np.zeros(10)
        with pytest.raises(DataError, match="range of 3 rows is shorter than 4"):
            make_windows(features, close, 0, 3, lookback=3)
        got = make_windows(features, close, 0, 4, lookback=3)
        assert got.m == 1

    def test_windows_never_reach_outside_the_range(self):
        features = ramp_features(20)
        close = np.arange(20, dtype=np.float64)
        got = make_windows(features, close, 5, 15, lookback=4)
        assert got.inputs.min() >= features[5].min()
        assert got.anchors.min() == 5 + 3
        assert got.anchors.max() == 13
        assert got.targets.max() == close[14]

    def test_flat_inputs_shape(self):
        features = ramp_features(12, p=3)
        close = np.zeros(12)
        got = make_windows(features, close, 0, 12, lookback=4)
        flat = got.flat_inputs()
        assert flat.shape == (got.m, 4 * 3)
        np.testing.assert_array_equal(flat[0], features[0:4].ravel())

    def test_bad_arguments_rejected(self):
        features = ramp_features(10)
        close = np.zeros(10)
        with pytest.raises(ConfigError):
            make_windows(features, close, 0, 10, lookback=0)
        with pytest.raises(DataError):
            make_windows(features, close, -1, 10, lookback=2)
        with pytest.raises(DataError):
            make_windows(features, close, 0, 11, lookback=2)
        with pytest.raises(DataError):
            make_windows(features, np.zeros(9), 0, 10, lookback=2)
