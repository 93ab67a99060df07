"""Error metrics, persistence baseline, aggregation, and report rendering."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from walkforge.errors import DataError, EmptyGroup, ZeroActual
from walkforge.evalreport import (
    PUBLISHED_REFERENCE,
    BatchMetrics,
    aggregate,
    batch_metrics,
    load_runs,
    metrics,
    persistence_baseline,
    render_table,
    report_to_json,
    save_runs,
    write_chart_svg,
)


class TestMetrics:
    def test_perfect_predictions_score_zero(self):
        assert metrics(np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0, 3.0])) == (
            0.0, 0.0, 0.0,
        )

    def test_single_point_ten_percent_high(self):
        rmse, mae, mape = metrics(np.array([110.0]), np.array([100.0]))
        assert rmse == pytest.approx(10.0)
        assert mae == pytest.approx(10.0)
        assert mape == pytest.approx(0.10)

    def test_symmetric_errors(self):
        rmse, mae, mape = metrics(np.array([90.0, 110.0]), np.array([100.0, 100.0]))
        assert rmse == pytest.approx(10.0)
        assert mae == pytest.approx(10.0)
        assert mape == pytest.approx(0.10)

    def test_rmse_dominates_mae(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(1, 40))
            preds = rng.normal(100.0, 20.0, n)
            actual = rng.normal(100.0, 20.0, n)
            actual[actual == 0.0] = 1.0
            rmse, mae, _ = metrics(preds, actual)
            assert rmse >= mae - 1e-12

    def test_matches_hand_formulas(self):
        preds = np.array([12.0, 8.0, 15.0])
        actual = np.array([10.0, 10.0, 10.0])
        rmse, mae, mape = metrics(preds, actual)
        assert rmse == pytest.approx(np.sqrt((4 + 4 + 25) / 3))
        assert mae == pytest.approx((2 + 2 + 5) / 3)
        assert mape == pytest.approx((0.2 + 0.2 + 0.5) / 3)

    def test_zero_actual_rejected_with_position(self):
        with pytest.raises(ZeroActual) as err:
            metrics(np.array([1.0, 1.0]), np.array([5.0, 0.0]))
        assert err.value.index == 1

    def test_bad_shapes_and_values_rejected(self):
        with pytest.raises(DataError):
            metrics(np.zeros(3), np.zeros(4))
        with pytest.raises(DataError):
            metrics(np.zeros((2, 2)), np.zeros((2, 2)))
        with pytest.raises(DataError):
            metrics(np.array([np.inf]), np.array([1.0]))
        with pytest.raises(DataError):
            metrics(np.array([]), np.array([]))

    def test_overflowing_errors_rejected(self):
        # Finite inputs whose difference overflows: rmse and mae are both
        # inf, so the rmse >= mae check cannot hold.
        with np.errstate(over="ignore"), pytest.raises(DataError, match="overflow"):
            metrics(np.array([1.5e308, 1.0]), np.array([-1.5e308, 2.0]))

    def test_overflow_check_survives_optimized_python(self):
        code = ("import numpy as np\n"
                "from walkforge.errors import DataError\n"
                "from walkforge.evalreport import metrics\n"
                "np.seterr(over='ignore')\n"
                "try:\n"
                "    metrics(np.array([1.5e308]), np.array([-1.5e308]))\n"
                "except DataError:\n"
                "    raise SystemExit(7)\n")
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        proc = subprocess.run([sys.executable, "-O", "-c", code], env=env, check=False)
        assert proc.returncode == 7

    def test_batch_metrics_labels_carry_through(self):
        run = batch_metrics("lstm", 3, "test", np.array([110.0]), np.array([100.0]))
        assert (run.model, run.batch, run.split) == ("lstm", 3, "test")
        assert run.value("mape") == pytest.approx(0.10)


class TestPersistence:
    def test_constant_series_is_perfectly_persistent(self):
        run = persistence_baseline(np.full(50, 42.0), np.arange(10, 29))
        assert (run.rmse, run.mae, run.mape) == (0.0, 0.0, 0.0)
        assert run.model == "persistence"

    def test_geometric_growth_has_closed_form_mape(self):
        # y_{t+1} = y_t (1+g): yesterday's value misses by exactly g/(1+g).
        g = 0.03
        close = 100.0 * (1.0 + g) ** np.arange(60)
        run = persistence_baseline(close, np.arange(5, 54))
        assert run.mape == pytest.approx(g / (1.0 + g), rel=1e-12)

    def test_equals_shifted_metrics(self):
        rng = np.random.default_rng(1)
        close = 100.0 * np.exp(np.cumsum(0.01 * rng.standard_normal(80)))
        run = persistence_baseline(close, np.arange(20, 59), batch=4, split="train")
        rmse, mae, mape = metrics(close[20:59], close[21:60])
        assert (run.rmse, run.mae, run.mape) == (rmse, mae, mape)
        assert run.batch == 4
        assert run.split == "train"

    def test_random_walk_mape_is_mean_abs_return(self):
        rng = np.random.default_rng(2)
        close = 100.0 * np.exp(np.cumsum(0.02 * rng.standard_normal(40)))
        run = persistence_baseline(close, np.arange(39))
        returns = np.abs(close[:-1] - close[1:]) / close[1:]
        assert run.mape == pytest.approx(float(returns.mean()), rel=1e-12)

    def test_degenerate_ranges_rejected(self):
        close = np.ones(10)
        with pytest.raises(DataError):
            persistence_baseline(close, np.arange(0))
        with pytest.raises(DataError):
            persistence_baseline(close, np.arange(5, 10))
        with pytest.raises(DataError):
            persistence_baseline(close, np.arange(-1, 3))


def run_of(model, batch, split, mape):
    return BatchMetrics(model=model, batch=batch, split=split,
                        rmse=10.0 * mape, mae=8.0 * mape, mape=mape)


class TestAggregate:
    def test_single_batch_mean_equals_median(self):
        report = aggregate([run_of("lr", 0, "test", 0.05)])
        assert report.mean["lr"]["test"] == report.median["lr"]["test"]

    def test_outlier_batch_moves_mean_not_median(self):
        runs = [run_of("lstm", b, "test", m)
                for b, m in enumerate((0.01, 0.02, 0.99))]
        report = aggregate(runs)
        assert report.mean["lstm"]["test"]["mape"] == pytest.approx(0.34)
        assert report.median["lstm"]["test"]["mape"] == pytest.approx(0.02)

    def test_models_come_out_in_presentation_order(self):
        runs = [run_of(m, 0, "test", 0.1)
                for m in ("persistence", "proposed", "lr", "svr", "lstm")]
        report = aggregate(runs)
        assert list(report.mean) == ["lr", "svr", "lstm", "proposed", "persistence"]

    def test_splits_kept_separate(self):
        runs = [run_of("lr", 0, "train", 0.2), run_of("lr", 0, "test", 0.4)]
        report = aggregate(runs)
        assert report.mean["lr"]["train"]["mape"] == pytest.approx(0.2)
        assert report.mean["lr"]["test"]["mape"] == pytest.approx(0.4)

    def test_runs_are_reordered_by_model_then_batch(self):
        runs = [run_of("proposed", 1, "test", 0.1), run_of("lr", 0, "test", 0.1),
                run_of("proposed", 0, "test", 0.1)]
        report = aggregate(runs)
        assert [(r.model, r.batch) for r in report.runs] == [
            ("lr", 0), ("proposed", 0), ("proposed", 1),
        ]

    def test_empty_rejected(self):
        with pytest.raises(EmptyGroup):
            aggregate([])


class TestReportJson:
    def make_report(self):
        runs = [run_of(m, b, s, 0.01 * (b + 1))
                for m in ("lr", "proposed") for b in (0, 1)
                for s in ("train", "test")]
        return aggregate(runs)

    def test_round_trip(self):
        report = self.make_report()
        blob = json.loads(report_to_json(report, {"seed": 7, "epochs": 30}))
        assert blob["config"] == {"seed": 7, "epochs": 30}
        assert blob["aggregates"] == {"mean": report.mean, "median": report.median}
        assert [BatchMetrics(**r) for r in blob["runs"]] == list(report.runs)

    def test_reference_block_is_labeled_not_asserted(self):
        blob = json.loads(report_to_json(self.make_report(), {}))
        assert blob["reference"]["source"] == "Table 1"
        assert blob["reference"]["asserted"] is False
        proposed = blob["reference"]["mean"]["proposed"]["test"]
        assert proposed == {"rmse": 450.3816, "mae": 334.6625, "mape": 0.0316}

    def test_reference_constant_has_all_four_models(self):
        for block in (PUBLISHED_REFERENCE["mean"], PUBLISHED_REFERENCE["median"]):
            assert set(block) == {"lr", "svr", "lstm", "proposed"}
            for model in block.values():
                assert set(model) == {"train", "test"}


class TestRenderTable:
    def test_layout_has_both_aggregations_and_all_models(self):
        runs = [run_of(m, b, s, 0.05)
                for m in ("lr", "svr", "lstm", "proposed") for b in (0, 1, 2)
                for s in ("train", "test")]
        text = render_table(aggregate(runs))
        lines = text.splitlines()
        assert "Mean" in lines
        assert "Median" in lines
        for model in ("lr", "svr", "lstm", "proposed"):
            rows = [ln for ln in lines if ln.startswith(model)]
            assert len(rows) == 2
            assert all(len(row.split()) == 7 for row in rows)
        header_rows = [ln for ln in lines if "RMSE" in ln]
        assert len(header_rows) == 2
        assert "MAPE" in header_rows[0]

    def test_missing_split_renders_as_dash(self):
        text = render_table(aggregate([run_of("lr", 0, "test", 0.5)]))
        row = next(ln for ln in text.splitlines() if ln.startswith("lr"))
        assert "-" in row


class TestRunsFile:
    def test_round_trip(self, tmp_path):
        runs = [run_of("svr", b, "test", 0.01 + b * 0.001) for b in range(4)]
        path = str(tmp_path / "runs.json")
        save_runs(runs, path)
        assert load_runs(path) == runs

    def test_bad_file_rejected(self, tmp_path):
        path = tmp_path / "runs.json"
        path.write_text("{}")
        with pytest.raises(DataError):
            load_runs(str(path))


class TestChart:
    def test_writes_one_polyline_per_series(self, tmp_path):
        rng = np.random.default_rng(3)
        actual = 100.0 + np.cumsum(rng.standard_normal(50))
        preds = {"proposed": actual + 1.0, "lr": actual - 2.0}
        path = tmp_path / "chart.svg"
        write_chart_svg(str(path), actual, preds, boundaries=[25])
        text = path.read_text()
        assert text.startswith("<svg")
        assert text.count("<polyline") == 3
        assert "stroke-dasharray" in text

    def test_length_mismatch_rejected(self, tmp_path):
        with pytest.raises(DataError):
            write_chart_svg(str(tmp_path / "x.svg"), np.zeros(5),
                            {"lr": np.zeros(4)}, [])
