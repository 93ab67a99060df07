"""Stage orchestration tests: config assembly, artifact contracts between
stages, and staged-versus-one-shot equivalence on a small synthetic run."""

import json
import os
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from walkforge import (baselines, evalreport, forest, indicators, ingest, nets, pipeline,
                       scaling, splitter)
from walkforge.errors import ConfigError, DataError


# ---------------------------------------------------------------------------
# config file parsing


class TestParseConfigFile:
    def write(self, tmp_path, text):
        path = tmp_path / "run.cfg"
        path.write_text(text)
        return str(path)

    def test_values_comments_and_blanks(self, tmp_path):
        path = self.write(tmp_path, "# a comment\nseed = 5\n\nepochs=9\nwindows = 7,13\n")
        assert pipeline.parse_config_file(path) == {
            "seed": "5", "epochs": "9", "windows": "7,13"}

    def test_unknown_key_reports_path_and_line(self, tmp_path):
        path = self.write(tmp_path, "seed = 5\nsneed = 3\n")
        with pytest.raises(ConfigError, match=r"run\.cfg:2.*sneed"):
            pipeline.parse_config_file(path)

    def test_line_without_equals_rejected(self, tmp_path):
        path = self.write(tmp_path, "epochs 9\n")
        with pytest.raises(ConfigError, match=r"run\.cfg:1.*key=value"):
            pipeline.parse_config_file(path)

    def test_last_duplicate_wins(self, tmp_path):
        path = self.write(tmp_path, "seed=1\nseed=2\n")
        assert pipeline.parse_config_file(path) == {"seed": "2"}


class TestBuildConfig:
    def test_coercion_per_key(self):
        cfg = pipeline.build_config(
            {"windows": "7,13", "chart": "yes", "dropout": "0.5", "trees": "9",
             "model": "svr"}, {})
        assert cfg.windows == (7, 13)
        assert cfg.chart is True
        assert cfg.dropout == 0.5
        assert cfg.trees == 9
        assert cfg.model == "svr"

    def test_bool_accepts_both_spellings(self):
        assert pipeline.build_config({"chart": "1"}, {}).chart is True
        assert pipeline.build_config({"chart": "false"}, {}).chart is False

    def test_bad_bool_rejected(self):
        with pytest.raises(ConfigError, match="chart"):
            pipeline.build_config({"chart": "maybe"}, {})

    def test_bad_int_rejected(self):
        with pytest.raises(ConfigError, match="trees"):
            pipeline.build_config({"trees": "many"}, {})

    def test_unknown_file_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            pipeline.build_config({"bogus": "1"}, {})

    def test_unknown_flag_key_rejected(self):
        with pytest.raises(ConfigError, match="^unknown config key 'bogus'$"):
            pipeline.build_config({}, {"bogus": 1})

    def test_flags_override_file_override_defaults(self):
        cfg = pipeline.build_config(
            {"seed": "5", "epochs": "9"}, {"epochs": 2, "h1": None})
        assert cfg.seed == 5       # from file
        assert cfg.epochs == 2     # flag wins over file
        assert cfg.h1 == 800       # None flags fall through to the default

    def test_seed_env_fallback(self, monkeypatch):
        monkeypatch.setenv("WALKFORGE_SEED", "42")
        assert pipeline.build_config({}, {}).seed == 42

    def test_seed_flag_beats_env(self, monkeypatch):
        monkeypatch.setenv("WALKFORGE_SEED", "42")
        assert pipeline.build_config({}, {"seed": 3}).seed == 3

    def test_seed_file_beats_env(self, monkeypatch):
        monkeypatch.setenv("WALKFORGE_SEED", "42")
        assert pipeline.build_config({"seed": "5"}, {}).seed == 5

    def test_non_integer_env_seed_rejected(self, monkeypatch):
        monkeypatch.setenv("WALKFORGE_SEED", "abc")
        with pytest.raises(ConfigError, match="WALKFORGE_SEED"):
            pipeline.build_config({}, {})

    def test_env_unset_uses_default(self, monkeypatch):
        monkeypatch.delenv("WALKFORGE_SEED", raising=False)
        assert pipeline.build_config({}, {}).seed == 0


class TestRunConfig:
    def test_unknown_model_rejected(self):
        with pytest.raises(ConfigError, match="unknown model"):
            pipeline.RunConfig(model="magic")

    def test_nonpositive_synthetic_rejected(self):
        with pytest.raises(ConfigError, match="synthetic row count must be >= 1, got 0"):
            pipeline.RunConfig(synthetic=0)

    def test_nonpositive_k_rejected(self):
        with pytest.raises(ConfigError, match="k must be >= 1, got 0"):
            pipeline.RunConfig(k=0)

    def test_nonpositive_lookback_rejected(self):
        with pytest.raises(ConfigError, match="lookback must be >= 1, got 0"):
            pipeline.RunConfig(lookback=0)

    def test_models_expansion(self):
        assert pipeline.RunConfig(model="all").models == ("lr", "svr", "lstm", "proposed")
        assert pipeline.RunConfig(model="lstm").models == ("lstm",)

    def test_effective_excludes_paths(self):
        block = pipeline.RunConfig(csv="in.csv", out="elsewhere").effective()
        assert "csv" not in block
        assert "out" not in block

    def test_effective_lists_tuples_and_defaults(self):
        block = pipeline.RunConfig().effective()
        assert block["windows"] == [7, 30, 90]
        assert block["seed"] == 0
        assert block["model"] == "all"
        assert block["train_len"] == 500

    def test_model_seed_derivation(self):
        cfg = pipeline.RunConfig(seed=7)
        assert pipeline._model_seed(cfg, "lr", 0) == 8
        assert pipeline._model_seed(cfg, "proposed", 2) == 7 + 2 * 1009 + 4

    def test_model_seeds_distinct_across_grid(self):
        cfg = pipeline.RunConfig(seed=7)
        seeds = {pipeline._model_seed(cfg, m, b)
                 for m in ("lr", "svr", "lstm", "proposed") for b in range(6)}
        assert len(seeds) == 24


# ---------------------------------------------------------------------------
# stage guard rails


class TestStageGuards:
    def cfg(self, tmp_path, **over):
        return pipeline.RunConfig(out=str(tmp_path / "out"), **over)

    def test_synth_requires_row_count(self, tmp_path):
        with pytest.raises(ConfigError, match="synthetic"):
            pipeline.stage_synth(self.cfg(tmp_path))

    def test_pipeline_requires_an_input(self, tmp_path):
        with pytest.raises(ConfigError, match="--synthetic N or --csv"):
            pipeline.stage_pipeline(self.cfg(tmp_path))

    def test_featurize_names_missing_producer(self, tmp_path):
        with pytest.raises(DataError, match=r"raw\.csv; run the synth stage first"):
            pipeline.stage_featurize(self.cfg(tmp_path))

    def test_select_names_missing_producer(self, tmp_path):
        with pytest.raises(DataError, match=r"features\.wffm; run the featurize stage first"):
            pipeline.stage_select(self.cfg(tmp_path))

    def test_plan_names_missing_producer(self, tmp_path):
        with pytest.raises(DataError, match="run the featurize stage first"):
            pipeline.stage_plan(self.cfg(tmp_path))

    def test_report_names_missing_producer(self, tmp_path):
        with pytest.raises(DataError, match=r"metrics\.json; run the evaluate stage first"):
            pipeline.stage_report(self.cfg(tmp_path))

    def test_train_reports_corrupt_selection(self, tmp_path):
        cfg = self.cfg(tmp_path, synthetic=10, windows=(2, 3), lookback=2)
        pipeline.stage_synth(cfg)
        pipeline.stage_featurize(cfg)
        with open(os.path.join(cfg.out, "selection.json"), "w") as f:
            f.write('{"oops": 1}')
        with pytest.raises(DataError, match=r"bad selection\.json"):
            pipeline.stage_train(cfg)


def test_usd_conversion_clamps_negative_prices():
    params = scaling.ScalerParams(columns=("close",),
                                  center=np.array([100.0]), scale=np.array([50.0]))
    usd = pipeline._to_usd(np.array([-3.0, 0.0, 1.0]), params)
    assert usd.tolist() == [0.0, 100.0, 150.0]  # 100 - 150 clamps to 0


# ---------------------------------------------------------------------------
# a small but complete run: every stage, every model, two batches


def small_cfg(out_dir, **over):
    base = dict(
        synthetic=120, seed=11, out=str(out_dir), model="all",
        windows=(7, 13), trees=5, max_depth=4, mtry=20, min_samples_leaf=2,
        k=4, train_len=80, test_len=20, stride=20, lookback=3,
        h1=3, h2=2, epochs=2, batch_size=32, chart=True,
        svr_max_iter=20_000,
    )
    base.update(over)
    return pipeline.RunConfig(**base)


@pytest.fixture(scope="module")
def staged(tmp_path_factory):
    cfg = small_cfg(tmp_path_factory.mktemp("staged") / "out")
    paths = [
        pipeline.stage_synth(cfg),
        pipeline.stage_featurize(cfg),
        pipeline.stage_select(cfg),
        pipeline.stage_plan(cfg),
    ]
    paths += pipeline.stage_train(cfg)
    paths.append(pipeline.stage_evaluate(cfg))
    paths.append(pipeline.stage_report(cfg))
    for path in paths:
        assert os.path.exists(path)
    return cfg


@pytest.fixture(scope="module")
def oneshot(tmp_path_factory):
    cfg = small_cfg(tmp_path_factory.mktemp("oneshot") / "out")
    report_path = pipeline.stage_pipeline(cfg)
    assert os.path.exists(report_path)
    return cfg


class TestStagedRun:
    def test_synth_adds_indicator_warmup_rows(self, staged):
        with open(os.path.join(staged.out, "raw.csv")) as f:
            rows = sum(1 for _ in f) - 1
        assert rows == 120 + indicators.warmup_rows((7, 13))  # 120 + 25

    def test_feature_cache_shape(self, staged):
        matrix = indicators.load_cache(os.path.join(staged.out, "features.wffm"))
        assert len(matrix.names) == 12 * 2 * 23 + 23  # kinds x windows x series + raw
        assert matrix.usable_from == 25
        assert matrix.n - matrix.usable_from == 120

    def test_selection_is_k_known_features(self, staged):
        matrix = indicators.load_cache(os.path.join(staged.out, "features.wffm"))
        with open(os.path.join(staged.out, "selection.json")) as f:
            blob = json.load(f)
        assert blob["k"] == 4
        assert len(blob["features"]) == 4
        assert len(set(blob["features"])) == 4
        assert set(blob["features"]) <= set(matrix.names)

    def test_importance_csv_ranks_every_feature(self, staged):
        with open(os.path.join(staged.out, "importance.csv")) as f:
            header = f.readline().strip()
            lines = [line for line in f if line.strip()]
        assert header == "feature,importance"
        assert len(lines) == 12 * 2 * 23 + 23
        values = [float(line.rsplit(",", 1)[1]) for line in lines]
        assert values == sorted(values, reverse=True)
        assert np.isclose(sum(values), 1.0)

    def test_plan_tiles_the_usable_range(self, staged):
        with open(os.path.join(staged.out, "plan.json")) as f:
            plan = splitter.plan_from_json(f.read())
        got = [(b.train_start, b.train_end, b.test_start, b.test_end)
               for b in plan.batches]
        assert got == [(0, 80, 80, 100), (20, 100, 100, 120)]

    def test_checkpoints_per_model_per_batch(self, staged):
        for model in ("lr", "svr", "lstm", "proposed"):
            for batch in (0, 1):
                assert os.path.exists(
                    os.path.join(staged.out, "models", f"{model}_b{batch}.bin"))

    def test_checkpoint_types_round_trip(self, staged, monkeypatch):
        # _predict loads each model's checkpoint with its kind's loader
        loaded = {}
        for module, name in ((baselines, "load_linear"), (baselines, "load_svr"),
                             (nets, "load_network")):
            def recording(path, load=getattr(module, name)):
                loaded[os.path.basename(path)] = model = load(path)
                return model

            monkeypatch.setattr(module, name, recording)
        _, _, data = pipeline._batches(staged)
        sample_sets = (data[0].train_set, data[0].test_set)
        for model in ("lr", "svr", "lstm", "proposed"):
            path = os.path.join(staged.out, "models", f"{model}_b0.bin")
            preds = pipeline._predict(model, path, sample_sets)
            assert [p.shape for p in preds] == [(s.m,) for s in sample_sets]
        lr, svr, lstm, prop = (loaded[f"{model}_b0.bin"]
                               for model in ("lr", "svr", "lstm", "proposed"))
        assert isinstance(lr, baselines.LinearModel)
        assert isinstance(svr, baselines.SvrModel)
        assert isinstance(lstm, nets.BiLstmNetwork)
        assert isinstance(prop, nets.BiLstmNetwork)
        assert [layer.directions for layer in lstm.layers] == [1, 1]
        assert [layer.directions for layer in prop.layers] == [2, 2]
        # the networks train and are stored in float32, the baselines in float64
        assert lstm.dtype == prop.dtype == np.float32
        assert lr.weights.dtype == svr.support_vectors.dtype == np.float64

    def test_loss_curves_written_for_nets_only(self, staged):
        losses_dir = os.path.join(staged.out, "losses")
        assert sorted(os.listdir(losses_dir)) == [
            "lstm_b0.csv", "lstm_b1.csv", "proposed_b0.csv", "proposed_b1.csv"]
        with open(os.path.join(losses_dir, "proposed_b0.csv")) as f:
            assert f.readline().strip() == "epoch,loss"
            losses = [float(line.split(",")[1]) for line in f if line.strip()]
        assert len(losses) == staged.epochs
        assert all(np.isfinite(losses))

    def test_metrics_cover_models_splits_batches(self, staged):
        runs = evalreport.load_runs(os.path.join(staged.out, "metrics.json"))
        labels = {(r.model, r.batch, r.split) for r in runs}
        expected = {(m, b, s)
                    for m in ("lr", "svr", "lstm", "proposed", "persistence")
                    for b in (0, 1) for s in ("train", "test")}
        assert labels == expected
        assert len(runs) == len(expected)
        assert all(np.isfinite((r.rmse, r.mae, r.mape)).all() for r in runs)

    def test_persistence_matches_direct_computation(self, staged):
        matrix = indicators.load_cache(os.path.join(staged.out, "features.wffm"))
        close = matrix.usable()[:, matrix.index_of("close")]
        expected = evalreport.persistence_baseline(close, np.arange(99, 119), 1, "test")
        runs = evalreport.load_runs(os.path.join(staged.out, "metrics.json"))
        got = [r for r in runs
               if r.model == "persistence" and r.batch == 1 and r.split == "test"]
        assert len(got) == 1
        assert got[0].rmse == pytest.approx(expected.rmse, rel=1e-12)
        assert got[0].mape == pytest.approx(expected.mape, rel=1e-12)

    def test_persistence_scores_the_model_rows(self, staged):
        # train_len 80, lookback 3: the models score rows 3..79 of batch 0's
        # train split (anchors 2..78), and so must persistence
        matrix = indicators.load_cache(os.path.join(staged.out, "features.wffm"))
        close = matrix.usable()[:, matrix.index_of("close")]
        expected = evalreport.persistence_baseline(close, np.arange(2, 79), 0, "train")
        runs = evalreport.load_runs(os.path.join(staged.out, "metrics.json"))
        got = [r for r in runs
               if r.model == "persistence" and r.batch == 0 and r.split == "train"]
        assert got == [expected]

    def test_predictions_csv_layout(self, staged):
        with open(os.path.join(staged.out, "predictions.csv")) as f:
            header = f.readline().strip()
            rows = [line.strip().split(",") for line in f if line.strip()]
        assert header == "batch,row,date,actual,lr,svr,lstm,proposed"
        assert len(rows) == 2 * 20  # two batches of twenty test rows
        assert [r[0] for r in rows] == ["0"] * 20 + ["1"] * 20
        for row in rows:
            ingest.parse_date(row[2])  # dates are well-formed
            assert float(row[3]) > 0
            assert all(float(cell) >= 0 for cell in row[4:])

    def test_predictions_csv_agrees_with_metrics(self, staged):
        # every model column scored against the actual column gives its
        # batch's test metrics, and each row's actual is that row's close
        matrix = indicators.load_cache(os.path.join(staged.out, "features.wffm"))
        close = matrix.usable()[:, matrix.index_of("close")]
        dates = matrix.dates[matrix.usable_from:]
        with open(os.path.join(staged.out, "predictions.csv")) as f:
            header = f.readline().strip().split(",")
            rows = [line.strip().split(",") for line in f if line.strip()]
        test = {(r.model, r.batch): r
                for r in evalreport.load_runs(os.path.join(staged.out, "metrics.json"))
                if r.split == "test" and r.model != "persistence"}
        assert set(test) == {(m, b) for m in header[4:] for b in (0, 1)}
        for batch in (0, 1):
            block = [r for r in rows if r[0] == str(batch)]
            at = [int(r[1]) for r in block]
            actual = np.array([float(r[3]) for r in block])
            assert actual.tolist() == close[at].tolist()
            assert [r[2] for r in block] == [ingest.format_date(int(d)) for d in dates[at]]
            for column, model in enumerate(header[4:], start=4):
                preds = np.array([float(r[column]) for r in block])
                want = test[(model, batch)]
                assert evalreport.metrics(preds, actual) == (want.rmse, want.mae, want.mape)

    def test_report_json_contents(self, staged):
        with open(os.path.join(staged.out, "report.json")) as f:
            blob = json.load(f)
        assert blob["config"] == json.loads(json.dumps(staged.effective()))
        assert list(blob["aggregates"]["mean"]) == [
            "lr", "svr", "lstm", "proposed", "persistence"]
        for model, splits in blob["aggregates"]["mean"].items():
            assert set(splits) == {"train", "test"}
        assert blob["reference"]["source"] == "Table 1"

    def test_report_text_and_chart(self, staged):
        with open(os.path.join(staged.out, "report.txt")) as f:
            text = f.read()
        assert text.startswith("Effective config\n")
        assert "Mean" in text and "Median" in text
        assert "proposed" in text and "persistence" in text
        with open(os.path.join(staged.out, "chart.svg")) as f:
            assert f.read(100).startswith("<svg")


    def test_converged_run_has_no_warnings(self, staged):
        with open(os.path.join(staged.out, "report.txt")) as f:
            assert "Warnings" not in f.read()


class TestFitWarnings:
    def test_unconverged_svr_fit_is_reported(self, tmp_path):
        cfg = small_cfg(tmp_path / "out", model="svr", synthetic=110,
                        chart=False, svr_max_iter=2)
        pipeline.stage_pipeline(cfg)
        with open(os.path.join(cfg.out, "report.txt")) as f:
            text = f.read()
        assert text.endswith("\nWarnings\nsvr batch 0: not converged after 2 "
                             "iterations (max_iter 2, tol 0.001)\n")
        with open(os.path.join(cfg.out, "report.json")) as f:
            assert "converged" not in f.read()

    def test_warning_read_from_checkpoint(self, tmp_path):
        # the report takes converged, iterations, max_iter and tol from the
        # checkpoint, not from its own config
        cfg = small_cfg(tmp_path / "out", model="svr", synthetic=110, chart=False)
        pipeline.stage_pipeline(cfg)
        path = os.path.join(cfg.out, "models", "svr_b0.bin")
        model = baselines.load_svr(path)
        assert (model.max_iter, model.tol) == (cfg.svr_max_iter, cfg.svr_tol)
        baselines.save_svr(replace(model, converged=False, iterations=77,
                                   max_iter=99, tol=0.25), path)
        pipeline.stage_report(cfg)
        with open(os.path.join(cfg.out, "report.txt")) as f:
            assert f.read().endswith("\nWarnings\nsvr batch 0: not converged after 77 "
                                     "iterations (max_iter 99, tol 0.25)\n")


class TestStagedVersusOneShot:
    def read(self, cfg, name):
        with open(os.path.join(cfg.out, name), "rb") as f:
            return f.read()

    def test_reports_byte_identical(self, staged, oneshot):
        assert self.read(staged, "report.json") == self.read(oneshot, "report.json")

    def test_metrics_byte_identical(self, staged, oneshot):
        assert self.read(staged, "metrics.json") == self.read(oneshot, "metrics.json")

    def test_predictions_byte_identical(self, staged, oneshot):
        assert self.read(staged, "predictions.csv") == self.read(oneshot, "predictions.csv")

    def test_rerun_is_byte_identical(self, oneshot, tmp_path):
        cfg = small_cfg(tmp_path / "out")
        pipeline.stage_pipeline(cfg)
        assert self.read(cfg, "report.json") == self.read(oneshot, "report.json")


class TestSingleModelRun:
    def test_lr_only_run_restricts_artifacts(self, tmp_path):
        cfg = small_cfg(tmp_path / "out", model="lr", synthetic=110, chart=False)
        pipeline.stage_pipeline(cfg)
        assert sorted(os.listdir(os.path.join(cfg.out, "models"))) == ["lr_b0.bin"]
        assert os.listdir(os.path.join(cfg.out, "losses")) == []
        with open(os.path.join(cfg.out, "report.json")) as f:
            blob = json.load(f)
        assert list(blob["aggregates"]["mean"]) == ["lr", "persistence"]
        assert not os.path.exists(os.path.join(cfg.out, "chart.svg"))

    def test_csv_input_replaces_synth(self, tmp_path):
        source = small_cfg(tmp_path / "source", synthetic=110, model="lr")
        pipeline.stage_synth(source)
        raw_path = os.path.join(source.out, "raw.csv")

        cfg = small_cfg(tmp_path / "out", model="lr", chart=False)
        cfg = replace(cfg, synthetic=None, csv=raw_path)
        pipeline.stage_pipeline(cfg)
        matrix = indicators.load_cache(os.path.join(cfg.out, "features.wffm"))
        assert matrix.n - matrix.usable_from == 110
        assert os.path.exists(os.path.join(cfg.out, "report.json"))


class TestFeatureMatrixMemory:
    """Traced memory of featurize and select on 1100 synthetic rows at the
    default windows, as multiples of the feature matrix's value bytes (V).

    Each bound lies between two readings: the code that held extra copies
    (a per-window stack of every kind; an unscaled and a scaled matrix at
    once; a whole-matrix copy per scaler statistic; 2 MiB ranking blocks)
    and the code that holds one resident matrix.

    | reading                                | extra copies | one matrix | bound |
    |----------------------------------------|--------------|------------|-------|
    | featurize, traced peak                 | 2.07 V       | 1.51 V     | 1.8 V |
    | select, current when fit_forest starts | 2.00 V       | 1.14 V     | 1.5 V |
    | select, traced peak by then            | 2.87 V       | 1.20 V     | 1.5 V |
    | select, traced peak once x is ranked   | 3.00 V       | 1.56 V     | 1.8 V |
    """

    @pytest.fixture(scope="class")
    def readings(self, tmp_path_factory):
        cfg = pipeline.RunConfig(synthetic=1100, seed=7, trees=1, max_depth=2,
                                 out=str(tmp_path_factory.mktemp("memory") / "out"))
        pipeline.stage_synth(cfg)
        got = {}
        fit_forest, dense_keys = forest.fit_forest, forest._dense_keys

        def recorder(x, y, config):
            got["select_current"], got["select_peak"] = tracemalloc.get_traced_memory()
            return fit_forest(x, y, config)

        def keys_recorder(x):
            keys = dense_keys(x)
            got["select_keys_peak"] = tracemalloc.get_traced_memory()[1]
            return keys

        tracemalloc.start()
        try:
            path = pipeline.stage_featurize(cfg)
            got["featurize_peak"] = tracemalloc.get_traced_memory()[1]
            tracemalloc.clear_traces()
            tracemalloc.reset_peak()
            forest.fit_forest, forest._dense_keys = recorder, keys_recorder
            try:
                pipeline.stage_select(cfg)
            finally:
                forest.fit_forest, forest._dense_keys = fit_forest, dense_keys
        finally:
            tracemalloc.stop()
        value_bytes = indicators.load_cache(path).values.nbytes
        return {name: reading / value_bytes for name, reading in got.items()}

    @pytest.mark.parametrize("name, bound", [
        ("featurize_peak", 1.8),
        ("select_current", 1.5),
        ("select_peak", 1.5),
        ("select_keys_peak", 1.8),
    ])
    def test_reading_within_bound(self, readings, name, bound):
        assert readings[name] < bound, readings
