"""End-to-end stage orchestration over a shared output directory.

Every stage is a deterministic function of its input artifacts and the
config, so rerunning a stage overwrites its outputs with identical bytes.
Artifact names are fixed: raw.csv, features.wffm, importance.csv,
selection.json, plan.json, models/, losses/, metrics.json, predictions.csv,
report.json, report.txt, chart.svg.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from . import _pool, baselines, evalreport, forest, indicators, ingest, nets, scaling, splitter
from .errors import ConfigError, DataError

MODEL_CHOICES = ("lr", "svr", "lstm", "proposed")
_SEED_STRIDE = 1009  # distinct deterministic seeds per (model, batch)


@dataclass(frozen=True)
class RunConfig:
    csv: str | None = None
    synthetic: int | None = None
    seed: int = 0
    out: str = "out"
    model: str = "all"
    chart: bool = False

    fill_cap: int = 3
    windows: tuple[int, ...] = indicators.DEFAULT_WINDOWS

    trees: int = 100
    min_samples_leaf: int = 5
    mtry: int | None = None
    max_depth: int | None = None
    k: int = 10

    train_len: int = 500
    test_len: int = 100
    stride: int = 100
    lookback: int = 7

    h1: int = 800
    h2: int = 1000
    dropout: float = 0.2
    epochs: int = 50
    batch_size: int = 32
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    clip_norm: float = 1.0

    svr_c: float = 100.0
    svr_epsilon: float = 0.1
    svr_gamma: float | None = None
    svr_tol: float = 1e-3
    svr_max_iter: int = 100_000

    start_price: float = 100.0
    drift: float = 0.0002
    volatility: float = 0.005
    quote_noise: float = 0.02
    spread: float = 0.01
    aux_coupling: float = 1.0
    aux_noise: float = 0.35

    def __post_init__(self) -> None:
        if self.model not in MODEL_CHOICES + ("all",):
            raise ConfigError(f"unknown model {self.model!r}")
        if self.synthetic is not None and self.synthetic < 1:
            raise ConfigError(f"synthetic row count must be >= 1, got {self.synthetic}")
        if self.k < 1:
            raise ConfigError(f"k must be >= 1, got {self.k}")
        if self.seed < 0:  # every generator the seed reaches wants one >= 0
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        # every other setting by its owner's check, before any stage writes;
        # the synthesis and forest settings by building their configs, once
        ingest.check_fill_cap(self.fill_cap)
        indicators.check_windows(self.windows)
        _ = self.synth_config, self.forest_config
        splitter.check_lengths(self.train_len, self.test_len, self.stride)
        splitter.check_lookback(self.lookback)
        splitter.check_lookback_fits(self.lookback, self.train_len)
        nets.check_widths(self.k, self.h1, self.h2)  # the networks read the k selected features
        nets.check_dropout(self.dropout)
        self.train_config(self.seed)
        baselines.check_svr(self.svr_c, self.svr_epsilon, self.svr_gamma, self.svr_tol,
                            self.svr_max_iter)

    @property
    def models(self) -> tuple[str, ...]:
        return MODEL_CHOICES if self.model == "all" else (self.model,)

    @cached_property
    def synth_config(self) -> ingest.SynthConfig:
        return ingest.SynthConfig(
            start_price=self.start_price, drift=self.drift,
            volatility=self.volatility, quote_noise=self.quote_noise,
            spread=self.spread, aux_coupling=self.aux_coupling,
            aux_noise=self.aux_noise,
        )

    @cached_property
    def forest_config(self) -> forest.ForestConfig:
        return forest.ForestConfig(
            seed=self.seed, n_trees=self.trees, max_depth=self.max_depth,
            min_samples_leaf=self.min_samples_leaf, mtry=self.mtry,
        )

    def train_config(self, seed: int) -> nets.TrainConfig:
        return nets.TrainConfig(
            epochs=self.epochs, batch_size=self.batch_size,
            learning_rate=self.learning_rate, beta1=self.beta1, beta2=self.beta2,
            eps=self.adam_eps, clip_norm=self.clip_norm, seed=seed,
        )

    def effective(self) -> dict:
        """Config block for reports: every tunable, no filesystem paths."""
        skip = {"csv", "out"}
        block = {}
        for field in fields(self):
            if field.name in skip:
                continue
            value = getattr(self, field.name)
            block[field.name] = list(value) if isinstance(value, tuple) else value
        return block


def boolean(text: str) -> bool:
    if text.lower() in ("1", "true", "yes"):
        return True
    if text.lower() in ("0", "false", "no"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def int_list(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(","))


# One parser per annotation; `T | None` fields parse as T.
_PARSERS = {"int": int, "float": float, "str": str, "bool": boolean,
            "tuple[int, ...]": int_list}
FIELD_PARSERS = {f.name: _PARSERS[f.type.removesuffix(" | None")] for f in fields(RunConfig)}


def parse_config_file(path: str) -> dict[str, str]:
    """Flat key=value lines; blank lines and # comments ignored."""
    values: dict[str, str] = {}
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in FIELD_PARSERS:
                raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
            values[key] = value.strip()
    return values


def _check_key(name: str) -> None:
    if name not in FIELD_PARSERS:
        raise ConfigError(f"unknown config key {name!r}")


def _coerce(name: str, text: str):
    _check_key(name)
    try:
        return FIELD_PARSERS[name](text)
    except ValueError as exc:
        raise ConfigError(f"bad value for {name}: {text!r} ({exc})") from exc


def build_config(file_values: dict[str, str], flag_values: dict) -> RunConfig:
    """Defaults, then config-file values, then explicit flags."""
    merged: dict = {}
    for key, text in file_values.items():
        merged[key] = _coerce(key, text)
    for key, value in flag_values.items():
        _check_key(key)
        if value is not None:
            merged[key] = value
    if "seed" not in merged:
        env = os.environ.get("WALKFORGE_SEED")
        if env is not None:
            try:
                merged["seed"] = int(env)
            except ValueError as exc:
                raise ConfigError(f"WALKFORGE_SEED={env!r} is not an integer") from exc
    try:
        return RunConfig(**merged)
    except TypeError as exc:  # a value of the wrong type from an API caller
        raise ConfigError(str(exc)) from exc


# --- artifact paths --------------------------------------------------------

def _path(cfg: RunConfig, name: str) -> str:
    return os.path.join(cfg.out, name)


def _require(cfg: RunConfig, name: str, producer: str) -> str:
    path = _path(cfg, name)
    if not os.path.exists(path):
        raise DataError(f"missing artifact {path}; run the {producer} stage first")
    return path


# Each fit's files: its directory under out/ -> the file suffix there.
_FIT_FILES = {"models": "bin", "losses": "csv"}


def _fit_file(directory: str, model: str, batch: int) -> str:
    """One fit's checkpoint (under models/) or per-epoch losses (under
    losses/), relative to out/."""
    return os.path.join(directory, f"{model}_b{batch}.{_FIT_FILES[directory]}")


def _ensure_out(cfg: RunConfig) -> None:
    os.makedirs(cfg.out, exist_ok=True)
    for directory in _FIT_FILES:
        os.makedirs(_path(cfg, directory), exist_ok=True)


# --- stages ----------------------------------------------------------------

def stage_synth(cfg: RunConfig) -> str:
    if cfg.synthetic is None:
        raise ConfigError("synth needs --synthetic N")
    _ensure_out(cfg)
    # --synthetic N asks for N model-ready rows, so generate the indicator
    # warm-up on top: featurize discards warmup_rows(windows) leading rows.
    rows = cfg.synthetic + indicators.warmup_rows(cfg.windows)
    raw = ingest.synthesize(rows, cfg.seed, cfg.synth_config)
    path = _path(cfg, "raw.csv")
    ingest.write_csv(raw, path)
    return path


def _load_raw(cfg: RunConfig) -> ingest.RawSeries:
    if cfg.csv is not None:
        return ingest.load_csv(cfg.csv)
    return ingest.load_csv(_require(cfg, "raw.csv", "synth"))


def stage_featurize(cfg: RunConfig) -> str:
    _ensure_out(cfg)
    raw = ingest.clean(_load_raw(cfg), cfg.fill_cap)
    matrix = indicators.expand_features(raw, cfg.windows)
    path = _path(cfg, "features.wffm")
    indicators.save_cache(matrix, path)
    return path


def stage_select(cfg: RunConfig) -> str:
    _ensure_out(cfg)
    matrix = indicators.load_cache(_require(cfg, "features.wffm", "featurize"))
    usable = matrix.usable()
    params = scaling.fit(usable, slice(None), matrix.names)
    # scaled in place: the forest and its forked workers share this one copy
    scaled = scaling.transform(usable, params, out=usable)
    close_idx = matrix.index_of("close")
    x = scaled[:-1]
    y = scaled[1:, close_idx]
    model = forest.fit_forest(x, y, cfg.forest_config)
    ranking = forest.importances(model, matrix.names)
    selected = forest.top_k(ranking, cfg.k)

    with open(_path(cfg, "importance.csv"), "w") as f:
        f.write("feature,importance\n")
        for j in ranking.order:
            f.write(f"{ranking.names[j]},{float(ranking.importance[j])!r}\n")
    path = _path(cfg, "selection.json")
    with open(path, "w") as f:
        f.write(json.dumps({"k": cfg.k, "features": selected}, indent=2))
    return path


def stage_plan(cfg: RunConfig) -> str:
    _ensure_out(cfg)
    matrix = indicators.load_cache(_require(cfg, "features.wffm", "featurize"))
    usable_rows = matrix.n - matrix.usable_from
    plan = splitter.make_batches(usable_rows, cfg.train_len, cfg.test_len, cfg.stride)
    path = _path(cfg, "plan.json")
    with open(path, "w") as f:
        f.write(splitter.plan_to_json(plan))
    return path


@dataclass(frozen=True)
class _BatchData:
    train_set: splitter.SampleSet
    test_set: splitter.SampleSet
    close_params: scaling.ScalerParams
    close_usd: np.ndarray


def _batch_data(matrix: indicators.FeatureMatrix, selected: list[str],
                batch: splitter.Batch, lookback: int) -> _BatchData:
    usable = matrix.usable()
    sel_idx = [matrix.index_of(name) for name in selected]
    close_col = usable[:, [matrix.index_of("close")]]
    rows = slice(batch.train_start, batch.train_end)

    chosen = usable[:, sel_idx]
    feat_params = scaling.fit(chosen, rows, tuple(selected))
    close_params = scaling.fit(close_col, rows, ("close",))
    features = scaling.transform(chosen, feat_params)
    close_scaled = scaling.transform(close_col, close_params)[:, 0]

    train_set = splitter.make_windows(features, close_scaled,
                                      batch.train_start, batch.train_end, lookback)
    # test windows may reach back into the train tail: inputs are observed
    # history, so each test row gets a prediction without leakage
    test_set = splitter.make_windows(features, close_scaled,
                                     batch.test_start - lookback, batch.test_end, lookback)
    return _BatchData(train_set=train_set, test_set=test_set,
                      close_params=close_params, close_usd=close_col[:, 0])


def _batches(cfg: RunConfig) -> tuple[indicators.FeatureMatrix, splitter.WalkForwardPlan,
                                      dict[int, _BatchData]]:
    """The feature matrix, the plan and each batch's data by batch index:
    what train and evaluate read of the earlier stages' artifacts."""
    matrix = indicators.load_cache(_require(cfg, "features.wffm", "featurize"))
    with open(_require(cfg, "selection.json", "select")) as f:
        try:
            selected = list(json.load(f)["features"])
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"bad selection.json: {exc}") from exc
    with open(_require(cfg, "plan.json", "plan")) as f:
        plan = splitter.plan_from_json(f.read())
    return matrix, plan, {batch.index: _batch_data(matrix, selected, batch, cfg.lookback)
                          for batch in plan.batches}


def _model_seed(cfg: RunConfig, model: str, batch: int) -> int:
    return cfg.seed + _SEED_STRIDE * batch + MODEL_CHOICES.index(model) + 1


def _fit_tasks(cfg: RunConfig, plan: splitter.WalkForwardPlan) -> list[tuple[int, str]]:
    """Every (batch, model) pair, in the order reports list them."""
    return [(batch.index, model_name) for batch in plan.batches for model_name in cfg.models]


def stage_train(cfg: RunConfig) -> list[str]:
    """Fit every (batch, model) pair; the fits run on the worker pool, each
    writing its own checkpoint and losses file."""
    _ensure_out(cfg)
    _, plan, data = _batches(cfg)

    def fit(task: tuple[int, str]) -> str:
        batch, model_name = task
        train_set = data[batch].train_set
        seed = _model_seed(cfg, model_name, batch)
        path = _path(cfg, _fit_file("models", model_name, batch))
        if model_name == "lr":
            model = baselines.fit_linear(train_set.flat_inputs(), train_set.targets)
            baselines.save_linear(model, path)
        elif model_name == "svr":
            model = baselines.fit_svr(
                train_set.flat_inputs(), train_set.targets,
                c=cfg.svr_c, epsilon=cfg.svr_epsilon, gamma=cfg.svr_gamma,
                tol=cfg.svr_tol, max_iter=cfg.svr_max_iter,
            )
            baselines.save_svr(model, path)
        else:
            net = nets.build_network(  # float32, Keras's default dtype
                train_set.inputs.shape[2], cfg.h1, cfg.h2, cfg.dropout,
                bidirectional=(model_name == "proposed"), seed=seed, dtype=np.float32,
            )
            net, losses = nets.train(net, train_set.inputs, train_set.targets,
                                     cfg.train_config(seed))
            nets.save_network(net, path)
            nets.save_losses(losses, _path(cfg, _fit_file("losses", model_name, batch)))
        return path

    return _pool.run_tasks(fit, _fit_tasks(cfg, plan))


def _predict(model_name: str, path: str,
             sample_sets: tuple[splitter.SampleSet, ...]) -> list[np.ndarray]:
    """The scaled predictions of the checkpoint at path for each sample set."""
    if model_name in ("lstm", "proposed"):
        net = nets.load_network(path)
        return [np.asarray(nets.network_forward(net, sample_set.inputs, mode="eval")[0])
                for sample_set in sample_sets]
    if model_name == "lr":
        model, predict = baselines.load_linear(path), baselines.predict_linear
    else:
        model, predict = baselines.load_svr(path), baselines.predict_svr
    return [predict(model, sample_set.flat_inputs()) for sample_set in sample_sets]


def _to_usd(preds_scaled: np.ndarray, close_params: scaling.ScalerParams) -> np.ndarray:
    usd = scaling.inverse_transform(preds_scaled[:, None], close_params)[:, 0]
    return np.maximum(usd, 0.0)  # prices cannot go negative


def stage_evaluate(cfg: RunConfig) -> str:
    """Score every (batch, model) checkpoint and persistence on each batch's
    train and test windows, and list each test row's predictions; the
    predictions run on the worker pool."""
    _ensure_out(cfg)
    matrix, plan, data = _batches(cfg)

    def predict(task: tuple[int, str]) -> list[np.ndarray]:
        """The model's train and test predictions in USD."""
        batch, model_name = task
        path = _require(cfg, _fit_file("models", model_name, batch), "train")
        sample_sets = (data[batch].train_set, data[batch].test_set)
        return [_to_usd(preds, data[batch].close_params)
                for preds in _predict(model_name, path, sample_sets)]

    tasks = _fit_tasks(cfg, plan)
    preds = dict(zip(tasks, _pool.run_tasks(predict, tasks)))

    runs: list[evalreport.BatchMetrics] = []
    lines = ["batch,row,date,actual," + ",".join(cfg.models) + "\n"]
    dates = matrix.dates[matrix.usable_from:]
    for batch in plan.batches:  # in index order, as plan writes them
        batch_data = data[batch.index]
        usd = batch_data.close_usd
        splits = (("train", batch_data.train_set), ("test", batch_data.test_set))
        for model_name in cfg.models:
            for (split, sample_set), split_preds in zip(splits, preds[(batch.index, model_name)]):
                runs.append(evalreport.batch_metrics(
                    model_name, batch.index, split, split_preds, usd[sample_set.anchors + 1]))
        for split, sample_set in splits:
            runs.append(evalreport.persistence_baseline(
                usd, sample_set.anchors, batch.index, split))
        test_preds = [preds[(batch.index, model_name)][1] for model_name in cfg.models]
        for pos, row in enumerate(batch_data.test_set.anchors + 1):
            cells = [str(batch.index), str(int(row)), ingest.format_date(int(dates[row])),
                     repr(float(usd[row]))] + [repr(float(p[pos])) for p in test_preds]
            lines.append(",".join(cells) + "\n")

    path = _path(cfg, "metrics.json")
    evalreport.save_runs(runs, path)
    with open(_path(cfg, "predictions.csv"), "w") as f:
        f.writelines(lines)
    return path


def stage_report(cfg: RunConfig) -> str:
    _ensure_out(cfg)
    runs = evalreport.load_runs(_require(cfg, "metrics.json", "evaluate"))
    report = evalreport.aggregate(runs)
    path = _path(cfg, "report.json")
    with open(path, "w") as f:
        f.write(evalreport.report_to_json(report, cfg.effective()))

    table = evalreport.render_table(report)
    config_lines = "\n".join(f"{key} = {value}" for key, value in cfg.effective().items())
    text = f"Effective config\n{config_lines}\n\n{table}"
    warnings = _fit_warnings(cfg, runs)
    if warnings:
        text += "\nWarnings\n" + "\n".join(warnings) + "\n"
    with open(_path(cfg, "report.txt"), "w") as f:
        f.write(text)
    if cfg.chart:
        _write_chart(cfg)
    return path


def _fit_warnings(cfg: RunConfig, runs: list[evalreport.BatchMetrics]) -> list[str]:
    """One line per evaluated SVR checkpoint that stopped unconverged, with
    the limits its fit ran under."""
    lines = []
    for batch in sorted({r.batch for r in runs if r.model == "svr"}):
        path = _require(cfg, _fit_file("models", "svr", batch), "train")
        model = baselines.load_svr(path)
        if not model.converged:
            lines.append(f"svr batch {batch}: not converged after {model.iterations} "
                         f"iterations (max_iter {model.max_iter}, tol {model.tol})")
    return lines


def _write_chart(cfg: RunConfig) -> None:
    path = _require(cfg, "predictions.csv", "evaluate")
    with open(path) as f:
        header = f.readline().strip().split(",")
        rows = [line.strip().split(",") for line in f if line.strip()]
    if not rows:
        raise DataError(f"{path} has no prediction rows")
    models = header[4:]
    actual = np.array([float(r[3]) for r in rows])
    preds = {m: np.array([float(r[4 + i]) for r in rows]) for i, m in enumerate(models)}
    batches = [int(r[0]) for r in rows]
    boundaries = [i for i in range(1, len(batches)) if batches[i] != batches[i - 1]]
    evalreport.write_chart_svg(_path(cfg, "chart.svg"), actual, preds, boundaries)


def stage_pipeline(cfg: RunConfig) -> str:
    if cfg.synthetic is not None:
        stage_synth(cfg)
    elif cfg.csv is None:
        raise ConfigError("pipeline needs --synthetic N or --csv PATH")
    stage_featurize(cfg)
    stage_select(cfg)
    stage_plan(cfg)
    stage_train(cfg)
    stage_evaluate(cfg)
    return stage_report(cfg)


STAGES = {
    "synth": stage_synth,
    "featurize": stage_featurize,
    "select": stage_select,
    "plan": stage_plan,
    "train": stage_train,
    "evaluate": stage_evaluate,
    "report": stage_report,
    "pipeline": stage_pipeline,
}
