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

import numpy as np

from . import baselines, evalreport, forest, indicators, ingest, nets, scaling, splitter
from .errors import DataError, InvalidConfig

MODEL_CHOICES = ("lr", "svr", "lstm", "proposed")
_SEED_STRIDE = 1009  # distinct deterministic seeds per (model, batch)
_MODEL_OFFSET = {"lr": 1, "svr": 2, "lstm": 3, "proposed": 4}


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
            raise InvalidConfig(f"unknown model {self.model!r}")
        if self.synthetic is not None and self.synthetic < 1:
            raise InvalidConfig(f"synthetic row count must be >= 1, got {self.synthetic}")
        if self.k < 1:
            raise InvalidConfig(f"k must be >= 1, got {self.k}")
        if self.lookback < 1:
            raise InvalidConfig(f"lookback must be >= 1, got {self.lookback}")

    @property
    def models(self) -> tuple[str, ...]:
        return MODEL_CHOICES if self.model == "all" else (self.model,)

    def synth_config(self) -> ingest.SynthConfig:
        return ingest.SynthConfig(
            start_price=self.start_price, drift=self.drift,
            volatility=self.volatility, quote_noise=self.quote_noise,
            spread=self.spread, aux_coupling=self.aux_coupling,
            aux_noise=self.aux_noise,
        )

    def train_config(self, seed: int) -> nets.TrainConfig:
        return nets.TrainConfig(
            epochs=self.epochs, batch_size=self.batch_size,
            learning_rate=self.learning_rate, beta1=self.beta1, beta2=self.beta2,
            eps=self.adam_eps, clip_norm=self.clip_norm,
            dropout_rate=self.dropout, seed=seed,
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
                raise InvalidConfig(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in FIELD_PARSERS:
                raise InvalidConfig(f"{path}:{lineno}: unknown config key {key!r}")
            values[key] = value.strip()
    return values


def _coerce(name: str, text: str):
    if name not in FIELD_PARSERS:
        raise InvalidConfig(f"unknown config key {name!r}")
    try:
        return FIELD_PARSERS[name](text)
    except ValueError as exc:
        raise InvalidConfig(f"bad value for {name}: {text!r} ({exc})") from exc


def build_config(file_values: dict[str, str], flag_values: dict) -> RunConfig:
    """Defaults, then config-file values, then explicit flags."""
    merged: dict = {}
    for key, text in file_values.items():
        merged[key] = _coerce(key, text)
    for key, value in flag_values.items():
        if value is not None:
            merged[key] = value
    if "seed" not in merged:
        env = os.environ.get("WALKFORGE_SEED")
        if env is not None:
            try:
                merged["seed"] = int(env)
            except ValueError as exc:
                raise InvalidConfig(f"WALKFORGE_SEED={env!r} is not an integer") from exc
    try:
        return RunConfig(**merged)
    except TypeError as exc:
        raise InvalidConfig(str(exc)) from exc


# --- artifact paths --------------------------------------------------------

def _path(cfg: RunConfig, name: str) -> str:
    return os.path.join(cfg.out, name)


def _require(cfg: RunConfig, name: str, producer: str) -> str:
    path = _path(cfg, name)
    if not os.path.exists(path):
        raise DataError(f"missing artifact {path}; run the {producer} stage first")
    return path


def _ensure_out(cfg: RunConfig) -> None:
    os.makedirs(cfg.out, exist_ok=True)
    os.makedirs(_path(cfg, "models"), exist_ok=True)
    os.makedirs(_path(cfg, "losses"), exist_ok=True)


# --- stages ----------------------------------------------------------------

def stage_synth(cfg: RunConfig) -> str:
    if cfg.synthetic is None:
        raise InvalidConfig("synth needs --synthetic N")
    _ensure_out(cfg)
    # --synthetic N asks for N model-ready rows, so generate the indicator
    # warm-up on top: featurize discards warmup_rows(windows) leading rows.
    rows = cfg.synthetic + indicators.warmup_rows(cfg.windows)
    raw = ingest.synthesize(rows, cfg.seed, cfg.synth_config())
    path = _path(cfg, "raw.csv")
    ingest.write_csv(raw, path)
    return path


def _load_raw(cfg: RunConfig) -> ingest.RawSeries:
    if cfg.csv is not None:
        return ingest.load_csv(cfg.csv)
    return ingest.load_csv(_require(cfg, "raw.csv", "synth"))


def stage_featurize(cfg: RunConfig) -> str:
    _ensure_out(cfg)
    raw = ingest.clean(_load_raw(cfg), ingest.CleanPolicy(max_consecutive_fill=cfg.fill_cap))
    matrix = indicators.expand_features(raw, cfg.windows)
    path = _path(cfg, "features.wffm")
    indicators.save_cache(matrix, path)
    return path


def stage_select(cfg: RunConfig) -> str:
    _ensure_out(cfg)
    matrix = indicators.load_cache(_require(cfg, "features.wffm", "featurize"))
    usable = matrix.usable()
    params = scaling.fit(usable, slice(None), matrix.names)
    scaled = scaling.transform(usable, params)
    close_idx = matrix.index_of("close")
    x = scaled[:-1]
    y = scaled[1:, close_idx]
    config = forest.ForestConfig(
        seed=cfg.seed, n_trees=cfg.trees, max_depth=cfg.max_depth,
        min_samples_leaf=cfg.min_samples_leaf, mtry=cfg.mtry,
    )
    model = forest.fit_forest(x, y, config)
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


def _load_selection(cfg: RunConfig) -> list[str]:
    with open(_require(cfg, "selection.json", "select")) as f:
        try:
            return list(json.load(f)["features"])
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"bad selection.json: {exc}") from exc


def _load_plan(cfg: RunConfig) -> splitter.WalkForwardPlan:
    with open(_require(cfg, "plan.json", "plan")) as f:
        return splitter.plan_from_json(f.read())


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

    feat_params = scaling.fit(usable[:, sel_idx], rows, tuple(selected))
    close_params = scaling.fit(close_col, rows, ("close",))
    features = scaling.transform(usable[:, sel_idx], feat_params)
    close_scaled = scaling.transform(close_col, close_params)[:, 0]

    train_set = splitter.make_windows(features, close_scaled,
                                      batch.train_start, batch.train_end, lookback)
    # test windows may reach back into the train tail: inputs are observed
    # history, so each test row gets a prediction without leakage
    test_set = splitter.make_windows(features, close_scaled,
                                     batch.test_start - lookback, batch.test_end, lookback)
    return _BatchData(train_set=train_set, test_set=test_set,
                      close_params=close_params, close_usd=close_col[:, 0])


def _model_seed(cfg: RunConfig, model: str, batch: int) -> int:
    return cfg.seed + _SEED_STRIDE * batch + _MODEL_OFFSET[model]


def _checkpoint(cfg: RunConfig, model: str, batch: int) -> str:
    return _path(cfg, os.path.join("models", f"{model}_b{batch}.bin"))


def stage_train(cfg: RunConfig) -> list[str]:
    _ensure_out(cfg)
    matrix = indicators.load_cache(_require(cfg, "features.wffm", "featurize"))
    selected = _load_selection(cfg)
    plan = _load_plan(cfg)
    paths = []
    for batch in plan.batches:
        data = _batch_data(matrix, selected, batch, cfg.lookback)
        train_set = data.train_set
        for model_name in cfg.models:
            seed = _model_seed(cfg, model_name, batch.index)
            path = _checkpoint(cfg, model_name, batch.index)
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
                net = nets.build_network(
                    train_set.inputs.shape[2], cfg.h1, cfg.h2, cfg.dropout,
                    bidirectional=(model_name == "proposed"), seed=seed,
                )
                net, losses = nets.train(net, train_set.inputs, train_set.targets,
                                         cfg.train_config(seed))
                nets.save_network(net, path)
                nets.save_losses(losses, _path(cfg, os.path.join(
                    "losses", f"{model_name}_b{batch.index}.csv")))
            paths.append(path)
    return paths


def _load_model(model_name: str, path: str):
    if model_name == "lr":
        return baselines.load_linear(path)
    if model_name == "svr":
        return baselines.load_svr(path)
    return nets.load_network(path)


def _predict(model, sample_set: splitter.SampleSet) -> np.ndarray:
    if isinstance(model, nets.BiLstmNetwork):
        preds, _ = nets.network_forward(model, sample_set.inputs, mode="eval")
        return np.asarray(preds)
    if isinstance(model, baselines.LinearModel):
        return np.asarray(baselines.predict_linear(model, sample_set.flat_inputs()))
    return np.asarray(baselines.predict_svr(model, sample_set.flat_inputs()))


def _to_usd(preds_scaled: np.ndarray, close_params: scaling.ScalerParams) -> np.ndarray:
    usd = scaling.inverse_transform(preds_scaled[:, None], close_params)[:, 0]
    return np.maximum(usd, 0.0)  # prices cannot go negative


def stage_evaluate(cfg: RunConfig) -> str:
    _ensure_out(cfg)
    matrix = indicators.load_cache(_require(cfg, "features.wffm", "featurize"))
    selected = _load_selection(cfg)
    plan = _load_plan(cfg)

    runs: list[evalreport.BatchMetrics] = []
    test_rows: dict[int, dict] = {}
    for batch in plan.batches:
        data = _batch_data(matrix, selected, batch, cfg.lookback)
        usd = data.close_usd
        test_actual = usd[data.test_set.anchors + 1]
        row_block = {
            "rows": data.test_set.anchors + 1,
            "dates": matrix.dates[matrix.usable_from:][data.test_set.anchors + 1],
            "actual": test_actual,
            "preds": {},
        }
        for model_name in cfg.models:
            model = _load_model(model_name, _require(
                cfg, os.path.join("models", f"{model_name}_b{batch.index}.bin"), "train"))
            for split, sample_set in (("train", data.train_set), ("test", data.test_set)):
                preds = _to_usd(_predict(model, sample_set), data.close_params)
                actual = usd[sample_set.anchors + 1]
                runs.append(evalreport.batch_metrics(
                    model_name, batch.index, split, preds, actual))
                if split == "test":
                    row_block["preds"][model_name] = preds
        for split, sample_set in (("train", data.train_set), ("test", data.test_set)):
            runs.append(evalreport.persistence_baseline(
                usd, sample_set.anchors, batch.index, split))
        test_rows[batch.index] = row_block

    path = _path(cfg, "metrics.json")
    evalreport.save_runs(runs, path)
    _write_predictions(cfg, test_rows)
    return path


def _write_predictions(cfg: RunConfig, test_rows: dict[int, dict]) -> None:
    with open(_path(cfg, "predictions.csv"), "w") as f:
        models = list(cfg.models)
        f.write("batch,row,date,actual," + ",".join(models) + "\n")
        for index in sorted(test_rows):
            block = test_rows[index]
            for pos, row in enumerate(block["rows"]):
                cells = [str(index), str(int(row)),
                         ingest.format_date(int(block["dates"][pos])),
                         repr(float(block["actual"][pos]))]
                cells += [repr(float(block["preds"][m][pos])) for m in models]
                f.write(",".join(cells) + "\n")


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
    """One line per evaluated SVR checkpoint that stopped unconverged."""
    lines = []
    for batch in sorted({r.batch for r in runs if r.model == "svr"}):
        path = _require(cfg, os.path.join("models", f"svr_b{batch}.bin"), "train")
        converged, iterations = baselines.load_svr_status(path)
        if not converged:
            lines.append(f"svr batch {batch}: not converged after {iterations} "
                         f"iterations (max_iter {cfg.svr_max_iter}, tol {cfg.svr_tol})")
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
        raise InvalidConfig("pipeline needs --synthetic N or --csv PATH")
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
