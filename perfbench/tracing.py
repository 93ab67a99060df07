"""Span tracing of walkforge from outside the program.

`Tracer.install` replaces public functions of walkforge modules with
wrappers that record one span per call: name, start, end, parent span and
run id. `pipeline` and `nets` look their callees up as module attributes
at call time, so their internal calls pass through the wrappers too.
Spans stay in memory until `write_spans`.

A public name that no longer exists is skipped, and every metric that
depends on it is reported as absent instead of failing the run. The
untraced run never imports this module.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

EMA_CHAIN_KINDS = ("ema", "dema", "tema", "macd")

STAGES = ("featurize", "select", "plan", "train", "evaluate", "report")
FIT_SPANS = ("baselines.fit_linear", "baselines.fit_svr", "nets.train")
SAVE_SPANS = ("nets.save_network", "baselines.save_linear", "baselines.save_svr")
LOAD_SPANS = ("nets.load_network", "baselines.load_linear", "baselines.load_svr")
SCALING_SPANS = ("scaling.fit", "scaling.transform", "scaling.inverse_transform")
EVALREPORT_SPANS = ("evalreport.batch_metrics", "evalreport.persistence_baseline",
                    "evalreport.aggregate", "evalreport.report_to_json",
                    "evalreport.save_runs", "evalreport.load_runs",
                    "evalreport.render_table")


def _arg(args: tuple, kwargs: dict, pos: int, name: str, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _indicator_name(args: tuple, kwargs: dict) -> str:
    spec = _arg(args, kwargs, 1, "spec")
    kind = getattr(spec, "kind", None)
    return "indicators.compute_indicator" + (".ema_chain" if kind in EMA_CHAIN_KINDS else "")


def _forward_name(args: tuple, kwargs: dict) -> str:
    return "nets.network_forward." + str(_arg(args, kwargs, 2, "mode", "eval"))


# --- counters recorded at the same boundaries as the spans -----------------

def _count_filled(tracer: Tracer, args: tuple, kwargs: dict, result) -> None:
    before = _arg(args, kwargs, 0, "series")
    tracer.add("ingest.filled_cells",
               int(result.values.size) - int(np.isfinite(before.values).sum()))


def _file_mb(key: str) -> Callable:
    def hook(tracer: Tracer, args: tuple, kwargs: dict, result) -> None:
        tracer.add(key, os.path.getsize(_arg(args, kwargs, 1, "path")) / 1e6)
    return hook


def _tree_depth(left: np.ndarray, right: np.ndarray) -> int:
    deepest, stack = 0, [(0, 0)]
    while stack:
        node, depth = stack.pop()
        deepest = max(deepest, depth)
        for child in (left[node], right[node]):
            if child >= 0:
                stack.append((int(child), depth + 1))
    return deepest


def _count_forest(tracer: Tracer, args: tuple, kwargs: dict, result) -> None:
    for tree in result.trees:
        tracer.add("forest.nodes", len(tree.feature))
        tracer.peak("forest.max_depth", _tree_depth(tree.left, tree.right))


def _count_svr(tracer: Tracer, args: tuple, kwargs: dict, result) -> None:
    tracer.add("baselines.svr_fits", 1)
    tracer.add("baselines.svr_iterations", int(result.iterations))
    tracer.add("baselines.svr_converged", int(bool(result.converged)))
    tracer.add("baselines.svr_support_vectors", len(result.dual_coef))


def _count_train(tracer: Tracer, args: tuple, kwargs: dict, result) -> None:
    targets = _arg(args, kwargs, 2, "targets")
    config = _arg(args, kwargs, 3, "config")
    losses = result[1]
    tracer.add("nets.samples", len(targets) * int(config.epochs))
    tracer.add("nets.fits", 1)
    tracer.add("nets.final_loss_sum", float(losses[-1]))


@dataclass(frozen=True)
class Wrap:
    module: str
    attr: str
    name: Callable | None = None  # span name from the call's args; default module.attr
    hook: Callable | None = None  # (tracer, args, kwargs, result) -> None


WRAPS = (
    Wrap("pipeline", "stage_featurize"),
    Wrap("pipeline", "stage_select"),
    Wrap("pipeline", "stage_plan"),
    Wrap("pipeline", "stage_train"),
    Wrap("pipeline", "stage_evaluate"),
    Wrap("pipeline", "stage_report"),
    Wrap("ingest", "load_csv"),
    Wrap("ingest", "clean", hook=_count_filled),
    Wrap("indicators", "expand_features"),
    Wrap("indicators", "compute_indicator", name=_indicator_name),
    Wrap("indicators", "save_cache", hook=_file_mb("indicators.cache_mb")),
    Wrap("indicators", "load_cache"),
    Wrap("forest", "fit_forest", hook=_count_forest),
    Wrap("scaling", "fit"),
    Wrap("scaling", "transform"),
    Wrap("scaling", "inverse_transform"),
    Wrap("splitter", "make_windows"),
    Wrap("baselines", "fit_linear"),
    Wrap("baselines", "fit_svr", hook=_count_svr),
    Wrap("baselines", "predict_svr"),
    Wrap("baselines", "save_linear", hook=_file_mb("ckpt.mb")),
    Wrap("baselines", "load_linear"),
    Wrap("baselines", "save_svr", hook=_file_mb("ckpt.mb")),
    Wrap("baselines", "load_svr"),
    Wrap("nets", "train", hook=_count_train),
    Wrap("nets", "network_forward", name=_forward_name),
    Wrap("nets", "lstm_layer_forward"),
    Wrap("nets", "lstm_layer_backward"),
    Wrap("nets", "adam_step"),
    Wrap("nets", "save_network", hook=_file_mb("ckpt.mb")),
    Wrap("nets", "load_network"),
) + tuple(Wrap("evalreport", span.split(".", 1)[1]) for span in EVALREPORT_SPANS)


class Tracer:
    """Records spans and counters for one traced invocation."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        # one span is [name, start, end, parent index or -1]
        self.spans: list[list] = []
        self.counters: dict[str, float] = {}
        self.missing: set[str] = set()  # "module.attr" not found, or whose hook failed
        self._stack: list[int] = []
        self._installed: list[tuple] = []

    def add(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def peak(self, key: str, value: float) -> None:
        self.counters[key] = max(self.counters.get(key, value), value)

    def install(self) -> None:
        for wrap in WRAPS:
            try:
                module = importlib.import_module(f"walkforge.{wrap.module}")
            except ImportError:
                module = None
            fn = getattr(module, wrap.attr, None)
            if not callable(fn):
                self.missing.add(f"{wrap.module}.{wrap.attr}")
                continue
            setattr(module, wrap.attr, self._wrap(fn, wrap))
            self._installed.append((module, wrap.attr, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._installed):
            setattr(module, attr, fn)
        self._installed.clear()

    def _wrap(self, fn: Callable, wrap: Wrap) -> Callable:
        qualified = f"{wrap.module}.{wrap.attr}"
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = wrap.name(args, kwargs) if wrap.name else qualified
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if wrap.hook is not None:
                try:
                    wrap.hook(self, args, kwargs, result)
                except (AttributeError, TypeError, IndexError, KeyError, ValueError, OSError):
                    self.missing.add(qualified)
            return result

        return traced

    def write_spans(self, path: str) -> None:
        with open(path, "w") as f:
            for index, (name, start, end, parent) in enumerate(self.spans):
                f.write(json.dumps({"id": index, "name": name, "start": start, "end": end,
                                    "parent": parent, "run": self.run_id}) + "\n")


# --- per-layer metrics -----------------------------------------------------

def _total(spans: list[list], names: tuple[str, ...]) -> float:
    """Seconds covered by spans named in `names`, counting only the
    outermost of nested ones so that nothing is counted twice."""
    chosen = set(names)
    total = 0.0
    for name, start, end, parent in spans:
        if name not in chosen:
            continue
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] not in chosen:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            total += end - start
    return total


def _durations(spans: list[list], names: tuple[str, ...]) -> list[float]:
    return [end - start for name, start, end, _ in spans if name in names]


def _mean_ms(spans: list[list], name: str) -> float:
    durations = _durations(spans, (name,))
    return 1e3 * statistics.fmean(durations) if durations else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    needs: tuple[str, ...]  # public "module.attr" names the value is measured through
    better: str = "lower"


def _stage(stage: str) -> LayerMetric:
    return LayerMetric(f"pipeline.{stage}_s", "s", (f"pipeline.stage_{stage}",))


LAYER_METRICS = tuple(_stage(s) for s in STAGES) + (
    LayerMetric("pipeline.fit_s.p50", "s", FIT_SPANS),
    LayerMetric("pipeline.fit_s.max", "s", FIT_SPANS),
    LayerMetric("pipeline.floored_preds", "count", ()),
    LayerMetric("quality.test_mape_ratio", "ratio", ()),
    LayerMetric("ingest.load_csv_s", "s", ("ingest.load_csv",)),
    LayerMetric("ingest.clean_s", "s", ("ingest.clean",)),
    LayerMetric("ingest.filled_cells", "count", ("ingest.clean",)),
    LayerMetric("indicators.expand_s", "s", ("indicators.expand_features",)),
    LayerMetric("indicators.ema_chain_s", "s", ("indicators.compute_indicator",)),
    LayerMetric("indicators.cache_io_s", "s", ("indicators.save_cache", "indicators.load_cache")),
    LayerMetric("indicators.cache_mb", "MB", ("indicators.save_cache",)),
    LayerMetric("forest.fit_s", "s", ("forest.fit_forest",)),
    LayerMetric("forest.nodes", "count", ("forest.fit_forest",)),
    LayerMetric("forest.max_depth", "count", ("forest.fit_forest",)),
    LayerMetric("forest.us_per_node", "us", ("forest.fit_forest",)),
    LayerMetric("scaling.s", "s", SCALING_SPANS),
    LayerMetric("splitter.windows_s", "s", ("splitter.make_windows",)),
    LayerMetric("baselines.svr_fit_s", "s", ("baselines.fit_svr",)),
    LayerMetric("baselines.svr_iterations", "count", ("baselines.fit_svr",)),
    LayerMetric("baselines.svr_us_per_iter", "us", ("baselines.fit_svr",)),
    LayerMetric("baselines.svr_support_vectors", "count", ("baselines.fit_svr",)),
    LayerMetric("baselines.svr_converged_frac", "fraction", ("baselines.fit_svr",), "higher"),
    LayerMetric("baselines.svr_predict_s", "s", ("baselines.predict_svr",)),
    LayerMetric("baselines.lr_fit_s", "s", ("baselines.fit_linear",)),
    LayerMetric("nets.train_s", "s", ("nets.train",)),
    LayerMetric("nets.samples_per_s", "1/s", ("nets.train",), "higher"),
    LayerMetric("nets.layer_forward_ms", "ms", ("nets.lstm_layer_forward",)),
    LayerMetric("nets.layer_backward_ms", "ms", ("nets.lstm_layer_backward",)),
    LayerMetric("nets.adam_step_ms", "ms", ("nets.adam_step",)),
    LayerMetric("nets.eval_forward_s", "s", ("nets.network_forward",)),
    LayerMetric("nets.final_loss", "loss", ("nets.train",)),
    LayerMetric("ckpt.save_s", "s", SAVE_SPANS),
    LayerMetric("ckpt.load_s", "s", LOAD_SPANS),
    LayerMetric("ckpt.mb", "MB", SAVE_SPANS),
    LayerMetric("evalreport.s", "s", EVALREPORT_SPANS),
    LayerMetric("proc.cpu_s", "s", ()),
    LayerMetric("trace.wall_s", "s", ()),
    LayerMetric("trace.overhead_s", "s", ()),
    LayerMetric("trace.remainder_s", "s", tuple(f"pipeline.stage_{s}" for s in STAGES)),
    LayerMetric("trace.dominant_share", "fraction", ()),
)


def layer_values(tracer: Tracer, wall_s: float, dominant: str) -> dict[str, float]:
    """Every per-layer value that the spans and counters of one traced
    invocation determine; process-level values are added by the caller."""
    spans, c = tracer.spans, tracer.counters
    fits = _durations(spans, FIT_SPANS)
    svr_fit_s = _total(spans, ("baselines.fit_svr",))
    forest_s = _total(spans, ("forest.fit_forest",))
    train_s = _total(spans, ("nets.train",))
    stage_s = {s: _total(spans, (f"pipeline.stage_{s}",)) for s in STAGES}
    values = {f"pipeline.{s}_s": stage_s[s] for s in STAGES}
    values.update({
        "pipeline.fit_s.p50": statistics.median(fits) if fits else 0.0,
        "pipeline.fit_s.max": max(fits, default=0.0),
        "ingest.load_csv_s": _total(spans, ("ingest.load_csv",)),
        "ingest.clean_s": _total(spans, ("ingest.clean",)),
        "ingest.filled_cells": c.get("ingest.filled_cells", 0),
        "indicators.expand_s": _total(spans, ("indicators.expand_features",)),
        "indicators.ema_chain_s": _total(spans, ("indicators.compute_indicator.ema_chain",)),
        "indicators.cache_io_s": _total(spans, ("indicators.save_cache",
                                                "indicators.load_cache")),
        "indicators.cache_mb": c.get("indicators.cache_mb", 0.0),
        "forest.fit_s": forest_s,
        "forest.nodes": c.get("forest.nodes", 0),
        "forest.max_depth": c.get("forest.max_depth", 0),
        "forest.us_per_node": 1e6 * _ratio(forest_s, c.get("forest.nodes", 0)),
        "scaling.s": _total(spans, SCALING_SPANS),
        "splitter.windows_s": _total(spans, ("splitter.make_windows",)),
        "baselines.svr_fit_s": svr_fit_s,
        "baselines.svr_iterations": c.get("baselines.svr_iterations", 0),
        "baselines.svr_us_per_iter": 1e6 * _ratio(svr_fit_s,
                                                  c.get("baselines.svr_iterations", 0)),
        "baselines.svr_support_vectors": c.get("baselines.svr_support_vectors", 0),
        "baselines.svr_converged_frac": _ratio(c.get("baselines.svr_converged", 0),
                                               c.get("baselines.svr_fits", 0)),
        "baselines.svr_predict_s": _total(spans, ("baselines.predict_svr",)),
        "baselines.lr_fit_s": _total(spans, ("baselines.fit_linear",)),
        "nets.train_s": train_s,
        "nets.samples_per_s": _ratio(c.get("nets.samples", 0), train_s),
        "nets.layer_forward_ms": _mean_ms(spans, "nets.lstm_layer_forward"),
        "nets.layer_backward_ms": _mean_ms(spans, "nets.lstm_layer_backward"),
        "nets.adam_step_ms": _mean_ms(spans, "nets.adam_step"),
        "nets.eval_forward_s": _total(spans, ("nets.network_forward.eval",)),
        "nets.final_loss": _ratio(c.get("nets.final_loss_sum", 0.0), c.get("nets.fits", 0)),
        "ckpt.save_s": _total(spans, SAVE_SPANS),
        "ckpt.load_s": _total(spans, LOAD_SPANS),
        "ckpt.mb": c.get("ckpt.mb", 0.0),
        "evalreport.s": _total(spans, EVALREPORT_SPANS),
        "trace.wall_s": wall_s,
        "trace.remainder_s": wall_s - sum(stage_s.values()),
        "trace.dominant_share": _ratio(_total(spans, (dominant,)), wall_s),
    })
    return values


def absent_metrics(tracer: Tracer) -> list[str]:
    """Metrics measured through a public name that was missing or whose
    counter hook no longer fits the returned object."""
    return [m.name for m in LAYER_METRICS if any(need in tracer.missing for need in m.needs)]
