"""Per-layer tracing from outside the program.

A traced run wraps each layer's public functions with a timing shim that
records one span per outermost call: layer name, start, end, the time its
direct child spans covered, and the phase (``setup`` or ``work``) it ran
in. Nothing under ``src/`` changes; the shims are installed on the
classes and modules for one repetition and removed afterwards.

A layer's *busy* time is the sum of its spans; its *self* time is each
span minus the part its child spans (same thread) covered. Spans opened
on pool threads have no parent, so ``pool.map``'s self time includes the
time it waited for its workers.

Which end-to-end metric each layer metric should move, and on which
workload:

- train (``train.*``, ``fit.*``): executions_per_s and setup_s on
  campaign; setup_s on serve_loop
- publish (``publish.*``): setup_s on every workload
- compile (``compile.*``): setup_s on serve_loop
- predict (``predict.*``): executions_per_s on campaign and serve_loop
- detect (``detect.*``, ``calibrate.*``): executions_per_s on campaign
- collect (``collect.*``, ``read_back.*``), tsdb (``tsdb.*``) and
  parallel (``score.*``, ``shards.*``, ``pool.map.*``): executions_per_s
  on campaign
- alarms (``alarm_push.*``) and obs (``export.*``): executions_per_s on
  campaign
- pipeline (``execute.*``, ``fan_in.*``, ``loop.*``): executions_per_s and
  latency_p50_ms on serve_loop
- serve registry (``batch.*``, ``queue.*``, ``serve.*``): latency_p50_ms
  and executions_per_s on serve_loop, both up as batches grow
- this process (``parent.cpu_share``): executions_per_s on every workload
- load generator (``gen.*``): the validity of every latency number
"""

from __future__ import annotations

import functools
import statistics
import threading
import time
from dataclasses import dataclass

from repro.core.anomaly import ContextualAnomalyDetector, GaussianErrorModel
from repro.core.calibration import QuantileErrorModel
from repro.core.model import Env2VecRegressor
from repro.nn.training import Trainer
from repro.obs import TSDBExporter, get_observability
import repro.parallel
from repro.parallel import CampaignScorer, TSDBSnapshot, WorkerPool
from repro.workflow import (
    AlarmStore,
    MetricCollector,
    ModelStore,
    PredictionPipeline,
    TimeSeriesDB,
    TrainingPipeline,
)

@dataclass
class Span:
    layer: str
    phase: str
    start: float
    end: float = 0.0
    child_s: float = 0.0


def _rows(position: int):
    """Measure callback: the length of positional argument ``position``."""
    return lambda layer, args, result: {f"{layer}.rows": len(args[position])}


def _train_windows(layer, args, result):
    return {"train.window_epochs": result.n_examples * result.epochs_run}


def _publish_bytes(layer, args, result):
    return {"publish.bytes": len(args[1])}


def _live_scanned(layer, args, result):
    # The live store walks every series it holds on each query.
    return {"tsdb.series_scanned": args[0].n_series()}


def _shard_scanned(layer, args, result):
    # A snapshot shard walks only the queried metric's series; every
    # collected execution writes every metric, so that is the shard's
    # series count over its metric count.
    shard = args[0]
    return {"tsdb.series_scanned": shard.n_series() / max(1, len(shard.metrics()))}


#: (owner, attribute, layer, measure) for every class- or module-level shim.
_TARGETS = (
    (TrainingPipeline, "train", "train", _train_windows),
    (Trainer, "fit", "fit", None),
    (ModelStore, "publish", "publish", _publish_bytes),
    (Env2VecRegressor, "compile", "compile", None),
    (Env2VecRegressor, "predict", "predict", _rows(1)),
    (ContextualAnomalyDetector, "detect", "detect", None),
    (ContextualAnomalyDetector, "detect_many", "detect", None),
    (ContextualAnomalyDetector, "detect_self_calibrated", "detect", None),
    (GaussianErrorModel, "fit", "calibrate", None),
    (QuantileErrorModel, "fit", "calibrate", None),
    (PredictionPipeline, "calibrate", "calibrate", None),
    (MetricCollector, "collect", "collect", None),
    (MetricCollector, "read_back", "read_back", None),
    (TimeSeriesDB, "query", "tsdb.query", _live_scanned),
    (TSDBSnapshot, "query", "tsdb.query", _shard_scanned),
    (CampaignScorer, "score", "score", None),
    (repro.parallel, "snapshot_shards", "shards", None),
    (WorkerPool, "map", "pool.map", None),
    (AlarmStore, "push", "alarm_push", None),
    (TSDBExporter, "tick", "export", None),
    (PredictionPipeline, "execute", "execute", _rows(1)),
    (PredictionPipeline, "score_with_isolation", "execute", _rows(2)),
    (PredictionPipeline, "score_executions", "execute", _rows(2)),
    (PredictionPipeline, "fan_in", "fan_in", None),
)

#: Layers whose busy/self/calls are reported, with the unit-free names.
_SPAN_LAYERS = (
    "train", "fit", "publish", "compile", "predict", "detect", "calibrate",
    "collect", "read_back", "tsdb.query", "score", "shards", "pool.map",
    "alarm_push", "export", "execute", "fan_in",
)

#: Counters summed from the program's own ``repro_*`` registry, by metric.
_REGISTRY = {
    "batch.count": ("repro_serve_batches_total", ""),
    "serve.rejected": ("repro_serve_rejected_total", ""),
    "serve.cold_compiles": ("repro_serve_cold_compiles_total", ""),
    "batch.rows": ("repro_serve_batch_size", "_sum"),
    "collect.quarantined": ("repro_resilience_quarantined_executions_total", ""),
}


def registry_total(name: str, suffix: str = "") -> float:
    """Sum of every sample of ``name`` (all label sets) in the registry.

    A metric whose module was never imported was never incremented.
    """
    try:
        metric = get_observability().registry.get(name)
    except KeyError:
        return 0.0
    return float(sum(s.value for s in metric.samples() if s.name == name + suffix))


def registry_snapshot() -> dict[str, float]:
    return {key: registry_total(*source) for key, source in _REGISTRY.items()}


class Tracer:
    """Installs the timing shims and aggregates what they record."""

    def __init__(self) -> None:
        self.phase = "setup"
        self._local = threading.local()
        self._lock = threading.Lock()
        self._spans: list[Span] = []
        self._counts: dict[tuple[str, str], float] = {}
        self._restore: list = []

    # -- installation ------------------------------------------------------
    def install(self) -> None:
        for owner, attribute, layer, measure in _TARGETS:
            self._patch_static(owner, attribute, layer, measure)

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    def _patch_static(self, owner, attribute: str, layer: str, measure) -> None:
        raw = owner.__dict__[attribute]
        is_classmethod = isinstance(raw, classmethod)
        shim = self._sync_shim(raw.__func__ if is_classmethod else raw, layer, measure)
        setattr(owner, attribute, classmethod(shim) if is_classmethod else shim)
        self._restore.append(lambda: setattr(owner, attribute, raw))

    def _sync_shim(self, function, layer: str, measure):
        tracer = self

        @functools.wraps(function)
        def shim(*args, **kwargs):
            stack = tracer._stack()
            if any(open_span.layer == layer for open_span in stack):
                # A layer calling itself is one call of that layer.
                return function(*args, **kwargs)
            span = Span(layer, tracer.phase, time.perf_counter())
            stack.append(span)
            try:
                result = function(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1].child_s += span.end - span.start
                tracer._close(span)
            tracer._count(layer, measure, args, result)
            return result

        return shim

    # -- recording ---------------------------------------------------------
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _close(self, span: Span) -> None:
        with self._lock:
            self._spans.append(span)

    def _count(self, layer: str, measure, args, result) -> None:
        if measure is None:
            return
        amounts = measure(layer, args, result)
        with self._lock:
            for key, amount in amounts.items():
                slot = (self.phase, key)
                self._counts[slot] = self._counts.get(slot, 0.0) + amount

    # -- aggregation -------------------------------------------------------
    def layer_totals(self, phase: str) -> dict[str, float]:
        """``<layer>.calls``, ``.busy_s`` and ``.self_s`` for one phase."""
        totals: dict[str, float] = {}
        for layer in _SPAN_LAYERS:
            totals[f"{layer}.calls"] = 0.0
            totals[f"{layer}.busy_s"] = 0.0
            totals[f"{layer}.self_s"] = 0.0
        with self._lock:
            spans = [span for span in self._spans if span.phase == phase]
        for span in spans:
            duration = span.end - span.start
            totals[f"{span.layer}.calls"] += 1
            totals[f"{span.layer}.busy_s"] += duration
            totals[f"{span.layer}.self_s"] += duration - span.child_s
        return totals

    def counts(self, phase: str) -> dict[str, float]:
        with self._lock:
            return {key: value for (p, key), value in self._counts.items() if p == phase}


def layer_metrics(
    tracer: Tracer,
    *,
    setup_wall: float,
    work_wall: float,
    cpu_share: float,
    overhead_pairs: list[tuple[float, float]],
    registry_delta: dict[str, float],
    event_loop: bool = False,
    load: dict[str, float] | None = None,
) -> dict[str, float]:
    """Every per-layer metric of one traced repetition, by name.

    ``overhead_pairs`` holds ``(untraced, traced)`` walls of the same fixed
    work (campaign days 1..N, or the serving drains), run in the same
    process; ``cpu_share`` is this process's CPU time over wall time while
    it worked; ``load`` is the load generator's own record (serving only).
    """
    load = load or {}
    work = tracer.layer_totals("work")
    counts = tracer.counts("work")
    setup = tracer.layer_totals("setup")
    metrics = dict(work)
    for key in ("predict.rows", "execute.rows",
                "train.window_epochs", "publish.bytes", "tsdb.series_scanned"):
        metrics[key] = counts.get(key, 0.0)
    metrics["train.overhead_s"] = work["train.busy_s"] - work["fit.busy_s"]
    metrics["train.window_epochs_per_s"] = (
        metrics["train.window_epochs"] / work["fit.busy_s"] if work["fit.busy_s"] else 0.0
    )
    # On the event loop, scoring (single loop) and fan-in run inline.
    metrics["loop.busy_share"] = (
        (work["execute.busy_s"] + work["fan_in.busy_s"]) / work_wall if event_loop else 0.0
    )
    metrics["parent.cpu_share"] = cpu_share
    batches = registry_delta["batch.count"]
    metrics["batch.count"] = batches
    metrics["batch.size_mean"] = registry_delta["batch.rows"] / batches if batches else 0.0
    metrics["serve.rejected"] = registry_delta["serve.rejected"]
    metrics["serve.cold_compiles"] = registry_delta["serve.cold_compiles"]
    metrics["collect.quarantined"] = registry_delta["collect.quarantined"]
    for key in ("queue.depth_max", "gen.sent", "gen.late_p99_ms"):
        metrics[key] = load.get(key, 0.0)
    for layer in ("train", "fit", "publish", "compile"):
        metrics[f"setup.{layer}.busy_s"] = setup[f"{layer}.busy_s"]
    metrics["setup.wall_s"] = setup_wall
    # The median over pairs, so one pair landing on a slow minute of the
    # host does not become the overhead.
    untraced = statistics.median(pair[0] for pair in overhead_pairs)
    overhead = statistics.median(traced - plain for plain, traced in overhead_pairs)
    metrics["trace.work_wall_s"] = work_wall
    metrics["trace.fixed_work_wall_s"] = statistics.median(pair[1] for pair in overhead_pairs)
    metrics["trace.untraced_fixed_work_wall_s"] = untraced
    metrics["trace.overhead_s"] = overhead
    metrics["trace.overhead_share"] = overhead / untraced
    return metrics
