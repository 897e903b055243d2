"""Serving workloads: Env2VecService under a paced open loop, then a drain.

Each repetition trains and publishes a model, starts the service, sends
one warm-up batch (all of that is set-up), then runs rounds of two
phases:

- a fixed-rate window: ``WINDOW_REQUESTS`` requests are released on a fixed
  schedule by one scheduler coroutine that waits for each due time,
  whatever the service does (an open loop). It waits by yielding to the
  event loop rather than sleeping, so the loop never idles and a
  process wake-up is never charged to a request. Latency is timed from a
  request's *due* time to its response, so a stall also charges every
  request queued behind it; how late the scheduler itself ran is
  reported as ``gen.late_p99_ms``.
- drains: a backlog is submitted at once; completions per second over
  it are the service's capacity.

p50, p90 and set-up are medians over windows and set-ups spread across
the run: the p90 is the median of the per-window p90s (each over
``WINDOW_REQUESTS`` requests), so a tail that shows in most windows shows
in it, while one window disturbed by the host does not. The tail is the
p90, not the p99: the p99 of a window is its ten slowest requests, and
those follow the shared host's stalls more than the program. Every drain
submits the same requests, so its wall differs from another's mostly by
host interference: throughput is taken from the fastest drain
(``fast_quantile``).

Requests are the last ``TAIL`` steps of each chain's current build, each
with an error model calibrated on the chain's earlier builds. Ground
truth for alarm quality is the source execution's fault mask over the
scored tail steps.
"""

from __future__ import annotations

import asyncio
import functools
import gc
import statistics
import time
from dataclasses import dataclass

from repro.data import TelecomConfig, generate_telecom
from repro.data.chains import TestExecution
from repro.serve import Env2VecService, PredictRequest, ServeConfig, ServiceOverloaded
from repro.workflow import (
    AlarmStore,
    ModelStore,
    PredictBatch,
    PredictionPipeline,
    TrainingPipeline,
)

from layers import Tracer, layer_metrics, registry_snapshot
from measure import alarm_f1, fast_quantile, peak_rss_mb, percentile


# serve_loop: the request path alone (admission, batcher, scoring,
# detection, fan-in) on the event loop, with no training and no TSDB: a
# training change predicts no change here. The service runs without
# worker processes.
#: Offered rate of the fixed-rate phase, about a tenth of capacity: at a
#: quarter, queueing behind every stall of the host multiplied the latency.
RATE = 1000.0
#: Requests submitted at once per drain (about a tenth of a second's
#: work): short enough that many drains fall between the host's slow
#: phases.
DRAIN = 1000

N_CHAINS = 1000
N_TRAIN_CHAINS = 100
TAIL = 8
N_LAGS = 3
WARMUP = 64
REPS = 4
#: Requests per paced window: its p90 has a hundred latencies beyond it.
WINDOW_REQUESTS = 1000
#: A drain takes about this many seconds.
DRAIN_S = 0.1
#: Drains after each paced window.
DRAINS_PER_ROUND = 8
#: Set-up is short next to a run, so it is repeated and its median kept.
MIN_SETUPS = 5
#: Untraced/traced repetition pairs in a traced run, and rounds in each.
TRACE_PAIRS = 3
TRACE_ROUNDS = 2
MODEL_PARAMS = {"max_epochs": 4, "batch_size": 512, "dropout": 0.0}
SERVE = {"max_batch": 64, "max_wait": 0.001, "max_queue_depth": 16384}


@dataclass
class Inputs:
    corpus: list
    requests: list[PredictRequest]
    #: one batch ``PredictionPipeline.execute`` over every request.
    reference: list
    truth: tuple[bool, ...]


def prepare(seed: int) -> Inputs:
    """The seeded inputs: training corpus, requests, reference and truth.

    Calibrating the requests' error models and the batch reference run are
    input preparation, not the service's set-up.
    """
    dataset = generate_telecom(
        TelecomConfig(
            n_chains=N_CHAINS,
            n_testbeds=30,
            builds_per_chain=(2, 3),
            timesteps_per_build=(40, 50),
            n_focus=N_CHAINS // 2,
            include_rare_testbed=False,
            seed=seed,
        )
    )
    corpus = [
        (e.environment, e.features, e.cpu)
        for chain in dataset.chains[:N_TRAIN_CHAINS]
        for e in chain.history
    ]
    sources = [chain.current for chain in dataset.chains]
    tails = [
        TestExecution(environment=e.environment, features=e.features[-TAIL:], cpu=e.cpu[-TAIL:])
        for e in sources
    ]
    # Only windows past the first n_lags steps of a tail are scored.
    truth = tuple(bool(e.anomaly_mask()[-TAIL:][N_LAGS:].any()) for e in sources)
    # A tail scores TAIL - N_LAGS = 5 windows. Calibrated on those alone,
    # no error can pass gamma = 2 (the largest z of 5 samples is 1.79), so
    # each request carries its chain's error model, fitted on earlier builds.
    store = train(corpus)
    error_models = [PredictionPipeline(store, AlarmStore()).calibrate(c) for c in dataset.chains]
    requests = [
        PredictRequest(execution=tail, error_model=model, request_id=str(i))
        for i, (tail, model) in enumerate(zip(tails, error_models))
    ]
    reference = PredictionPipeline(store, AlarmStore()).execute(
        PredictBatch(tuple(tails), tuple(error_models))
    )
    return Inputs(corpus=corpus, requests=requests, reference=reference, truth=truth)


def train(corpus) -> ModelStore:
    store = ModelStore()
    TrainingPipeline(store, n_lags=N_LAGS, model_params=MODEL_PARAMS, seed=0).train(corpus)
    return store


async def _paced(service, requests, rate: float, stats: dict):
    """Release requests on schedule; returns responses and latencies."""
    loop = asyncio.get_running_loop()
    n = WINDOW_REQUESTS
    period = 1.0 / rate
    done = [0.0] * n
    pending: list = []

    def stamp(index, _future):
        done[index] = loop.time()

    start = loop.time()
    index = 0
    while index < n:
        now = loop.time()
        due = start + index * period
        if due > now:
            # Yield to the service without letting the loop sleep: waking
            # an idle process on a shared VM adds a host-dependent delay
            # (the timer's millisecond rounding plus the vCPU's wake-up)
            # that is not the service's latency.
            await asyncio.sleep(0)
            continue
        while index < n and start + index * period <= now:
            stats["late"].append(now - (start + index * period))
            try:
                future = service.submit_predict(requests[index % len(requests)])
            except ServiceOverloaded:
                stats["rejected"] += 1
            else:
                future.add_done_callback(functools.partial(stamp, index))
                pending.append((index, future))
            index += 1
        stats["depth_max"] = max(stats["depth_max"], service.admission.depth)
    stats["sent"] += n
    # A failed request raises on its future; it is counted, not fatal.
    results = await asyncio.gather(*(future for _, future in pending), return_exceptions=True)
    latencies = [done[i] - (start + i * period) for i, _ in pending]
    return [(i % len(requests), r) for (i, _), r in zip(pending, results)], latencies


async def _drain(service, requests, count: int, stats: dict):
    """Submit ``count`` requests at once; returns responses and the wall."""
    loop = asyncio.get_running_loop()
    last = [0.0]

    def stamp(_future):
        last[0] = max(last[0], loop.time())

    start = loop.time()
    pending = []
    for index in range(count):
        try:
            future = service.submit_predict(requests[index % len(requests)])
        except ServiceOverloaded:
            stats["rejected"] += 1
            continue
        future.add_done_callback(stamp)
        pending.append((index, future))
    results = await asyncio.gather(*(future for _, future in pending), return_exceptions=True)
    return [(i % len(requests), r) for (i, _), r in zip(pending, results)], last[0] - start


@dataclass
class ServeRep:
    setup_s: float
    window_p50: list[float]
    window_p90: list[float]
    #: seconds per request of each drain.
    drain_times: list[float]
    drain_wall: float
    drain_cpu: float
    work_wall: float
    checks: dict[str, bool]
    f1: float
    failed: int
    attempted: int
    record: dict
    registry_delta: dict


async def _rep(inputs, rounds, tracer, setup_only=False):
    """One repetition; ``setup_only`` stops after the warm-up batch.

    Each set-up and each work phase starts from a collected heap, so an
    earlier repetition's garbage does not land a full collection in a
    later one's measurement.
    """
    gc.collect()
    started = time.perf_counter()
    store = train(inputs.corpus)
    requests = inputs.requests
    service = Env2VecService(
        store, alarm_store=AlarmStore(), config=ServeConfig(**SERVE)
    )
    stats = {"late": [], "rejected": 0, "depth_max": 0, "sent": 0}
    windows, drains = [], []
    # Responses are checked as each phase ends and then dropped, so the
    # heap does not grow from one round to the next.
    checker = Checker(inputs.reference, inputs.truth)
    async with service:
        checker.add(enumerate(await service.client().predict_many(requests[:WARMUP])))
        setup_s = time.perf_counter() - started
        if setup_only:
            return setup_s
        gc.collect()
        if tracer is not None:
            tracer.phase = "work"
        registry_before = registry_snapshot()
        work_started = time.perf_counter()
        drain_cpu = 0.0
        for _ in range(rounds):
            served, latencies = await _paced(service, requests, RATE, stats)
            checker.add(served)
            windows.append(latencies)
            for _ in range(DRAINS_PER_ROUND):
                # The paced windows keep this process busy on purpose, so
                # its own CPU share is taken over the drains alone.
                cpu_before = time.process_time()
                served, wall = await _drain(service, requests, DRAIN, stats)
                drain_cpu += time.process_time() - cpu_before
                checker.add(served)
                drains.append((len(served), wall))
                del served
        work_wall = time.perf_counter() - work_started
        registry_after = registry_snapshot()
    service.alarm_store.close()
    return ServeRep(
        setup_s=setup_s,
        window_p50=[percentile(window, 50) for window in windows],
        window_p90=[percentile(window, 90) for window in windows],
        drain_times=[wall / count for count, wall in drains],
        drain_wall=sum(wall for _, wall in drains),
        drain_cpu=drain_cpu,
        work_wall=work_wall,
        checks={**checker.checks(), "none_rejected": stats["rejected"] == 0},
        f1=checker.f1(),
        failed=checker.failed + stats["rejected"],
        attempted=WARMUP + stats["sent"] + rounds * DRAINS_PER_ROUND * DRAIN,
        record={
            "gen.sent": stats["sent"],
            "gen.late_p99_ms": 1e3 * percentile(stats["late"], 99),
            "queue.depth_max": stats["depth_max"],
        },
        registry_delta={k: registry_after[k] - registry_before[k] for k in registry_after},
    )


def _same_run(run, reference) -> bool:
    return (
        run.predictions.tobytes() == reference.predictions.tobytes()
        and run.observations.tobytes() == reference.observations.tobytes()
        and run.report.flags.tobytes() == reference.report.flags.tobytes()
        and len(run.alarm_ids) == len(reference.alarm_ids)
    )


class Checker:
    """Checks every ``(source, response)`` against the batch reference.

    Every response must be ``ok`` and byte-identical to one batch
    ``PredictionPipeline.execute`` over the same executions; a request
    whose future raised (dead-lettered, rejected late) or whose status is
    not ``ok`` counts as failed. A chain's verdict ("raised at least one
    alarm") feeds the alarm F1.
    """

    def __init__(self, reference, truth):
        self.reference = reference
        self.truth = truth
        self.failed = 0
        self.identical = True
        self.verdicts: dict[int, bool] = {}

    def add(self, responses) -> None:
        for source, response in responses:
            if isinstance(response, BaseException) or response.status != "ok" or response.run is None:
                self.failed += 1
                continue
            run = response.run
            self.identical = self.identical and _same_run(run, self.reference[source])
            self.verdicts[source] = len(run.alarm_ids) > 0

    def checks(self) -> dict[str, bool]:
        return {
            "all_ok": self.failed == 0,
            "identical_to_batch": self.identical,
            "every_chain_served": len(self.verdicts) == len(self.truth),
        }

    def f1(self) -> float:
        covered = sorted(self.verdicts)
        return alarm_f1([self.verdicts[i] for i in covered], [self.truth[i] for i in covered])


def _untraced_rep(inputs, rounds: int) -> ServeRep:
    return asyncio.run(_rep(inputs, rounds, None))


def _traced_rep(inputs) -> tuple[ServeRep, Tracer]:
    tracer = Tracer()
    tracer.install()
    try:
        rep = asyncio.run(_rep(inputs, TRACE_ROUNDS, tracer))
    finally:
        tracer.uninstall()
    return rep, tracer


def run(seed: int, seconds: float, trace: bool, log) -> dict:
    inputs = prepare(seed)
    # The inputs live for the whole run; frozen, they are never scanned by
    # a collection the service's own garbage triggers.
    gc.collect()
    gc.freeze()
    reps: list[ServeRep] = []
    round_s = WINDOW_REQUESTS / RATE + DRAINS_PER_ROUND * DRAIN_S
    rounds = max(1, round(seconds / (REPS * round_s)))
    layers = None
    if trace:
        # Untraced and traced repetitions, alternating which goes first:
        # their drains do the same work, so the median difference of the
        # two is the tracing overhead.
        pairs = []
        for index in range(TRACE_PAIRS):
            if index % 2:
                traced, tracer = _traced_rep(inputs)
                untraced = _untraced_rep(inputs, TRACE_ROUNDS)
            else:
                untraced = _untraced_rep(inputs, TRACE_ROUNDS)
                traced, tracer = _traced_rep(inputs)
            reps += [untraced, traced]
            pairs.append((untraced.drain_wall, traced.drain_wall))
            log(f"pair {index + 1}: drains untraced {untraced.drain_wall:.3f} s, "
                f"traced {traced.drain_wall:.3f} s")
        # The per-layer numbers are those of the last traced repetition.
        layers = layer_metrics(
            tracer,
            setup_wall=traced.setup_s,
            work_wall=traced.work_wall,
            cpu_share=traced.drain_cpu / traced.drain_wall,
            overhead_pairs=pairs,
            registry_delta=traced.registry_delta,
            event_loop=True,
            load=traced.record,
        )
    else:
        for _ in range(REPS):
            rep = _untraced_rep(inputs, rounds)
            reps.append(rep)
            log(f"rep {len(reps)}: setup {rep.setup_s:.3f} s, "
                f"p50 {[round(1e3 * v, 2) for v in rep.window_p50]} ms, "
                f"p90 {[round(1e3 * v, 2) for v in rep.window_p90]} ms, "
                f"drains {[round(1 / v) for v in rep.drain_times]}/s, "
                f"late p99 {rep.record['gen.late_p99_ms']:.2f} ms")
    setups = [rep.setup_s for rep in reps]
    while not trace and len(setups) < MIN_SETUPS:
        setups.append(asyncio.run(_rep(inputs, 0, None, setup_only=True)))

    checks = {}
    for rep in reps:
        for key, passed in rep.checks.items():
            checks[key] = checks.get(key, True) and passed
    # Same seed, same answers: every repetition scores alarms identically.
    checks["f1_repeats"] = len({rep.f1 for rep in reps}) == 1
    attempted = sum(rep.attempted for rep in reps)
    failed = sum(rep.failed for rep in reps)
    metrics = {
        "setup_s": statistics.median(setups),
        "executions_per_s": 1 / fast_quantile(v for rep in reps for v in rep.drain_times),
        "latency_p50_ms": 1e3 * statistics.median(v for rep in reps for v in rep.window_p50),
        "latency_p90_ms": 1e3 * statistics.median(v for rep in reps for v in rep.window_p90),
        "alarm_f1": reps[0].f1,
        "ok_ratio": (attempted - failed) / attempted,
        "peak_rss_mb": peak_rss_mb(),
    }
    return {
        "checks": checks,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "layers": layers,
        "detail": {
            "reps": len(reps),
            "setups": setups,
            "rounds_per_rep": rounds,
            "latency_windows": sum(len(rep.window_p90) for rep in reps),
            "requests_per_window": WINDOW_REQUESTS,
            "gen_late_p99_ms": [rep.record["gen.late_p99_ms"] for rep in reps],
        },
    }
