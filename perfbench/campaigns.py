"""The campaign workload: a seeded corpus replayed day by day through TestingCampaign.

Day 0 has no model yet, so it is set-up: constructing the campaign plus
its first ingest, fit, compile and publish. Days 1..N are the verdict
phase: every execution is monitored with the latest model, then the
model is retrained and republished.

Every chain has the same number of builds, so every seed gives the same
days with the same number of executions each, and the seed moves only
the data, not the shape of the work. A verdict waits for its whole day,
so a day's wall is the latency of each of its verdicts. Every campaign
of a run does the same work (its verdicts are checked identical), so a
day's walls differ across campaigns only by host interference: each
day's latency is the lower quartile of its walls (``fast_quantile``),
the p50 and p90 are taken over those per-day values, and throughput is
the executions of days 1..N over the sum of them.
"""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import dataclass

from repro.data import TelecomConfig, generate_telecom
from repro.workflow import TestingCampaign

from layers import Tracer, layer_metrics, registry_snapshot
from measure import alarm_f1, fast_quantile, percentile, peak_rss_mb


@dataclass(frozen=True)
class CampaignShape:
    n_chains: int
    #: builds per chain: day 0 is set-up, days 1..builds-1 give verdicts.
    builds: int
    steps: tuple[int, int]
    #: chains whose last build carries injected faults (the positives).
    n_focus: int
    epochs: int
    use_collector: bool
    n_workers: int


# The one campaign workload: the collector path with two scoring threads,
# where daily training (2 epochs), the read-backs (one TSDB query per
# feature per execution) and scoring all run, so training, collect, TSDB
# and scoring changes all show in its throughput. Thirty chains keep a day
# short, so a run holds many of them.
SHAPE = CampaignShape(
    n_chains=30, builds=4, steps=(60, 80), n_focus=15,
    epochs=2, use_collector=True, n_workers=2,
)

#: A campaign's fixed model hyperparameters (the seed is not the workload's).
BATCH_SIZE = 256
MODEL_SEED = 0
#: Quantile of a day's walls taken as its latency: two threads sometimes
#: overlap luckily, so not the fastest (see ``fast_quantile``).
DAY_QUANTILE = 0.25
#: Whole campaigns per run at the least: verdicts must repeat across them,
#: and each day's latency is a quantile over them.
MIN_REPS = 3
#: Set-up is short next to a run, so it is repeated and its median kept.
MIN_SETUPS = 5
#: Untraced/traced campaign pairs in a traced run; the tracing overhead is
#: the median of their differences.
TRACE_PAIRS = 3


@dataclass
class CampaignRep:
    setup_s: float
    work_s: float
    work_cpu_s: float
    scored: int
    day_walls: list[float]  # days 1..N, in order
    verdicts: tuple[bool, ...]
    truth: tuple[bool, ...]
    attempted: int
    failed: int
    accounted: bool
    registry_delta: dict[str, float]


def generate(shape: CampaignShape, seed: int):
    return generate_telecom(
        TelecomConfig(
            n_chains=shape.n_chains,
            builds_per_chain=(shape.builds, shape.builds),
            timesteps_per_build=shape.steps,
            n_focus=shape.n_focus,
            include_rare_testbed=False,
            seed=seed,
        )
    )


def _day(dataset, day: int) -> list:
    return [chain.executions[day] for chain in dataset.chains]


def run_rep(shape: CampaignShape, dataset, tracer: Tracer | None = None,
            setup_only: bool = False) -> CampaignRep | float:
    """One full campaign; ``setup_only`` stops after day 0 and returns its wall.

    Set-up and the verdict phase each start from a collected heap, so an
    earlier campaign's garbage is not collected inside a later one's
    measurement.
    """
    attempted = failed = 0
    accounted = True

    def run_day(campaign, day):
        nonlocal attempted, failed, accounted
        executions = _day(dataset, day)
        report = campaign.run_day(day, executions)
        quarantined = len(report.quarantined_environments)
        attempted += len(executions)
        failed += quarantined
        accounted = accounted and report.executions_run + quarantined == len(executions)
        return report

    gc.collect()
    started = time.perf_counter()
    campaign = TestingCampaign(
        model_params={"max_epochs": shape.epochs, "batch_size": BATCH_SIZE},
        seed=MODEL_SEED,
        use_collector=shape.use_collector,
        n_workers=shape.n_workers,
    )
    run_day(campaign, 0)
    setup_s = time.perf_counter() - started
    if setup_only:
        return setup_s

    gc.collect()
    if tracer is not None:
        tracer.phase = "work"
    registry_before = registry_snapshot()
    cpu_before = time.process_time()
    work_started = time.perf_counter()
    scored: list = []
    day_walls: list[float] = []
    for day in range(1, shape.builds):
        day_started = time.perf_counter()
        run_day(campaign, day)
        day_walls.append(time.perf_counter() - day_started)
        scored.extend(_day(dataset, day))
    work_s = time.perf_counter() - work_started
    work_cpu_s = time.process_time() - cpu_before
    registry_after = registry_snapshot()

    alarmed = {record.environment for record in campaign.alarm_store.fetch()}
    return CampaignRep(
        setup_s=setup_s,
        work_s=work_s,
        work_cpu_s=work_cpu_s,
        scored=len(scored),
        day_walls=day_walls,
        verdicts=tuple(e.environment in alarmed for e in scored),
        truth=tuple(e.has_performance_problem for e in scored),
        attempted=attempted,
        failed=failed,
        accounted=accounted and len(campaign.dead_letters.records()) == failed,
        registry_delta={k: registry_after[k] - registry_before[k] for k in registry_after},
    )


def _traced_rep(shape: CampaignShape, dataset) -> tuple[CampaignRep, Tracer]:
    tracer = Tracer()
    tracer.install()
    try:
        return run_rep(shape, dataset, tracer), tracer
    finally:
        tracer.uninstall()


def _log_rep(log, label: str, rep: CampaignRep) -> None:
    log(f"{label}: setup {rep.setup_s:.3f} s, {rep.scored} executions in "
        f"{rep.work_s:.3f} s ({rep.work_cpu_s:.3f} s CPU), "
        f"days {[round(wall, 3) for wall in rep.day_walls]} s")


def run(seed: int, seconds: float, trace: bool, log) -> dict:
    shape = SHAPE
    dataset = generate(shape, seed)
    # The corpus lives for the whole run; frozen, it is never scanned by a
    # collection the campaign's own garbage triggers.
    gc.collect()
    gc.freeze()
    reps: list[CampaignRep] = []
    layers = None
    started = time.perf_counter()
    if trace:
        # Untraced and traced campaigns over the same inputs, alternating
        # which goes first; the median difference of their verdict phases
        # is the tracing overhead.
        pairs = []
        for index in range(TRACE_PAIRS):
            if index % 2:
                traced, tracer = _traced_rep(shape, dataset)
                untraced = run_rep(shape, dataset)
            else:
                untraced = run_rep(shape, dataset)
                traced, tracer = _traced_rep(shape, dataset)
            _log_rep(log, f"pair {index + 1} untraced", untraced)
            _log_rep(log, f"pair {index + 1} traced", traced)
            reps += [untraced, traced]
            pairs.append((untraced.work_s, traced.work_s))
        # The per-layer numbers are those of the last traced campaign.
        layers = layer_metrics(
            tracer,
            setup_wall=traced.setup_s,
            work_wall=traced.work_s,
            cpu_share=traced.work_cpu_s / traced.work_s,
            overhead_pairs=pairs,
            registry_delta=traced.registry_delta,
        )
    else:
        # Whole campaigns only: at least MIN_REPS, another only if it fits.
        while True:
            reps.append(run_rep(shape, dataset))
            _log_rep(log, f"rep {len(reps)}", reps[-1])
            elapsed = time.perf_counter() - started
            if len(reps) >= MIN_REPS and elapsed * (len(reps) + 1) / len(reps) > seconds:
                break
    setups = [rep.setup_s for rep in reps]
    while not trace and len(setups) < MIN_SETUPS:
        setups.append(run_rep(shape, dataset, setup_only=True))

    first = reps[0]
    checks = {
        # Every submitted execution is either delivered or dead-lettered.
        "accounted": all(rep.accounted for rep in reps),
        # The clean collector path quarantines nothing.
        "no_quarantine": all(rep.failed == 0 for rep in reps),
        # Same seed, same verdicts: repetitions agree execution by execution.
        "verdicts_repeat": all(rep.verdicts == first.verdicts for rep in reps),
        "scored": first.scored > 0,
    }
    attempted = sum(rep.attempted for rep in reps)
    failed = sum(rep.failed for rep in reps)
    day_latencies = [fast_quantile(walls, DAY_QUANTILE)
                     for walls in zip(*(rep.day_walls for rep in reps))]
    metrics = {
        "setup_s": statistics.median(setups),
        "executions_per_s": first.scored / sum(day_latencies),
        "latency_p50_ms": 1e3 * percentile(day_latencies, 50),
        "latency_p90_ms": 1e3 * percentile(day_latencies, 90),
        "alarm_f1": alarm_f1(first.verdicts, first.truth),
        "ok_ratio": (attempted - failed) / attempted,
        "peak_rss_mb": peak_rss_mb(),
    }
    return {
        "checks": checks,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "layers": layers,
        "detail": {"reps": len(reps), "setups": setups, "day_latencies_s": day_latencies,
                   "work_s": [rep.work_s for rep in reps]},
    }
