"""The four workloads: offline, sharded, serve and gateway.

Each workload function takes a :class:`Run` and returns a
:class:`Report`.  End-to-end figures come from the run's untraced phase;
with ``trace`` set, a traced phase follows and fills the per-layer ledger.
Only figures whose work composition the bench fixes are gated: closed
loops send bench-built batches, and the open loop sends single items at
seeded due times.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from concurrent.futures import wait as futures_wait
from dataclasses import dataclass, field, replace
from multiprocessing import resource_tracker
from pathlib import Path

from repro import GroundTruth, LabelingEngine
from repro.durability.journal import Journal
from repro.engine import BatchedBackend, ClusterBackend, ProcessConfig
from repro.engine.backends import ProcessPoolBackend
from repro.engine.config import ClusterConfig
from repro.engine.shm import decode_records, decode_traces, encode_records, encode_traces
from repro.scheduling.base import TOLERANCE
from repro.serving import LabelingService

from labelbench import world as W
from labelbench.checks import OutputChecks
from labelbench.ledger import (
    Tracer,
    TracedEngine,
    TracedJournal,
    TracedPredictor,
    TracedTruth,
    traced_backend,
)
from labelbench.measure import (
    IDLE_CPU_LIMIT,
    HostMeter,
    descendants,
    mean,
    median,
    normalize_duration,
    peak_rss_mb,
    percentile,
    running,
    share,
)

ROOT = W.HERE.parent


@dataclass
class Run:
    """One invocation: seed, measured seconds, input scale, trace flag."""

    seed: int
    seconds: float
    scale: W.Scale
    trace: bool
    meter: HostMeter
    #: Scratch directory inside the checkout, removed when the run ends.
    workdir: Path

    @property
    def timed_seconds(self) -> float:
        """Untraced phase length: the whole run, or half when tracing."""
        return self.seconds / 2.0 if self.trace else self.seconds


@dataclass
class Report:
    checks: OutputChecks
    #: name -> (value, samples, raw value or None)
    metrics: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)

    def metric(self, name, value, samples, raw=None):
        self.metrics[name] = (value, samples, raw)


# -- shared helpers ----------------------------------------------------------


def measure_setup(run: Run, build, teardown):
    """One untimed warm start, then ``setup_repeats`` timed set-ups.

    Returns the last set-up (kept for the timed phase) and the median
    normalized and raw set-up seconds.
    """
    teardown(build())
    normalized, raw = [], []
    built = None
    for repeat in range(run.scale.setup_repeats):
        if built is not None:
            teardown(built)
        built, seconds, kernel = run.meter.timed_setup(build)
        raw.append(seconds)
        normalized.append(normalize_duration(seconds, kernel, run.meter.nominal_s))
    return built, median(normalized), median(raw), len(normalized)


def program_rss() -> float:
    return peak_rss_mb([os.getpid(), *descendants()])


class BatchLog:
    """Closed-loop timings, raw and normalized.

    Throughput is the median over blocks of each block's normalized rate,
    per key (regime or backend), so one slow block or one disturbed kernel
    window moves no figure; keys combine by their fixed item shares.
    Latency percentiles are likewise the median over blocks of each
    block's percentile: every block holds the same requests.
    """

    def __init__(self, nominal_s: float):
        self.nominal_s = nominal_s
        #: (block, key, items, raw seconds, normalized seconds)
        self.rows: list[tuple[int, str, int, float, float]] = []
        #: (block, raw seconds, normalized seconds) per request
        self.latencies: list[tuple[int, float, float]] = []

    def add(self, block: int, key: str, items: int, raw_s: float, kernel_s: float):
        norm = normalize_duration(raw_s, kernel_s, self.nominal_s)
        self.rows.append((block, key, items, raw_s, norm))

    def request(self, block: int, raw_s: float, kernel_s: float) -> None:
        self.latencies.append(
            (block, raw_s, normalize_duration(raw_s, kernel_s, self.nominal_s))
        )

    def rate(self, key: str | None = None, normalized: bool = True) -> float:
        column = 4 if normalized else 3
        if key is None:
            keys = sorted({row[1] for row in self.rows})
            items = {k: sum(r[2] for r in self.rows if r[1] == k) for k in keys}
            return share(
                sum(items.values()),
                sum(share(items[k], self.rate(k, normalized)) for k in keys),
            )
        per_block = defaultdict(lambda: [0, 0.0])
        for block, row_key, items, *times in self.rows:
            if row_key == key:
                per_block[block][0] += items
                per_block[block][1] += times[column - 3]
        return median([share(n, t) for n, t in per_block.values()])

    def latency_ms(self, q: float, normalized: bool = True) -> float:
        per_block = defaultdict(list)
        for block, *times in self.latencies:
            per_block[block].append(times[normalized])
        return 1000.0 * median([percentile(v, q) for v in per_block.values()])

    @property
    def items(self) -> int:
        return sum(row[2] for row in self.rows)

    def report(self, report: Report, keys=()) -> None:
        n = len(self.latencies)
        report.metric("items_per_s", self.rate(), self.items, self.rate(None, False))
        for q in (50, 95):
            report.metric(
                f"p{q}_ms", self.latency_ms(q), n, self.latency_ms(q, False)
            )
        for key in keys:
            report.layers[f"items_per_s.{key}"] = self.rate(key)
            report.layers[f"bench.raw.items_per_s.{key}"] = self.rate(key, False)
            report.notes.append(
                f"items_per_s.{key} {self.rate(key):.6g} 1/s "
                f"(raw {self.rate(key, False):.6g} 1/s)"
            )


def finish_common(run: Run, report: Report, setup, rss: float) -> None:
    setup_norm, setup_raw, setup_n = setup
    report.metric("setup_s", setup_norm, setup_n, setup_raw)
    report.metric("recall_mean", report.checks.recall_mean, len(report.checks.recalls))
    report.metric("ok_share", report.checks.ok_share, report.checks.attempted)
    report.metric("peak_rss_mb", rss, 1)
    report.layers["bench.host_factor"] = run.meter.host_factor
    report.layers["bench.idle_cpu_share"] = run.meter.idle_cpu_share
    for name, (_, _, raw) in report.metrics.items():
        if raw is not None:
            report.layers[f"bench.raw.{name}"] = raw
    report.layers["checks.relaxed_bound_exceeded_share"] = share(
        report.checks.relaxed_exceeded, len(report.checks.traces)
    )
    if report.checks.relaxed_exceeded:
        report.notes.append(
            f"value exceeded the repository's RelaxedOptimal* value on "
            f"{report.checks.relaxed_exceeded} of {len(report.checks.traces)} "
            f"pairs: that value is not an upper bound (counted, not gated)"
        )
    if run.meter.idle_cpu_share > IDLE_CPU_LIMIT:
        report.checks.fail(
            f"program used {run.meter.idle_cpu_share:.1%} of a core during "
            f"kernel windows (limit 5%): normalization is not trustworthy"
        )


def overhead_share(untraced: float, traced: float, higher_is_better=True) -> float:
    """Fraction of the headline figure lost to tracing."""
    if higher_is_better:
        return share(untraced - traced, untraced)
    return share(traced - untraced, untraced)


# -- per-layer arithmetic over in-process spans ------------------------------


def engine_layers(tracer: Tracer, report: Report, kernel_s: float, nominal_s: float):
    """rl / scheduling / engine / zoo figures from one traced phase."""
    scale = nominal_s / kernel_s  # report span times at nominal host speed
    engines = tracer.named("engine.label_batch")
    runs = tracer.named("backend.run")
    forwards = tracer.named("rl.forward")
    records = tracer.named("zoo.record")
    items = sum(s.attrs["items"] for s in engines)
    engine_total = sum(s.duration for s in engines)
    forward_total = sum(s.duration for s in forwards)
    L = report.layers
    L["rl.forward_ms_per_item"] = 1000 * scale * share(forward_total, items)
    L["rl.forward_calls_per_item"] = share(len(forwards), items)
    L["rl.rows_per_call"] = share(sum(s.attrs["rows"] for s in forwards), len(forwards))
    L["rl.forward_share"] = share(forward_total, engine_total)
    useful = executed = 0
    for regime in W.REGIME_NAMES:
        mine = [s for s in runs if s.attrs["regime"] == regime]
        regime_items = sum(s.attrs["items"] for s in mine)
        tick = sum(s.self_time for s in mine)
        rounds = sum(
            1 for s in mine for c in s.children if c.name == "rl.forward"
        )
        models = [len(t.executions) for s in mine for t in s.attrs.get("traces", ())]
        L[f"scheduling.tick_ms_per_item.{regime}"] = 1000 * scale * share(
            tick, regime_items
        )
        L[f"scheduling.rounds_per_batch.{regime}"] = share(rounds, len(mine))
        L[f"scheduling.models_per_item.{regime}"] = share(sum(models), len(models))
        for s in mine:
            for t in s.attrs.get("traces", ()):
                executed += len(t.executions)
                useful += sum(1 for e in t.executions if e.marginal_value > TOLERANCE)
    L["scheduling.useful_exec_share"] = share(useful, executed)
    engine_self = sum(s.self_time for s in engines)
    L["engine.self_ms_per_item"] = 1000 * scale * share(engine_self, items)
    L["engine.self_share"] = share(engine_self, engine_total)
    record_total = sum(s.duration for s in records)
    # Recording outside an engine call (the service records before it
    # dispatches) is labeling work the engine spans do not cover.
    outside = sum(s.duration for s in records if s.parent is None)
    L["zoo.record_ms_per_item"] = 1000 * scale * share(record_total, items)
    L["zoo.record_share"] = share(record_total, engine_total + outside)


# -- offline -----------------------------------------------------------------


def offline(run: Run) -> Report:
    """Closed loop over ``LabelingEngine.label_batch`` on ``batched``."""
    report = Report(OutputChecks())
    checks = report.checks
    inputs = W.build_world()
    catalog = [inputs.item(i) for i in W.catalog_indices(run.seed, run.scale.catalog_items)]
    tracer = Tracer()

    def build():
        world = W.build_world()
        predictor = W.load_predictor(world)
        if not run.trace:
            truth = W.record_catalog(world, catalog)
            return LabelingEngine(world.zoo, predictor, world.config), truth
        truth = W.record_catalog(world, catalog, TracedTruth)
        truth.tracer = tracer
        traced = TracedPredictor(predictor.agent, predictor.n_models, tracer)
        engine = TracedEngine(
            world.zoo,
            traced,
            world.config,
            backend=traced_backend(BatchedBackend, tracer),
            tracer=tracer,
        )
        return engine, truth

    (engine, truth), *setup = measure_setup(run, build, lambda built: None)
    plan = W.batch_plan(catalog, run.scale.batch_size)

    def cycle():
        timings, outputs = [], []
        for regime, items in plan:
            started = time.perf_counter()
            results = engine.label_batch(items, W.REGIMES[regime], truth=truth)
            timings.append((regime, len(results), time.perf_counter() - started))
            outputs.append((regime, results))
        return timings, outputs

    def phase(seconds):
        log = BatchLog(run.meter.nominal_s)
        kernels = []
        for block, ((timings, outputs), kernel) in enumerate(
            run.meter.blocks(seconds, cycle)
        ):
            kernels.append(kernel)
            for regime, n, raw in timings:
                log.add(block, regime, n, raw, kernel)
                log.request(block, raw, kernel)
            for regime, results in outputs:
                checks.outcome("offline", True, len(results))
                for result in results:
                    checks.trace(regime, result.trace, "offline")
        return log, mean(kernels)

    log, _ = phase(run.timed_seconds)
    rss = program_rss()
    log.report(report, W.REGIME_NAMES)
    if run.trace:
        tracer.enabled = True
        traced_log, kernel = phase(run.seconds - run.timed_seconds)
        tracer.enabled = False
        engine_layers(tracer, report, kernel, run.meter.nominal_s)
        report.layers["bench.trace_overhead_share"] = overhead_share(
            log.rate(), traced_log.rate()
        )
    checks.verify(truth)
    finish_common(run, report, setup, rss)
    return report


# -- sharded -----------------------------------------------------------------


SHARDED_BACKENDS = ("process", "cluster")


def sharded(run: Run) -> Report:
    """Closed loop through one process worker and one cluster worker."""
    report = Report(OutputChecks())
    checks = report.checks
    inputs = W.build_world()
    catalog = [inputs.item(i) for i in W.catalog_indices(run.seed, run.scale.catalog_items)]
    # Items outside the drawn index range warm the fleets: their records are
    # the snapshot, so every catalog record later travels as a chunk delta.
    warm_items = [inputs.item(W.INDEX_POOL + i) for i in range(2)]
    tracer = Tracer()

    def build():
        world = W.build_world()
        predictor = W.load_predictor(world)
        if run.trace:
            backends = {
                "process": traced_backend(ProcessPoolBackend, tracer, max_workers=1),
                "cluster": traced_backend(ClusterBackend, tracer, local_workers=1),
            }
        else:
            backends = {
                "process": ProcessConfig(max_workers=1),
                "cluster": ClusterConfig(local_workers=1),
            }
        engines = {
            name: LabelingEngine(world.zoo, predictor, world.config, backend=backend)
            for name, backend in backends.items()
        }
        warm_truth = W.record_catalog(world, warm_items)
        for engine in engines.values():
            engine.label_batch(warm_items, W.REGIMES["qgreedy"], truth=warm_truth)
        truth = W.record_catalog(world, catalog)
        return world, predictor, engines, truth

    def teardown(built):
        for engine in built[2].values():
            engine.backend.close()

    built, *setup = measure_setup(run, teardown=teardown, build=build)
    world, predictor, engines, truth = built
    plan = W.batch_plan(catalog, run.scale.batch_size)
    turn = [0]

    def cycle():
        name = SHARDED_BACKENDS[turn[0] % len(SHARDED_BACKENDS)]
        turn[0] += 1
        engine = engines[name]
        timings, outputs = [], []
        for regime, items in plan:
            started = time.perf_counter()
            results = engine.label_batch(items, W.REGIMES[regime], truth=truth)
            timings.append((name, len(results), time.perf_counter() - started))
            outputs.append((regime, results))
        return timings, outputs

    def phase(seconds):
        log = BatchLog(run.meter.nominal_s)
        kernels = []
        for block, ((timings, outputs), kernel) in enumerate(
            run.meter.blocks(seconds, cycle)
        ):
            kernels.append(kernel)
            for name, n, raw in timings:
                log.add(block, name, n, raw, kernel)
                # Blocks alternate backends: a pair of blocks holds the
                # same batches through both, so latencies group by pair.
                log.request(block // len(SHARDED_BACKENDS), raw, kernel)
            for regime, results in outputs:
                checks.outcome(timings[0][0], True, len(results))
                for result in results:
                    checks.sequence(
                        regime, result.item_id, result.models_executed, timings[0][0]
                    )
        return log, mean(kernels)

    try:
        log, _ = phase(run.timed_seconds)
        if run.trace:
            before = {n: e.backend.chunk_stats for n, e in engines.items()}
            tracer.enabled = True
            traced_log, kernel = phase(run.seconds - run.timed_seconds)
            tracer.enabled = False
            after = {n: e.backend.chunk_stats for n, e in engines.items()}
            transport_layers(
                tracer, report, before, after, kernel, run.meter.nominal_s
            )
            codec_layers(report, world, truth, catalog[: run.scale.batch_size], predictor)
            report.layers["bench.trace_overhead_share"] = overhead_share(
                log.rate(), traced_log.rate()
            )
        rss = program_rss()
    finally:
        teardown(built)
    log.report(report, SHARDED_BACKENDS)
    reference(checks, world, predictor, truth, plan)
    checks.verify(truth)
    finish_common(run, report, setup, rss)
    return report


def reference(checks: OutputChecks, world, predictor, truth, plan) -> None:
    """In-process ``batched`` traces for every planned pair (the reference)."""
    engine = LabelingEngine(world.zoo, predictor, world.config)
    for regime, items in plan:
        for result in engine.label_batch(items, W.REGIMES[regime], truth=truth):
            checks.trace(regime, result.trace, "reference")


def transport_layers(tracer, report, before, after, kernel_s, nominal_s) -> None:
    scale = nominal_s / kernel_s
    L = report.layers
    chunks = items = shm = pickled = 0
    for name in SHARDED_BACKENDS:
        runs = [s for s in tracer.named("backend.run") if s.attrs["backend"] == name]
        b, a = before[name], after[name]
        worker_s = a["seconds"] - b["seconds"]
        run_items = sum(s.attrs["items"] for s in runs)
        L[f"transport.overhead_ms_per_item.{name}"] = 1000 * scale * share(
            sum(s.duration for s in runs) - worker_s, run_items
        )
        chunks += a["chunks"] - b["chunks"]
        items += a["items"] - b["items"]
        for key, count in a["transport"].items():
            moved = count - b["transport"].get(key, 0)
            if key.endswith("_pickle"):
                pickled += moved
            else:
                shm += moved
    L["transport.items_per_chunk"] = share(items, chunks)
    L["transport.fallback_share"] = share(pickled, shm + pickled)


def codec_layers(report, world, truth, items, predictor) -> None:
    """Public codec functions timed on this run's own records and traces."""
    records = [truth.record(item.item_id) for item in items]
    ids = [item.item_id for item in items]
    traces = [
        r.trace
        for r in LabelingEngine(world.zoo, predictor, world.config).label_batch(
            items, W.REGIMES["deadline_memory"], truth=truth
        )
    ]
    encoded_records = encode_records(records)
    encoded_traces = encode_traces(traces)
    calls = {
        "encode_records": lambda: encode_records(records),
        "decode_records": lambda: decode_records(encoded_records, world.zoo),
        "encode_traces": lambda: encode_traces(traces),
        "decode_traces": lambda: decode_traces(encoded_traces, ids, world.zoo.names),
    }
    repeats = 20
    for name, call in calls.items():
        started = time.perf_counter()
        for _ in range(repeats):
            call()
        elapsed = time.perf_counter() - started
        report.layers[f"codec.{name}_us"] = 1e6 * elapsed / (repeats * len(items))
    report.layers["transport.delta_bytes_per_item"] = len(encoded_records) / len(items)


# -- serve -------------------------------------------------------------------

SERVE_BATCH = 32
SERVE_MAX_WAIT = 0.02
SERVE_WORKERS = 2
SERVE_CACHE = 8192


def serve(run: Run) -> Report:
    """Open loop of single-item ``submit(wait="nowait")`` at a fixed rate."""
    report = Report(OutputChecks())
    checks = report.checks
    inputs = W.build_world()
    schedule = W.serve_schedule(run.seed, run.scale.serve_rate, run.timed_seconds)
    traced_schedule = (
        W.serve_schedule(run.seed + 1, run.scale.serve_rate, run.timed_seconds)
        if run.trace
        else []
    )
    items = {
        r.index: inputs.item(r.index) for r in (*schedule, *traced_schedule)
    }
    # Warm-up traffic uses indices outside the drawn range, so it never
    # warms the result cache for a timed pair.
    warm = [inputs.item(W.INDEX_POOL + i) for i in range(3 * SERVE_BATCH)]
    tracer = Tracer()
    journals = itertools.count()

    def build():
        world = W.build_world()
        predictor = W.load_predictor(world)
        directory = run.workdir / f"journal-{next(journals)}"
        if run.trace:
            truth = TracedTruth(world.zoo, [], world.config)
            truth.tracer = tracer
            engine = TracedEngine(
                world.zoo,
                TracedPredictor(predictor.agent, predictor.n_models, tracer),
                world.config,
                backend=traced_backend(BatchedBackend, tracer),
                tracer=tracer,
            )
            journal = TracedJournal(directory, tracer=tracer, fsync="batch")
        else:
            truth = GroundTruth(world.zoo, [], world.config)
            engine = LabelingEngine(world.zoo, predictor, world.config)
            journal = Journal(directory, fsync="batch")
        service = LabelingService(
            engine,
            batch_size=SERVE_BATCH,
            max_wait=SERVE_MAX_WAIT,
            workers=SERVE_WORKERS,
            truth=truth,
            cache_size=SERVE_CACHE,
            journal=journal,
        )
        service.start()
        return service, journal, world

    def teardown(built):
        service, journal, _ = built
        service.shutdown()
        journal.close()

    built, *setup = measure_setup(run, build, teardown)
    service, journal, world = built
    try:
        for regime in W.REGIME_NAMES:
            futures = [service.submit(item, W.REGIMES[regime]) for item in warm]
            for future in futures:
                future.result(timeout=60)
        untraced = open_loop(service, schedule, items, checks, "serve")
        rss = program_rss()
        if run.trace:
            # Telemetry percentiles cannot be differenced: start them afresh.
            service.telemetry.reset()
            cache_before = service.cache.stats()
            journal_before = journal.stats()
            tracer.enabled = True
            traced = open_loop(service, traced_schedule, items, checks, "serve-traced")
            tracer.enabled = False
            snapshot = service.snapshot()
            serving_layers(report, snapshot)
            cache_layers(report, cache_before, service.cache.stats(), len(traced_schedule))
            journal_layers(
                report, tracer, journal_before, journal.stats(), snapshot.batches,
                len(traced_schedule),
            )
            engine_layers(tracer, report, run.meter.nominal_s, run.meter.nominal_s)
            report.layers["bench.trace_overhead_share"] = overhead_share(
                untraced.p50, traced.p50, higher_is_better=False
            )
    finally:
        teardown(built)
    n = len(untraced.latencies)
    report.metric("items_per_s", untraced.rate, untraced.completed)
    report.metric("p50_ms", untraced.p50, n)
    report.metric("p95_ms", untraced.p95, n)
    report.notes.append(
        f"p99_ms {untraced.p99:.3f} ms (n={n}, unbounded: not gated)"
    )
    report.layers["bench.generator_late_p99_ms"] = untraced.late_p99
    if untraced.late_p99 >= untraced.p95 / 2:
        checks.fail(
            f"generator ran {untraced.late_p99:.1f} ms late at p99, at least "
            f"half of p95 {untraced.p95:.1f} ms: the load was not open-loop"
        )
    check_truth = GroundTruth(
        world.zoo, [items[index] for index in sorted(items)], world.config
    )
    checks.verify(check_truth)
    finish_common(run, report, setup, rss)
    return report


@dataclass
class OpenLoopResult:
    latencies: list
    late: list
    completed: int
    rate: float

    @property
    def p50(self):
        return 1000 * percentile(self.latencies, 50)

    @property
    def p95(self):
        return 1000 * percentile(self.latencies, 95)

    @property
    def p99(self):
        return 1000 * percentile(self.latencies, 99)

    @property
    def late_p99(self):
        return 1000 * percentile(self.late, 99)


def open_loop(service, schedule, items, checks, phase) -> OpenLoopResult:
    """Send ``schedule`` from one generator thread; time due -> settled."""
    settled: dict[int, float] = {}
    submitted: list[tuple[int, object]] = []
    late: list[float] = []
    rejected = []
    origin = time.perf_counter() + 0.05

    def on_done(position):
        def callback(_future):
            settled[position] = time.perf_counter()

        return callback

    def generate():
        for position, request in enumerate(schedule):
            due = origin + request.due
            pause = due - time.perf_counter()
            if pause > 0:
                time.sleep(pause)
            late.append(time.perf_counter() - due)
            spec = replace(W.REGIMES[request.regime], priority=request.priority)
            try:
                future = service.submit(items[request.index], spec, wait="nowait")
            except Exception as exc:  # a refused request counts as a miss
                rejected.append((position, exc))
                continue
            future.add_done_callback(on_done(position))
            submitted.append((position, future))

    generator = threading.Thread(target=generate, name="labelbench-generator")
    generator.start()
    generator.join()
    futures_wait([future for _, future in submitted], timeout=120)
    # A future's waiters wake before its done-callbacks run: let them land.
    settle_by = time.perf_counter() + 5.0
    while len(settled) < len(submitted) and time.perf_counter() < settle_by:
        time.sleep(0.001)
    completed = 0
    latencies = []
    last = origin
    for position, future in submitted:
        request = schedule[position]
        try:
            result = future.result(timeout=60)
        except Exception:
            checks.outcome(phase, False)
            continue
        checks.outcome(phase, True)
        checks.trace(request.regime, result.trace, phase)
        completed += 1
        finish = settled[position]
        latencies.append(finish - (origin + request.due))
        last = max(last, finish)
    for _ in rejected:
        checks.outcome(phase, False)
    return OpenLoopResult(latencies, late, completed, share(completed, last - origin))


def serving_layers(report, snapshot) -> None:
    L = report.layers
    L["serving.queue_wait_p50_ms"] = 1000 * snapshot.queue_wait.p50
    L["serving.queue_wait_p95_ms"] = 1000 * snapshot.queue_wait.p95
    L["serving.service_time_p95_ms"] = 1000 * snapshot.service_time.p95
    L["serving.batch_size_mean"] = snapshot.mean_batch_size
    L["serving.flush_wait_share"] = share(snapshot.flushes["wait"], snapshot.batches)


def cache_layers(report, before, after, requests) -> None:
    report.layers["cache.hit_share"] = share(after.hits - before.hits, requests)
    report.layers["cache.coalesced_share"] = share(
        after.coalesced - before.coalesced, requests
    )


def journal_layers(report, tracer, before, after, batches, requests):
    L = report.layers
    appends = tracer.named("journal.append")
    flushes = [s.duration for s in tracer.named("journal.flush")]
    L["durability.append_us_per_request"] = 1e6 * share(
        sum(s.duration for s in appends), requests
    )
    L["durability.flush_ms_p95"] = 1000 * percentile(flushes, 95) if flushes else 0.0
    L["durability.fsyncs_per_batch"] = share(after.fsyncs - before.fsyncs, batches)
    L["durability.bytes_per_request"] = share(
        after.bytes_written - before.bytes_written, requests
    )


# -- gateway -----------------------------------------------------------------


GATEWAY_REQUESTS_PER_BLOCK = 12  # per connection: four of each regime


def gateway(run: Run) -> Report:
    """Closed loop of sync batch requests over two keep-alive connections."""
    report = Report(OutputChecks())
    checks = report.checks
    scale = run.scale
    plan = W.gateway_requests(
        run.seed, scale.gateway_items, scale.gateway_batch, scale.gateway_requests
    )
    inputs = W.build_world()
    catalog = W.gateway_catalog(inputs, scale.gateway_items)
    bodies = {
        tenant: [
            (regime, positions, _batch_body(regime, catalog, positions))
            for regime, positions in requests
        ]
        for tenant, requests in plan.items()
    }

    def build():
        return GatewayChild.start(scale)

    built, *setup = measure_setup(run, build, lambda child: child.stop())
    child = built
    try:
        log, stats = asyncio.run(
            gateway_phase(run, child, bodies, catalog, checks, run.timed_seconds, "gateway")
        )
        rss = program_rss()
        if run.trace:
            server_before = child.metrics()
            traced_log, traced_stats = asyncio.run(
                gateway_phase(
                    run, child, bodies, catalog, checks,
                    run.seconds - run.timed_seconds, "gateway-traced",
                )
            )
            gateway_layers(report, traced_stats, server_before, child.metrics())
            report.layers["bench.trace_overhead_share"] = overhead_share(
                log.rate(), traced_log.rate()
            )
    finally:
        child.stop()
    log.report(report)
    world = W.build_world()
    predictor = W.load_predictor(world)
    truth = W.record_catalog(world, catalog)
    planned = sorted(
        {(regime, p) for requests in plan.values() for regime, ps in requests for p in ps}
    )
    by_regime = defaultdict(list)
    for regime, position in planned:
        by_regime[regime].append(catalog[position])
    reference(checks, world, predictor, truth, sorted(by_regime.items()))
    checks.verify(truth)
    finish_common(run, report, setup, rss)
    return report


def _batch_body(regime, catalog, positions) -> bytes:
    spec = W.REGIMES[regime]
    body = {"items": [catalog[p].item_id for p in positions], "mode": "sync"}
    if spec.deadline is not None:
        body["deadline"] = spec.deadline
    if spec.memory_budget is not None:
        body["memory_budget"] = spec.memory_budget
    return json.dumps(body).encode()


class GatewayChild:
    """``python -m repro.cli gateway`` as a child process of the bench."""

    def __init__(self, process, host, port):
        self.process = process
        self.host = host
        self.port = port

    @classmethod
    def start(cls, scale: W.Scale) -> "GatewayChild":
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src")
        command = [
            sys.executable, "-m", "repro.cli", "gateway",
            "--items", str(scale.gateway_items),
            "--port", "0",
            "--backend", "batched",
            "--workers", "1",
            "--batch-size", str(scale.gateway_batch),
            "--cache-size", "0",
            "--demo-tenants", str(len(W.GATEWAY_TENANTS)),
            "--agent", str(W.AGENT_PATH),
            "--algo", W.AGENT_ALGO,
            "--hidden", str(W.AGENT_HIDDEN),
        ]  # fmt: skip
        process = subprocess.Popen(
            command,
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        for line in process.stdout:
            if line.startswith("gateway listening at http://"):
                address = line.split()[3][len("http://") :]
                host, port = address.rsplit(":", 1)
                # Keep draining output so the child never blocks on a pipe.
                threading.Thread(
                    target=process.stdout.read, name="gateway-output", daemon=True
                ).start()
                return cls(process, host, int(port))
        process.wait(timeout=30)
        raise RuntimeError(f"gateway exited with {process.returncode} before listening")

    def metrics(self) -> dict:
        async def fetch():
            reader, writer = await asyncio.open_connection(self.host, self.port)
            try:
                status, body = await _http(
                    reader, writer, "GET", "/metrics.json", b"", {}
                )
            finally:
                writer.close()
                await writer.wait_closed()
            return json.loads(body)

        return asyncio.run(fetch())

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=30)


async def _http(reader, writer, method, path, body, headers):
    head = [f"{method} {path} HTTP/1.1", "Host: bench", f"Content-Length: {len(body)}"]
    head += [f"{k}: {v}" for k, v in headers.items()]
    writer.write(("\r\n".join(head) + "\r\n\r\n").encode() + body)
    await writer.drain()
    status_line = await reader.readline()
    status = int(status_line.split()[1])
    length = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b""):
            break
        name, _, value = line.decode().partition(":")
        if name.strip().lower() == "content-length":
            length = int(value)
    payload = await reader.readexactly(length)
    return status, payload


@dataclass
class WireStats:
    statuses: Counter = field(default_factory=Counter)
    response_bytes: int = 0
    items: int = 0
    latencies: list = field(default_factory=list)


async def gateway_phase(run, child, bodies, catalog, checks, seconds, phase):
    """Blocks of closed-loop requests on both connections, kernel between."""
    log = BatchLog(run.meter.nominal_s)
    stats = WireStats()
    connections = {}
    for tenant in bodies:
        connections[tenant] = await asyncio.open_connection(child.host, child.port)
    cursor = {tenant: 0 for tenant in bodies}

    async def block(tenant):
        reader, writer = connections[tenant]
        headers = {
            "X-API-Key": f"demo-key-{tenant}",
            "Content-Type": "application/json",
        }
        done = []
        for _ in range(GATEWAY_REQUESTS_PER_BLOCK):
            regime, positions, body = bodies[tenant][
                cursor[tenant] % len(bodies[tenant])
            ]
            cursor[tenant] += 1
            started = time.perf_counter()
            status, payload = await _http(
                reader, writer, "POST", "/v1/label/batch", body, headers
            )
            done.append((regime, positions, time.perf_counter() - started, status, payload))
        return done

    try:
        deadline = time.perf_counter() + seconds
        before = run.meter.probe()
        number = 0
        while time.perf_counter() < deadline:
            started = time.perf_counter()
            outcomes = await asyncio.gather(*(block(t) for t in bodies))
            elapsed = time.perf_counter() - started
            after = run.meter.probe()
            kernel = (before + after) / 2.0
            before = after
            items = 0
            for done in outcomes:
                for regime, positions, latency, status, payload in done:
                    stats.statuses[status] += 1
                    stats.response_bytes += len(payload)
                    stats.latencies.append(latency)
                    items += _check_response(
                        checks, phase, regime, positions, catalog, status, payload
                    )
                    log.request(number, latency, kernel)
            stats.items += items
            log.add(number, "requests", items, elapsed, kernel)
            number += 1
    finally:
        for reader, writer in connections.values():
            writer.close()
            await writer.wait_closed()
    return log, stats


def _check_response(checks, phase, regime, positions, catalog, status, payload) -> int:
    if status != 200:
        checks.outcome(phase, False, len(positions))
        return 0
    rows = json.loads(payload)["results"]
    ok = 0
    for position, row in zip(positions, rows):
        item_id = catalog[position].item_id
        if row.get("status") != "completed" or row.get("item_id") != item_id:
            checks.outcome(phase, False)
            continue
        checks.outcome(phase, True)
        checks.sequence(regime, item_id, row["models_executed"], phase)
        ok += 1
    return ok


def _family(snapshot: dict, name: str, **labels) -> float:
    total = 0.0
    for sample in snapshot.get(name, {}).get("samples", ()):
        if all(sample["labels"].get(k) == v for k, v in labels.items()):
            total += sample["value"]
    return total


def gateway_layers(report, stats, before, after) -> None:
    L = report.layers
    requests = sum(stats.statuses.values())

    def delta(name, **labels):
        return _family(after, name, **labels) - _family(before, name, **labels)

    # Server-side time per request over exactly this phase's requests; a
    # p50 of the difference cannot be formed from two separate summaries.
    server_s = share(
        delta("repro_gateway_e2e_seconds_sum"), delta("repro_gateway_e2e_seconds_count")
    )
    L["gateway.http_overhead_ms_mean"] = 1000 * (mean(stats.latencies) - server_s)
    L["gateway.response_bytes_per_item"] = share(stats.response_bytes, stats.items)
    L["gateway.status_429_share"] = share(stats.statuses[429], requests)

    batches = delta("repro_batches_total")
    L["serving.batch_size_mean"] = share(delta("repro_batched_items_total"), batches)
    L["serving.flush_wait_share"] = share(
        delta("repro_batches_total", reason="wait"), batches
    )
    for q, name in (("0.5", "p50"), ("0.95", "p95")):
        L[f"serving.queue_wait_{name}_ms"] = 1000 * _family(
            after, "repro_queue_wait_seconds", quantile=q
        )
    L["serving.service_time_p95_ms"] = 1000 * _family(
        after, "repro_service_time_seconds", quantile="0.95"
    )
    for regime in W.REGIME_NAMES:
        sched_batches = delta("repro_sched_batches_total", regime=regime)
        L[f"scheduling.rounds_per_batch.{regime}"] = share(
            delta("repro_sched_rounds_total", regime=regime), sched_batches
        )
        L[f"scheduling.models_per_item.{regime}"] = share(
            delta("repro_sched_models_executed_total", regime=regime),
            delta("repro_sched_batch_items_total", regime=regime),
        )


WORKLOADS = {
    "offline": offline,
    "sharded": sharded,
    "serve": serve,
    "gateway": gateway,
}


def make_workdir(name: str) -> Path:
    path = ROOT / ".labelbench_run" / f"{name}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def remove_workdir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        path.parent.rmdir()
    except OSError:
        pass


def stop_helpers() -> None:
    """Stop every process still running below the bench process, and reap it.

    Shared-memory rings start multiprocessing's resource tracker, a helper
    that by design outlives its parent; it is stopped and waited for here.
    Anything else left (a worker a failed run could not close) is killed.
    """
    resource_tracker._resource_tracker._stop()
    leftover = descendants()
    for pid in leftover:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + 10.0
    for pid in leftover:
        try:
            os.waitpid(pid, 0)
            continue
        except ChildProcessError:
            pass  # not our child: its own parent reaps it
        while running(pid) and time.monotonic() < deadline:
            time.sleep(0.01)
