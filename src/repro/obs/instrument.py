"""Dispatch-tick instrumentation: the hooks the hot path actually calls.

The vectorized ``schedule_batch`` dispatch tick is the system's hot loop
— one stacked Q-forward plus a masked argmax per round — and the engine's
``_run_batch`` wraps every backend dispatch.  Both ask this module for an
observer; when nothing is installed the answer is ``None`` and the hot
path pays exactly one module-global read and one branch, with **zero**
timing calls — that near-free bare path is what lets the overhead
benchmark compare instrumented against uninstrumented dispatch honestly.

:func:`install` binds a :class:`TickInstrumentation` to a
:class:`~repro.obs.registry.MetricsRegistry`; from then on every
schedule tick records, per regime:

* ``repro_sched_tick_seconds``        — per-round tick duration (summary)
* ``repro_sched_rounds_total``        — rounds (at most one stacked Q-forward each)
* ``repro_sched_models_executed_total`` — model executions selected
* ``repro_sched_batches_total`` / ``repro_sched_batch_items_total``

and every engine dispatch records, per backend and regime:

* ``repro_engine_batches_total`` / ``repro_engine_items_total``
* ``repro_engine_batch_seconds``      — whole-dispatch duration (summary)

A :class:`BatchTickObserver` accumulates locally (plain attribute adds on
an object owned by one thread) and flushes into the registry **once** per
batch in :meth:`~BatchTickObserver.done`, so per-round cost inside the
lock-step loop is two ``perf_counter`` calls and a couple of adds.

Installation is process-global on purpose: schedulers are constructed
ad hoc deep inside backends, so threading a registry handle through every
call chain would touch a dozen signatures for the same effect.  Workers
of the process backend run in *other* processes and are therefore not
covered by these hooks — their timings arrive via the backend's
``chunk_stats``, exported by the serving bridge.
"""

from __future__ import annotations

import threading

from repro.obs.registry import MetricsRegistry

__all__ = [
    "BatchTickObserver",
    "TickInstrumentation",
    "batch_observer",
    "engine_observer",
    "install",
    "installed",
    "uninstall",
]

_LOCK = threading.Lock()
_ACTIVE: "TickInstrumentation | None" = None


class TickInstrumentation:
    """The registry-bound sink for scheduler-tick and engine-batch events."""

    def __init__(self, registry: MetricsRegistry):
        self.registry = registry
        self._tick_seconds = registry.histogram(
            "repro_sched_tick_seconds",
            "Duration of one vectorized dispatch-tick round",
            labelnames=("regime",),
        )
        self._rounds = registry.counter(
            "repro_sched_rounds_total",
            "Dispatch-tick rounds run (at most one stacked Q-forward each)",
            labelnames=("regime",),
        )
        self._models = registry.counter(
            "repro_sched_models_executed_total",
            "Model executions selected by dispatch ticks",
            labelnames=("regime",),
        )
        self._batches = registry.counter(
            "repro_sched_batches_total",
            "Vectorized schedule_batch calls",
            labelnames=("regime",),
        )
        self._batch_items = registry.counter(
            "repro_sched_batch_items_total",
            "Items entering schedule_batch calls",
            labelnames=("regime",),
        )
        self._engine_batches = registry.counter(
            "repro_engine_batches_total",
            "Engine batch dispatches",
            labelnames=("backend", "regime"),
        )
        self._engine_items = registry.counter(
            "repro_engine_items_total",
            "Items dispatched through the engine",
            labelnames=("backend", "regime"),
        )
        self._engine_seconds = registry.histogram(
            "repro_engine_batch_seconds",
            "Wall seconds per engine batch dispatch (record+schedule)",
            labelnames=("backend", "regime"),
        )
        # Child series per label combination, resolved once: a batch
        # folds in at a fixed cost that a fast tick must not feel.
        self._batch_series: dict[str, tuple] = {}
        self._engine_series: dict[tuple[str, str], tuple] = {}

    def observe_batch(
        self, regime: str, items: int, rounds: int, executed: int, ticks
    ) -> None:
        """Fold one finished schedule_batch into the registry."""
        series = self._batch_series.get(regime)
        if series is None:
            series = self._batch_series[regime] = tuple(
                family.labels(regime=regime)
                for family in (
                    self._batches,
                    self._batch_items,
                    self._rounds,
                    self._models,
                    self._tick_seconds,
                )
            )
        batches, batch_items, rounds_total, models, hist = series
        batches.inc()
        batch_items.inc(items)
        rounds_total.inc(rounds)
        models.inc(executed)
        hist.observe_many(ticks)

    def observe_engine(
        self, backend: str, regime: str, items: int, seconds: float
    ) -> None:
        series = self._engine_series.get((backend, regime))
        if series is None:
            series = self._engine_series[backend, regime] = tuple(
                family.labels(backend=backend, regime=regime)
                for family in (
                    self._engine_batches,
                    self._engine_items,
                    self._engine_seconds,
                )
            )
        batches, engine_items, engine_seconds = series
        batches.inc()
        engine_items.inc(items)
        engine_seconds.observe(seconds)


class BatchTickObserver:
    """Per-call accumulator handed to one schedule_batch invocation.

    Owned by the calling thread — plain attribute math, no locks — and
    flushed into the shared registry exactly once, in :meth:`done`.
    """

    __slots__ = ("_sink", "regime", "items", "rounds", "executed", "ticks")

    def __init__(self, sink: TickInstrumentation, regime: str, items: int):
        self._sink = sink
        self.regime = regime
        self.items = items
        self.rounds = 0
        self.executed = 0
        self.ticks: list[float] = []

    def tick(self, seconds: float, executed: int) -> None:
        """Record one lock-step round: its duration and selections made."""
        self.rounds += 1
        self.executed += executed
        self.ticks.append(seconds)

    def done(self) -> None:
        self._sink.observe_batch(
            self.regime, self.items, self.rounds, self.executed, self.ticks
        )


def install(registry: MetricsRegistry) -> TickInstrumentation:
    """Route dispatch-tick telemetry into ``registry`` (process-global).

    Idempotent for the same registry; installing over a different one
    replaces it (last writer wins — a test or bench tearing down should
    call :func:`uninstall`).
    """
    global _ACTIVE
    with _LOCK:
        if _ACTIVE is None or _ACTIVE.registry is not registry:
            _ACTIVE = TickInstrumentation(registry)
        return _ACTIVE


def uninstall() -> None:
    """Return dispatch paths to the zero-cost uninstrumented state."""
    global _ACTIVE
    with _LOCK:
        _ACTIVE = None


def installed() -> TickInstrumentation | None:
    """The active instrumentation, or ``None`` (the bare-path signal)."""
    return _ACTIVE


def batch_observer(regime: str, items: int) -> BatchTickObserver | None:
    """What a schedule_batch call asks for at entry: its observer or None."""
    active = _ACTIVE
    if active is None:
        return None
    return BatchTickObserver(active, regime, items)


def engine_observer() -> TickInstrumentation | None:
    """The engine's per-dispatch hook (None when uninstrumented)."""
    return _ACTIVE
