"""Traced wrappers: per-layer spans recorded from outside the program.

Each wrapper is handed to the program through a public constructor
argument and records a span around the call it wraps:

=====================  ==========================  ====================
wrapper                handed in as                span
=====================  ==========================  ====================
``TracedPredictor``    ``LabelingEngine(predictor)``  ``rl.forward``
``traced_backend()``   ``LabelingEngine(backend=)``   ``backend.run``
``TracedEngine``       ``LabelingService(engine)``    ``engine.label_batch``
``TracedTruth``        ``truth=``                     ``zoo.record``
``TracedJournal``      ``journal=``                   ``journal.*``
=====================  ==========================  ====================

Spans are kept in memory; parents are tracked per thread, so a span's
children are exactly the spans its call made.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field

from repro import GroundTruth, LabelingEngine
from repro.durability.journal import Journal
from repro.scheduling.qgreedy import AgentPredictor

from labelbench.measure import self_time


@dataclass(eq=False)
class Span:
    name: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)
    parent: "Span | None" = None
    children: list["Span"] = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self_time(
            self.start, self.end, [(c.start, c.end) for c in self.children]
        )


class Tracer:
    """In-memory span store with per-thread parent tracking.

    While ``enabled`` is false, :meth:`span` records nothing and yields
    ``None``, so one set of wrapped objects serves the untraced and the
    traced phase of a run.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.enabled = False
        self._local = threading.local()

    def span(self, name: str, **attrs):
        if not self.enabled:
            return nullcontext()
        return self._span(name, attrs)

    @contextmanager
    def _span(self, name: str, attrs: dict):
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        record = Span(name, time.perf_counter(), attrs=attrs, parent=parent)
        stack.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            stack.pop()
            if parent is not None:
                parent.children.append(record)
            self.spans.append(record)  # list.append is atomic under the GIL

    def named(self, name: str) -> list[Span]:
        return [span for span in self.spans if span.name == name]


class TracedPredictor(AgentPredictor):
    def __init__(self, agent, n_models: int, tracer: Tracer):
        super().__init__(agent, n_models)
        self.tracer = tracer

    def predict_batch(self, states):
        with self.tracer.span("rl.forward", rows=len(states)):
            return super().predict_batch(states)


class _TracedRun:
    """Mixin timing ``ExecutionBackend.run``; set ``tracer`` after building."""

    tracer: Tracer

    def run(self, job, predictor):
        with self.tracer.span(
            "backend.run",
            backend=self.name,
            regime=job.spec.regime,
            items=len(job.item_ids),
        ) as span:
            traces = super().run(job, predictor)
            if span is not None:
                span.attrs["traces"] = traces
            return traces


def traced_backend(backend_cls, tracer: Tracer, **kwargs):
    """An instance of ``backend_cls`` whose ``run`` records spans."""
    cls = type(f"Traced{backend_cls.__name__}", (_TracedRun, backend_cls), {})
    backend = cls(**kwargs)
    backend.tracer = tracer
    return backend


class TracedEngine(LabelingEngine):
    def __init__(self, *args, tracer: Tracer, **kwargs):
        super().__init__(*args, **kwargs)
        self.tracer = tracer

    def label_batch(self, items, spec, **kwargs):
        items = list(items)
        with self.tracer.span(
            "engine.label_batch", items=len(items), regime=spec.regime
        ):
            return super().label_batch(items, spec, **kwargs)


class TracedTruth(GroundTruth):
    """Ground truth whose recording calls are spans (set ``tracer``)."""

    tracer: Tracer = Tracer()  # disabled until a run hands in its own

    def record_batch(self, items):
        with self.tracer.span("zoo.record"):
            return super().record_batch(items)


class TracedJournal(Journal):
    def __init__(self, directory, *, tracer: Tracer, **kwargs):
        super().__init__(directory, **kwargs)
        self.tracer = tracer

    def log_admission(self, item, spec, deadline=None):
        with self.tracer.span("journal.append"):
            return super().log_admission(item, spec, deadline)

    def log_terminal(self, seq, status):
        with self.tracer.span("journal.append"):
            return super().log_terminal(seq, status)

    def flush(self):
        with self.tracer.span("journal.flush"):
            return super().flush()
