"""Scheduling under deadline + memory constraints (Algorithm 2, §V-B).

Multi-processor, shared-memory setting: several models may run in parallel
as long as their summed memory stays within ``Bmem``; the whole schedule
must finish within ``Btime``.  The heuristic per the paper:

1. among affordable models, pick the pivot maximizing
   ``Q / (time * mem)`` — the best value per unit resource *area*;
2. set the pivot's finish time as a temporary deadline and greedily pack
   models maximizing ``Q / mem`` that fit the remaining memory (and the
   temporary deadline);
3. when any running model finishes, release its memory, update the labeling
   state with its output, and re-enter the loop with fresh Q predictions.

Execution is simulated event-drive: outputs are revealed at a model's
*finish* time, and only executions finishing within the deadline count
towards the value (recall) metrics.
"""

from __future__ import annotations

import heapq
from collections.abc import Sequence
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from repro.core.evaluation import marginal_gain
from repro.core.state import LabelingState
from repro.obs.instrument import batch_observer
from repro.scheduling.base import ScheduledExecution, ScheduleTrace
from repro.scheduling.batch import BatchState
from repro.scheduling.qgreedy import BatchPredictions, QValuePredictor
from repro.zoo.model import ModelZoo
from repro.zoo.oracle import GroundTruth


@dataclass(order=True)
class _Running:
    finish_time: float
    model_index: int
    #: Exact start instant (kept explicitly: recomputing it as
    #: ``finish - time`` loses float precision and breaks the invariant
    #: that a model starting the instant another finishes reuses its memory).
    start_time: float = 0.0


class _ParallelClock:
    """Clock, free memory and running models of one parallel simulation."""

    def __init__(
        self,
        zoo: ModelZoo,
        memory_budget: float,
        startable: np.ndarray | None = None,
    ):
        self.zoo = zoo
        self.clock = 0.0
        self.free_mem = memory_budget
        self.heap: list[_Running] = []
        #: Models never started (so neither running nor finished).
        #: :meth:`start` clears a bit; nothing ever rescans the heap.
        self.startable_mask = (
            np.ones(len(zoo), dtype=bool) if startable is None else startable
        )

    @property
    def startable(self) -> np.ndarray:
        """Models neither finished nor currently running (indices)."""
        return self.startable_mask.nonzero()[0]

    def start(self, index: int) -> None:
        model = self.zoo[index]
        if model.mem > self.free_mem + 1e-9:
            raise RuntimeError(f"model {model.name} does not fit in memory")
        self.free_mem -= model.mem
        self.startable_mask[index] = False
        heapq.heappush(
            self.heap,
            _Running(self.clock + model.time, index, start_time=self.clock),
        )

    def pop_next(self) -> _Running:
        """Advance the clock to the next completion and release its memory."""
        running = heapq.heappop(self.heap)
        self.free_mem += self.zoo[running.model_index].mem
        self.clock = running.finish_time
        return running


class _ParallelSim(_ParallelClock):
    """A parallel simulation that owns its item's state and trace."""

    def __init__(self, truth: GroundTruth, item_id: str, memory_budget: float):
        super().__init__(truth.zoo, memory_budget)
        self.state = LabelingState(truth, item_id)
        self.trace = ScheduleTrace(
            item_id=item_id, total_value=truth.total_value(item_id)
        )

    def finish_next(self) -> None:
        """Advance to the next completion and record its output."""
        running = self.pop_next()
        index = running.model_index
        before = self.state.value
        _, new_confs = self.state.execute(index)
        self.trace.executions.append(
            ScheduledExecution(
                model_index=index,
                model_name=self.zoo[index].name,
                start_time=running.start_time,
                finish_time=running.finish_time,
                marginal_value=self.state.value - before,
                new_labels=len(new_confs),
            )
        )


class MemoryDeadlineScheduler:
    """Algorithm 2: the two-dimension cost-Q heuristic.

    :meth:`schedule` is the serial reference; :meth:`schedule_batch`
    vectorizes the greedy core across items — one stacked prediction per
    simulation round and a masked-argmax pivot selection over the
    ``(B, n_models)`` score matrix — while the per-item memory-packing
    fill loop stays sequential (each fill changes that item's free
    memory).  Traces are identical per item.
    """

    name = "memory_deadline"

    def __init__(self, predictor: QValuePredictor):
        self.predictor = predictor

    def _fill(
        self,
        sim: _ParallelSim,
        q: np.ndarray,
        times: np.ndarray,
        mems: np.ndarray,
        fill_deadlines: tuple[float, float],
    ) -> int:
        """The memory-packing fill passes shared by both schedule paths.

        Fill remaining memory: best value per unit memory among models
        finishing within the temporary (pivot) deadline (Algorithm 2
        line 7), then — refinement over the pseudocode — a second pass
        bounded by the global deadline, so leftover memory is not idled
        when only longer-than-pivot models remain.  Returns how many
        models the passes started.
        """
        started = 0
        for fill_deadline in fill_deadlines:
            while True:
                candidates = sim.startable
                fill = candidates[
                    (mems[candidates] <= sim.free_mem + 1e-9)
                    & (sim.clock + times[candidates] <= fill_deadline + 1e-9)
                ]
                if len(fill) == 0:
                    break
                chosen = int(fill[np.argmax(q[fill] / mems[fill])])
                sim.start(chosen)
                started += 1
        return started

    def schedule(
        self,
        truth: GroundTruth,
        item_id: str,
        time_budget: float,
        memory_budget: float,
    ) -> ScheduleTrace:
        if time_budget < 0 or memory_budget < 0:
            raise ValueError("budgets must be non-negative")
        sim = _ParallelSim(truth, item_id, memory_budget)
        times = truth.zoo.times
        mems = truth.zoo.mems

        while sim.clock < time_budget:
            candidates = sim.startable
            if len(candidates) == 0 and not sim.heap:
                break
            q = self.predictor.predict(sim.state)

            # Pivot: best value per unit (time x memory) area among models
            # that fit free memory (Algorithm 2 line 3) and can still finish
            # before the deadline.  The deadline part is our addition in the
            # spirit of Algorithm 1's line 3 — without it the last pivot
            # wave is pure waste; the random baseline deliberately keeps the
            # paper's waste (see RandomMemoryDeadlineScheduler).
            fits = candidates[
                (mems[candidates] <= sim.free_mem + 1e-9)
                & (sim.clock + times[candidates] <= time_budget + 1e-9)
            ]
            if len(fits) > 0:
                areas = times[fits] * mems[fits]
                pivot = int(fits[np.argmax(q[fits] / areas)])
                sim.start(pivot)
                temp_deadline = sim.clock + float(times[pivot])
                self._fill(sim, q, times, mems, (temp_deadline, time_budget))
            if not sim.heap:
                break
            # Wait for one completion; its output updates the state.
            sim.finish_next()

        # Drain everything still running; recall_by(deadline) discounts
        # executions that finish past the deadline.
        while sim.heap:
            sim.finish_next()
        return sim.trace

    def schedule_batch(
        self,
        truth: GroundTruth,
        item_ids: Sequence[str],
        time_budget: float,
        memory_budget: float,
    ) -> list[ScheduleTrace]:
        """Algorithm 2 over many items in vectorized lock-step rounds.

        Round ``k`` of the batch is iteration ``k`` of each item's serial
        simulation loop (each iteration starts a pivot wave and retires
        one completion), so the states predicted each round are exactly
        the states the serial loop would have predicted on — at most
        **one** ``predict_batch`` call per round (see
        :class:`~repro.scheduling.qgreedy.BatchPredictions`) instead of
        one ``predict`` per item per round.  Pivot selection is a masked
        argmax over the ``(B, n_models)`` matrix ``Q / (time × mem)``
        with the combined startable/memory-fit/deadline-fit boolean
        mask; the fill passes then replay serially per item (each start
        consumes that item's free memory).  The round's completions
        update the labeling states together, after every item's fill:
        a completion changes only its own item's labels, which that
        item's fill has already finished reading.  An item leaves the
        batch when its serial loop would exit; its still-running models
        drain exactly as in :meth:`schedule`.
        """
        if time_budget < 0 or memory_budget < 0:
            raise ValueError("budgets must be non-negative")
        times = truth.zoo.times
        mems = truth.zoo.mems
        areas = times * mems
        batch = BatchState(truth, item_ids)
        predict = BatchPredictions(self.predictor, batch)
        startable = np.ones_like(batch.executed)
        sims = [
            _ParallelClock(truth.zoo, memory_budget, startable[row])
            for row in range(len(batch))
        ]

        def continues(sim: _ParallelClock) -> bool:
            """The serial loop's entry condition (top-of-loop checks)."""
            if not sim.clock < time_budget:
                return False
            return bool(sim.startable_mask.any()) or bool(sim.heap)

        def finish(rows: list[int]) -> None:
            """Retire the next completion of every row in ``rows``."""
            if not rows:
                return
            done = [sims[row].pop_next() for row in rows]
            batch.execute(
                np.asarray(rows, dtype=np.int64),
                np.asarray([r.model_index for r in done], dtype=np.int64),
                np.asarray([r.start_time for r in done]),
                np.asarray([r.finish_time for r in done]),
            )

        active = [row for row, sim in enumerate(sims) if continues(sim)]
        # None unless obs instrumentation is installed; the bare path pays
        # one branch per round and no timing calls.
        observer = batch_observer("deadline_memory", len(item_ids))
        while active:
            if observer is not None:
                tick_started = perf_counter()
            rows = np.asarray(active)
            q_batch = predict(rows)
            free = np.asarray([sims[row].free_mem for row in active])
            clocks = np.asarray([sims[row].clock for row in active])
            # Pivot: best value per unit (time x memory) area among models
            # that fit free memory and can still finish before the deadline
            # — the same filter as the serial loop, as (B, n_models) masks.
            fits = (
                startable[rows]
                & (mems[None, :] <= free[:, None] + 1e-9)
                & (clocks[:, None] + times[None, :] <= time_budget + 1e-9)
            )
            with np.errstate(divide="ignore", invalid="ignore"):
                scores = np.where(fits, q_batch / areas[None, :], -np.inf)
            pivots = np.argmax(scores, axis=1)
            has_pivot = fits.any(axis=1)
            started = 0
            finishing = []
            for k, row in enumerate(active):
                sim = sims[row]
                if has_pivot[k]:
                    pivot = int(pivots[k])
                    sim.start(pivot)
                    temp_deadline = sim.clock + float(times[pivot])
                    started += 1 + self._fill(
                        sim,
                        q_batch[k],
                        times,
                        mems,
                        (temp_deadline, time_budget),
                    )
                if sim.heap:
                    finishing.append(row)
            finish(finishing)
            active = [row for row in finishing if continues(sims[row])]
            if observer is not None:
                observer.tick(perf_counter() - tick_started, started)
        if observer is not None:
            observer.done()

        # Drain everything still running, one completion per item a pass.
        draining = [row for row, sim in enumerate(sims) if sim.heap]
        while draining:
            finish(draining)
            draining = [row for row in draining if sims[row].heap]
        return batch.traces()


class RandomMemoryDeadlineScheduler:
    """Fig. 11 baseline: "randomly selects model that could be packed into
    GPU to execute until the deadline".

    Packing checks memory only (like the paper's random baseline) — the
    last wave of models typically straddles the deadline and contributes
    nothing by it.  Evaluate with ``trace.recall_by(budget)``.
    """

    name = "random_memory_deadline"

    def __init__(self, seed: int = 0):
        self._rng = np.random.default_rng(seed)

    def schedule(
        self,
        truth: GroundTruth,
        item_id: str,
        time_budget: float,
        memory_budget: float,
    ) -> ScheduleTrace:
        sim = _ParallelSim(truth, item_id, memory_budget)
        mems = truth.zoo.mems
        while sim.clock < time_budget:
            while True:
                candidates = sim.startable
                fits = candidates[mems[candidates] <= sim.free_mem + 1e-9]
                if len(fits) == 0:
                    break
                sim.start(int(fits[self._rng.integers(len(fits))]))
            if not sim.heap:
                break
            sim.finish_next()
        while sim.heap:
            sim.finish_next()
        return sim.trace


class RelaxedOptimalMemoryDeadline:
    """Relaxed optimal* for the two-dimension constraint (§V-C).

    Greedy on true marginal gain per unit (time x memory) area with the
    relaxation that the last selected model may contribute a proportional
    fraction of its value.  The relaxation also drops the packing
    feasibility question (any fractional area fits).

    Like :class:`~repro.scheduling.deadline.RelaxedOptimalDeadline` this
    is **not** an upper bound on feasible schedules: label value is a
    coverage function, so greedy's first pick can shrink the gains of the
    models an exact schedule would combine.  With one model's memory as
    the budget the parallel setting degenerates to the serial
    counterexample documented there (pinned in
    ``tests/test_deadline_scheduling.py``).
    """

    name = "optimal_star_memory"

    def value(
        self,
        truth: GroundTruth,
        item_id: str,
        time_budget: float,
        memory_budget: float,
    ) -> float:
        state = LabelingState(truth, item_id)
        times = truth.zoo.times
        mems = truth.zoo.mems
        # Total resource area available (relaxed packing).
        area_budget = time_budget * memory_budget
        value = 0.0
        while area_budget > 0 and not state.all_executed:
            remaining = state.remaining
            gains = np.asarray(
                [
                    marginal_gain(truth, item_id, state.confidences, int(j))
                    for j in remaining
                ]
            )
            areas = times[remaining] * mems[remaining]
            pick = int(np.argmax(gains / areas))
            gain = float(gains[pick])
            if gain <= 0:
                break
            area = float(areas[pick])
            if area <= area_budget + 1e-9:
                state.execute(int(remaining[pick]))
                value += gain
                area_budget -= area
            else:
                value += gain * (area_budget / area)
                area_budget = 0.0
        return value

    def recall(
        self,
        truth: GroundTruth,
        item_id: str,
        time_budget: float,
        memory_budget: float,
    ) -> float:
        total = truth.total_value(item_id)
        if total <= 0:
            return 1.0
        return self.value(truth, item_id, time_budget, memory_budget) / total
