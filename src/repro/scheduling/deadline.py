"""Scheduling under a deadline constraint (Algorithm 1, §V-A).

Single-processor, serial execution, per-item time budget ``Btime``.  The
cost-Q greedy scheduler re-predicts Q values after every execution and
picks the affordable model maximizing ``Q(m | state) / m.time`` — the
cost-profit greedy rule with the DRL prediction standing in for the unknown
profit.

This module also provides the baselines of Fig. 10: the cost-oblivious
Q-greedy, the random-under-deadline policy, and the relaxed optimal* of
§V-C (fractional last model) — a reference value, not an upper bound.
"""

from __future__ import annotations

from collections.abc import Sequence
from time import perf_counter

import numpy as np

from repro.core.evaluation import marginal_gain
from repro.core.state import LabelingState
from repro.obs.instrument import batch_observer
from repro.scheduling.base import (
    TOLERANCE,
    ScheduleTrace,
    execute_serially,
)
from repro.scheduling.batch import BatchState
from repro.scheduling.qgreedy import BatchPredictions, QValuePredictor
from repro.zoo.oracle import GroundTruth


class CostQGreedyScheduler:
    """Algorithm 1: cost-Q greedy scheduling under a deadline.

    :meth:`schedule` is the serial reference (one item, one prediction
    per step); :meth:`schedule_batch` is the vectorized dispatch tick the
    engine backends use — one stacked prediction and one masked-argmax
    selection per round across every in-flight item, trace-identical per
    item.
    """

    name = "cost_q_greedy"

    def __init__(self, predictor: QValuePredictor):
        self.predictor = predictor

    def schedule(
        self, truth: GroundTruth, item_id: str, time_budget: float
    ) -> ScheduleTrace:
        """Run the predict-filter-select loop until the budget is spent."""
        if time_budget < 0:
            raise ValueError("time_budget must be non-negative")
        state = LabelingState(truth, item_id)
        trace = ScheduleTrace(item_id=item_id, total_value=truth.total_value(item_id))
        times = truth.zoo.times
        clock = 0.0
        budget = time_budget
        while budget > 0 and not state.all_executed:
            remaining = state.remaining
            affordable = remaining[times[remaining] <= budget + TOLERANCE]
            if len(affordable) == 0:
                break
            q = self.predictor.predict(state)
            ratios = q[affordable] / times[affordable]
            best = int(affordable[np.argmax(ratios)])
            clock = execute_serially(state, trace, truth, best, clock)
            budget -= float(times[best])
        return trace

    def schedule_batch(
        self,
        truth: GroundTruth,
        item_ids: Sequence[str],
        time_budget: float,
    ) -> list[ScheduleTrace]:
        """Algorithm 1 over many items in vectorized lock-step rounds.

        Each round issues at most **one** ``predict_batch`` call for the
        in-flight items that can still afford a model (see
        :class:`~repro.scheduling.qgreedy.BatchPredictions`) and selects
        per item by masking the ``(B, n_models)`` ratio matrix
        ``Q / time`` with the combined remaining+affordability boolean
        mask and taking a row-wise argmax.  Ratios are the same
        elementwise divisions the serial loop computes on its affordable
        subset and ``argmax`` keeps first-index tie-breaking, so per-item
        traces replay :meth:`schedule` exactly (stacked-forward ULP
        caveat aside, see :class:`~repro.engine.backends.BatchedBackend`).
        An item leaves the batch when its serial stop condition fires:
        budget spent, no affordable model left, or all models executed.
        """
        if time_budget < 0:
            raise ValueError("time_budget must be non-negative")
        times = truth.zoo.times
        batch = BatchState(truth, item_ids)
        predict = BatchPredictions(self.predictor, batch)
        budgets = np.full(len(batch), float(time_budget))
        active = np.flatnonzero((budgets > 0) & ~batch.executed.all(axis=1))
        # None unless obs instrumentation is installed; the bare path pays
        # one branch per round and no timing calls.
        observer = batch_observer("deadline", len(item_ids))
        while len(active):
            if observer is not None:
                tick_started = perf_counter()
            affordable = times[None, :] <= budgets[active, None] + TOLERANCE
            mask = ~batch.executed[active] & affordable
            # The serial loop stops before predicting when nothing is
            # affordable; those items leave the batch here.
            selectable = mask.any(axis=1)
            active, mask = active[selectable], mask[selectable]
            if not len(active):
                break
            q_batch = predict(active)
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios = np.where(mask, q_batch / times[None, :], -np.inf)
            picks = np.argmax(ratios, axis=1)
            batch.execute_serially(active, picks)
            budgets[active] -= times[picks]
            selected = len(active)
            active = active[(budgets[active] > 0) & ~batch.executed[active].all(axis=1)]
            if observer is not None:
                observer.tick(perf_counter() - tick_started, selected)
        if observer is not None:
            observer.done()
        return batch.traces()


class QGreedyDeadlineScheduler:
    """Fig. 10's "Q Greedy": max-Q selection until the deadline.

    Cost-oblivious — it may start a model that cannot finish within the
    budget, in which case the execution is wasted (its value does not count
    by the deadline), exactly the failure mode Algorithm 1 avoids.
    """

    name = "q_greedy_deadline"

    def __init__(self, predictor: QValuePredictor):
        self.predictor = predictor

    def schedule(
        self, truth: GroundTruth, item_id: str, time_budget: float
    ) -> ScheduleTrace:
        state = LabelingState(truth, item_id)
        trace = ScheduleTrace(item_id=item_id, total_value=truth.total_value(item_id))
        clock = 0.0
        while clock < time_budget and not state.all_executed:
            remaining = state.remaining
            q = self.predictor.predict(state)
            best = int(remaining[np.argmax(q[remaining])])
            clock = execute_serially(state, trace, truth, best, clock)
        return trace


class RandomDeadlineScheduler:
    """The paper's Fig. 10 random baseline: "randomly selects model until
    the deadline".

    Deliberately cost-oblivious: it keeps drawing random models while the
    clock is before the deadline, so its last pick typically overshoots and
    contributes nothing by the deadline — exactly the waste Algorithm 1's
    affordability filter avoids.  Evaluate with ``trace.recall_by(budget)``.
    """

    name = "random_deadline"

    def __init__(self, seed: int = 0):
        self._rng = np.random.default_rng(seed)

    def schedule(
        self, truth: GroundTruth, item_id: str, time_budget: float
    ) -> ScheduleTrace:
        state = LabelingState(truth, item_id)
        trace = ScheduleTrace(item_id=item_id, total_value=truth.total_value(item_id))
        clock = 0.0
        while clock < time_budget and not state.all_executed:
            remaining = state.remaining
            best = int(remaining[self._rng.integers(len(remaining))])
            clock = execute_serially(state, trace, truth, best, clock)
        return trace


class RelaxedOptimalDeadline:
    """The relaxed optimal* of §V-C for the deadline constraint.

    Greedy on the true marginal gain per unit time; when the remaining
    budget cannot fit the selected model, the model still contributes the
    corresponding *proportion* of its marginal value (relaxation), after
    which scheduling stops.

    This is **not** an upper bound on exact schedules.  The fractional
    last model bounds the fractional knapsack only when values add up;
    label value is a coverage function, so greedy's early picks shrink
    later gains and a different exact set can collect more.  Three
    half-budget models with labels ``{0, 1}``, ``{0, 2}``, ``{1, 3}``
    give optimal* 3 (the first two) while the last two reach 4, and
    Algorithm 1 driven by Q values that prefer them reaches 4 as well
    (pinned in ``tests/test_deadline_scheduling.py``).  ``ours /
    optimal*`` can therefore exceed 1;
    :func:`~repro.analysis.metrics.performance_ratio` caps it there.
    """

    name = "optimal_star_deadline"

    def value(self, truth: GroundTruth, item_id: str, time_budget: float) -> float:
        state = LabelingState(truth, item_id)
        times = truth.zoo.times
        budget = time_budget
        value = 0.0
        while budget > 0 and not state.all_executed:
            remaining = state.remaining
            gains = np.asarray(
                [
                    marginal_gain(truth, item_id, state.confidences, int(j))
                    for j in remaining
                ]
            )
            ratios = gains / times[remaining]
            pick = int(np.argmax(ratios))
            best = int(remaining[pick])
            gain = float(gains[pick])
            if gain <= 0:
                break
            cost = float(times[best])
            if cost <= budget + 1e-9:
                state.execute(best)
                value += gain
                budget -= cost
            else:
                value += gain * (budget / cost)
                budget = 0.0
        return value

    def recall(self, truth: GroundTruth, item_id: str, time_budget: float) -> float:
        total = truth.total_value(item_id)
        if total <= 0:
            return 1.0
        return self.value(truth, item_id, time_budget) / total
