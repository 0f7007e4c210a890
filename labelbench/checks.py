"""Output checks that fail the run.

Every result is reduced to its ``(item_id, regime)`` pair and the sequence
of models it executed.  A run is correct only when:

* all results for one pair agree, across phases and backends;
* results computed outside the bench process (process and cluster
  workers, the gateway child) equal an in-process ``batched`` reference;
* ``deadline`` traces keep ``serial_time`` within the deadline and
  ``deadline_memory`` traces keep their ``makespan`` within it;
* no trace's ``value_obtained`` exceeds a provable upper bound for its
  regime: the item's total value, and for the budgeted regimes the
  fractional-knapsack bound over the models' solo values (see
  :func:`knapsack_bound`).

The repository's ``RelaxedOptimal*`` greedy values are also compared, but
only counted: the deadline one is exceeded by real traces, so it is not
an upper bound (greedy on marginal gains is not one for a submodular
value), and gating on it would fail correct runs.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
from repro.scheduling.base import TOLERANCE
from repro.scheduling.deadline import RelaxedOptimalDeadline
from repro.scheduling.deadline_memory import RelaxedOptimalMemoryDeadline

from labelbench.world import REGIMES


def knapsack_bound(truth, item_id: str, regime: str) -> float:
    """An upper bound on any feasible schedule's value for one item.

    A set of models is worth at most the sum of their solo values (a label
    counts once, at its best confidence), so the fractional knapsack over
    solo values bounds every set whose cost fits the budget: serial time
    within the deadline for ``deadline``, time x memory area within
    deadline x memory budget for ``deadline_memory`` (a parallel schedule
    holds each model's memory for its whole run).  Never above the item's
    total value.
    """
    total = truth.total_value(item_id)
    spec = REGIMES[regime]
    if regime == "qgreedy":
        return total
    zoo = truth.zoo
    values = np.asarray(truth.solo_values(item_id), dtype=np.float64)
    costs = np.asarray(zoo.times, dtype=np.float64)
    budget = spec.deadline
    if regime == "deadline_memory":
        costs = costs * np.asarray(zoo.mems, dtype=np.float64)
        budget = spec.deadline * spec.memory_budget
    bound = 0.0
    for j in np.argsort(-(values / costs), kind="stable"):
        if budget <= 0 or values[j] <= 0:
            break
        take = min(1.0, budget / costs[j])
        bound += take * values[j]
        budget -= take * costs[j]
    return min(bound, total)


def relaxed_bound(truth, item_id: str, regime: str) -> float:
    spec = REGIMES[regime]
    if regime == "deadline":
        return RelaxedOptimalDeadline().value(truth, item_id, spec.deadline)
    if regime == "deadline_memory":
        return RelaxedOptimalMemoryDeadline().value(
            truth, item_id, spec.deadline, spec.memory_budget
        )
    return truth.total_value(item_id)


class OutputChecks:
    """Collects results and request outcomes; ``failures`` lists violations."""

    def __init__(self):
        self.sequences: dict[tuple[str, str], tuple[str, ...]] = {}
        #: One trace per pair, for the contract and bound checks.
        self.traces: dict[tuple[str, str], object] = {}
        self.recalls: dict[tuple[str, str], float] = {}
        self.sent: Counter = Counter()
        self.succeeded: Counter = Counter()
        self.failed: Counter = Counter()
        self.failures: list[str] = []
        #: Pairs whose value exceeded the repository's relaxed-optimal value.
        self.relaxed_exceeded = 0

    def fail(self, message: str) -> None:
        if len(self.failures) < 20:
            self.failures.append(message)
        else:
            self.failures[-1] = f"... and more ({message})"

    # -- request accounting --------------------------------------------------

    def outcome(self, phase: str, ok: bool, count: int = 1) -> None:
        self.sent[phase] += count
        (self.succeeded if ok else self.failed)[phase] += count

    @property
    def attempted(self) -> int:
        return sum(self.sent.values())

    @property
    def ok_share(self) -> float:
        return sum(self.succeeded.values()) / self.attempted if self.attempted else 0.0

    # -- results -------------------------------------------------------------

    def sequence(self, regime: str, item_id: str, models, source: str) -> None:
        """Record one result's executed-model sequence."""
        key = (item_id, regime)
        models = tuple(models)
        seen = self.sequences.setdefault(key, models)
        if seen != models:
            self.fail(
                f"{source}: {item_id} under {regime} executed {list(models)}, "
                f"earlier results executed {list(seen)}"
            )

    def trace(self, regime: str, trace, source: str) -> None:
        """Record an in-process trace (the reference for remote results)."""
        self.sequence(
            regime, trace.item_id, (e.model_name for e in trace.executions), source
        )
        key = (trace.item_id, regime)
        if key not in self.traces:
            self.traces[key] = trace
            self.recalls[key] = trace.recall

    def verify(self, truth) -> None:
        """Regime contracts and value bounds over every distinct pair seen."""
        for (item_id, regime), trace in self.traces.items():
            spec = REGIMES[regime]
            if regime == "deadline" and trace.serial_time > spec.deadline + TOLERANCE:
                self.fail(f"{item_id}: deadline serial_time {trace.serial_time}")
            if (
                regime == "deadline_memory"
                and trace.makespan > spec.deadline + TOLERANCE
            ):
                self.fail(f"{item_id}: deadline_memory makespan {trace.makespan}")
            bound = knapsack_bound(truth, item_id, regime)
            if trace.value_obtained > bound + 1e-6:
                self.fail(
                    f"{item_id} under {regime}: value {trace.value_obtained} "
                    f"exceeds the upper bound {bound}"
                )
            if trace.value_obtained > relaxed_bound(truth, item_id, regime) + 1e-6:
                self.relaxed_exceeded += 1
        unreferenced = set(self.sequences) - set(self.traces)
        if unreferenced:
            self.fail(
                f"{len(unreferenced)} remote result(s) without an in-process "
                f"reference, e.g. {sorted(unreferenced)[0]}"
            )

    @property
    def recall_mean(self) -> float:
        """Mean recall over the distinct (item, regime) pairs labeled."""
        values = [self.recalls[key] for key in sorted(self.recalls)]
        return sum(values) / len(values) if values else 0.0

    @property
    def correct(self) -> bool:
        return not self.failures
