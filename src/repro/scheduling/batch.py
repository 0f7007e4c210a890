"""Columnar labeling state of a batch of items (§IV, one row per item).

The vectorized dispatch ticks advance many items in lock-step rounds.
:class:`BatchState` keeps their labeling states as matrices instead of
one :class:`~repro.core.state.LabelingState` per item:

* ``vectors`` — the ``(B, n_labels)`` float64 observation matrix, the
  Q-network's forward input as it stands (no per-round stack or cast);
* ``confidences`` — ``(B, n_labels)`` best confidence per label;
* ``executed`` — ``(B, n_models)`` boolean mask of finished models;
* ``values`` and ``clocks`` — ``(B,)`` accumulated value and serial clock.

Each item's per-model valuable ``(ids, confs)`` arrays are flattened once
per batch into two segment arrays, so a round's picks update every row
with one numpy scatter.  The value arithmetic replays
:meth:`LabelingState.execute` exactly — gains against the pre-execution
confidences, one ``np.sum`` per execution — so traces built from a batch
are byte-identical to the serial ones.  Executions are logged as columns
and turned into :class:`~repro.scheduling.base.ScheduleTrace` objects
once, by :meth:`BatchState.traces`.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.scheduling.base import ScheduledExecution, ScheduleTrace
from repro.zoo.oracle import GroundTruth


class BatchState:
    """Labeling states of ``item_ids`` as rows of shared matrices."""

    def __init__(self, truth: GroundTruth, item_ids: Sequence[str]):
        self.truth = truth
        self.item_ids = list(item_ids)
        zoo = truth.zoo
        n_items, n_models = len(self.item_ids), len(zoo)
        self.n_models = n_models
        self.vectors = np.zeros((n_items, len(zoo.space)), dtype=np.float64)
        self.confidences = np.zeros_like(self.vectors)
        self.executed = np.zeros((n_items, n_models), dtype=bool)
        self.values = np.zeros(n_items, dtype=np.float64)
        self.clocks = np.zeros(n_items, dtype=np.float64)
        #: Rows whose observation vector gained a bit since the flag was
        #: last cleared (Q-row reuse re-forwards exactly these).
        self.changed = np.zeros(n_items, dtype=bool)
        self._times = zoo.times
        # Segment (row, model) lives at flat index row * n_models + model.
        records = [truth.record(item_id) for item_id in self.item_ids]
        ids = [a for record in records for a in record.valuable_ids]
        confs = [a for record in records for a in record.valuable_confs]
        lengths = np.fromiter(map(len, ids), dtype=np.int64, count=len(ids))
        self._offsets = np.zeros(len(ids) + 1, dtype=np.int64)
        np.cumsum(lengths, out=self._offsets[1:])
        self._ids = np.concatenate(ids) if ids else np.zeros(0, np.int64)
        self._confs = np.concatenate(confs) if confs else np.zeros(0)
        self._log: list[tuple[np.ndarray, ...]] = []

    def __len__(self) -> int:
        return len(self.item_ids)

    def execute_serially(self, rows: np.ndarray, models: np.ndarray) -> None:
        """Run ``models[k]`` on row ``rows[k]`` at each row's serial clock."""
        starts = self.clocks[rows]
        finishes = starts + self._times[models]
        self.clocks[rows] = finishes
        self.execute(rows, models, starts, finishes)

    def execute(
        self,
        rows: np.ndarray,
        models: np.ndarray,
        starts: np.ndarray,
        finishes: np.ndarray,
    ) -> None:
        """Apply one execution per row (``rows`` distinct) and log it."""
        n = len(rows)
        segments = rows * self.n_models + models
        begin = self._offsets[segments]
        lengths = self._offsets[segments + 1] - begin
        ends = np.cumsum(lengths)
        self.executed[rows, models] = True
        gained = np.zeros(n)
        new_labels = np.zeros(n, dtype=np.int64)
        if n and ends[-1]:
            # Flat positions of every label the round's executions emit,
            # grouped by execution (``owner``) in segment order.
            owner = np.repeat(np.arange(n), lengths)
            positions = np.arange(ends[-1]) + np.repeat(begin - ends + lengths, lengths)
            ids = self._ids[positions]
            confs = self._confs[positions]
            label_rows = rows[owner]
            gains = np.maximum(confs - self.confidences[label_rows, ids], 0.0)
            fresh = self.vectors[label_rows, ids] == 0.0
            np.maximum.at(self.confidences, (label_rows, ids), confs)
            self.vectors[label_rows, ids] = 1.0
            self.changed[rows[np.bincount(owner[fresh], minlength=n) > 0]] = True
            new_labels = np.bincount(owner[gains > 0.0], minlength=n)
            # One np.sum per execution, as LabelingState.execute adds its
            # gains; np.add.reduceat would sum sequentially and drift.
            for k in np.flatnonzero(lengths):
                gained[k] = gains[ends[k] - lengths[k] : ends[k]].sum()
        before = self.values[rows]
        self.values[rows] = before + gained
        marginal = self.values[rows] - before
        self._log.append((rows, models, starts, finishes, marginal, new_labels))

    def traces(self) -> list[ScheduleTrace]:
        """One trace per item, executions in the order they were applied."""
        traces = [
            ScheduleTrace(item_id=item_id, total_value=self.truth.total_value(item_id))
            for item_id in self.item_ids
        ]
        if not self._log:
            return traces
        columns = [np.concatenate(column) for column in zip(*self._log)]
        order = np.argsort(columns[0], kind="stable")
        names = [model.name for model in self.truth.zoo]
        for row, model, start, finish, marginal, new in zip(
            *(column[order].tolist() for column in columns)
        ):
            traces[row].executions.append(
                ScheduledExecution(
                    model_index=model,
                    model_name=names[model],
                    start_time=start,
                    finish_time=finish,
                    marginal_value=marginal,
                    new_labels=new,
                )
            )
        return traces


class BatchRows(Sequence):
    """Selected rows of a :class:`BatchState`, as ``predict_batch`` input.

    Indexing yields :class:`RowState` views, so a predictor written
    against :class:`~repro.core.state.LabelingState` reads them
    unchanged; a vector-only predictor takes :attr:`vectors` whole.
    """

    def __init__(self, batch: BatchState, rows: np.ndarray):
        self.batch = batch
        self.indices = rows

    def __len__(self) -> int:
        return len(self.indices)

    def __getitem__(self, k: int) -> "RowState":
        return RowState(self.batch, int(self.indices[k]))

    @property
    def vectors(self) -> np.ndarray:
        """The rows' float64 observation vectors, shape ``(len, n_labels)``."""
        return self.batch.vectors[self.indices]


class RowState:
    """Read-only view of one batch row with the LabelingState read API."""

    def __init__(self, batch: BatchState, row: int):
        self.truth = batch.truth
        self.item_id = batch.item_ids[row]
        self.vector = batch.vectors[row]
        self.confidences = batch.confidences[row]
        self.executed = batch.executed[row]
        self.value = float(batch.values[row])

    @property
    def remaining(self) -> np.ndarray:
        return np.nonzero(~self.executed)[0]

    @property
    def all_executed(self) -> bool:
        return bool(self.executed.all())

    @property
    def n_executed(self) -> int:
        return int(self.executed.sum())
