"""Vectorized dispatch ticks must replay their serial counterparts exactly.

Every regime's ``schedule_batch`` promises trace *parity* with the
per-item serial loop: round ``k`` of the batch is step ``k`` of each
serial run, and the masked argmax replays serial selection including
first-index tie-breaking.  These tests enforce that promise trace-for-
trace — executions compared field-exact — across budgets, predictors,
and deliberately tie-heavy Q surfaces.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import WorldConfig
from repro.core.output import LabelOutput, ModelOutput
from repro.core.state import LabelingState
from repro.data.datasets import DataItem
from repro.engine import BatchedBackend, LabelingJob, SerialBackend
from repro.graph import build_relationship_graph
from repro.graph.policy import GraphPredictor
from repro.scheduling.base import run_ordering_policy
from repro.scheduling.batch import BatchState
from repro.scheduling.deadline import CostQGreedyScheduler
from repro.scheduling.deadline_memory import MemoryDeadlineScheduler
from repro.scheduling.qgreedy import (
    AgentPredictor,
    OraclePredictor,
    QGreedyPolicy,
    QValuePredictor,
)
from repro.spec import LabelingSpec
from repro.zoo.model import ModelZoo
from repro.zoo.oracle import GroundTruth


@pytest.fixture(scope="module")
def agent_predictor(trained, zoo):
    return AgentPredictor(trained.agent, len(zoo))


@pytest.fixture(scope="module")
def oracle_predictor(truth):
    return OraclePredictor(truth)


@pytest.fixture(scope="module")
def items(test_item_ids):
    return test_item_ids[:16]


def assert_traces_equal(batch, serial):
    assert len(batch) == len(serial)
    for got, want in zip(batch, serial):
        assert got.item_id == want.item_id
        assert got.total_value == want.total_value
        assert got.executions == want.executions


class ConstantPredictor(QValuePredictor):
    """Every model ties at the same Q — selection is pure tie-breaking."""

    def __init__(self, n_models: int, value: float = 1.0):
        self.n_models = n_models
        self.value = value

    def predict(self, state):
        return np.full(self.n_models, self.value)


class DuplicateMaxPredictor(QValuePredictor):
    """Two models share the running maximum at every step.

    Distinct sub-maximal values elsewhere make any deviation from
    first-index tie-breaking visible immediately.
    """

    def __init__(self, n_models: int, peaks=(2, 5)):
        values = np.linspace(0.1, 0.9, n_models)
        values[list(peaks)] = 7.0
        self.values = values

    def predict(self, state):
        return self.values.copy()


DEADLINES = (0.0, 0.05, 0.2, 0.35, 0.5, 2.0, 100.0)
MEMORY_GRID = (
    (0.0, 8000.0),
    (0.2, 500.0),
    (0.35, 2048.0),
    (0.5, 4000.0),
    (0.5, 8000.0),
    (2.0, 100.0),
    (2.0, 16000.0),
)


class TestQGreedyBatchParity:
    @pytest.mark.parametrize("max_models", (None, 1, 3, 100))
    def test_matches_serial(self, truth, oracle_predictor, items, max_models):
        batch = QGreedyPolicy(oracle_predictor).schedule_batch(
            truth, items, max_models=max_models
        )
        serial = [
            run_ordering_policy(
                QGreedyPolicy(oracle_predictor), truth, i, max_models=max_models
            )
            for i in items
        ]
        assert_traces_equal(batch, serial)

    def test_matches_serial_with_agent(self, truth, agent_predictor, items):
        batch = QGreedyPolicy(agent_predictor).schedule_batch(
            truth, items, max_models=4
        )
        serial = [
            run_ordering_policy(
                QGreedyPolicy(agent_predictor), truth, i, max_models=4
            )
            for i in items
        ]
        assert_traces_equal(batch, serial)

    def test_empty_batch(self, truth, oracle_predictor):
        assert QGreedyPolicy(oracle_predictor).schedule_batch(truth, []) == []

    @pytest.mark.parametrize(
        "predictor_cls", (ConstantPredictor, DuplicateMaxPredictor)
    )
    def test_tied_q_values_break_ties_like_serial(
        self, truth, zoo, items, predictor_cls
    ):
        predictor = predictor_cls(len(zoo))
        batch = QGreedyPolicy(predictor).schedule_batch(truth, items)
        serial = [
            run_ordering_policy(QGreedyPolicy(predictor), truth, i) for i in items
        ]
        assert_traces_equal(batch, serial)


class TestDeadlineBatchParity:
    @pytest.mark.parametrize("deadline", DEADLINES)
    def test_matches_serial(self, truth, oracle_predictor, items, deadline):
        scheduler = CostQGreedyScheduler(oracle_predictor)
        batch = scheduler.schedule_batch(truth, items, deadline)
        serial = [scheduler.schedule(truth, i, deadline) for i in items]
        assert_traces_equal(batch, serial)

    @pytest.mark.parametrize("deadline", (0.2, 0.5))
    def test_matches_serial_with_agent(self, truth, agent_predictor, items, deadline):
        scheduler = CostQGreedyScheduler(agent_predictor)
        batch = scheduler.schedule_batch(truth, items, deadline)
        serial = [scheduler.schedule(truth, i, deadline) for i in items]
        assert_traces_equal(batch, serial)

    def test_tied_ratios_break_ties_like_serial(self, truth, zoo, items):
        # A constant Q makes the selection ratio Q/time — models sharing a
        # time tier tie, so the argmax must pick the first index like the
        # serial loop does.
        predictor = ConstantPredictor(len(zoo))
        scheduler = CostQGreedyScheduler(predictor)
        batch = scheduler.schedule_batch(truth, items, 0.5)
        serial = [scheduler.schedule(truth, i, 0.5) for i in items]
        assert_traces_equal(batch, serial)

    def test_zero_deadline_executes_nothing(self, truth, oracle_predictor, items):
        for trace in CostQGreedyScheduler(oracle_predictor).schedule_batch(
            truth, items, 0.0
        ):
            assert trace.n_executed == 0

    def test_negative_deadline_rejected(self, truth, oracle_predictor, items):
        with pytest.raises(ValueError):
            CostQGreedyScheduler(oracle_predictor).schedule_batch(
                truth, items, -0.1
            )


class TestMemoryDeadlineBatchParity:
    @pytest.mark.parametrize("deadline,memory", MEMORY_GRID)
    def test_matches_serial(self, truth, oracle_predictor, items, deadline, memory):
        scheduler = MemoryDeadlineScheduler(oracle_predictor)
        batch = scheduler.schedule_batch(truth, items, deadline, memory)
        serial = [scheduler.schedule(truth, i, deadline, memory) for i in items]
        assert_traces_equal(batch, serial)

    def test_matches_serial_with_agent(self, truth, agent_predictor, items):
        scheduler = MemoryDeadlineScheduler(agent_predictor)
        batch = scheduler.schedule_batch(truth, items, 0.5, 4000.0)
        serial = [scheduler.schedule(truth, i, 0.5, 4000.0) for i in items]
        assert_traces_equal(batch, serial)

    def test_tied_areas_break_ties_like_serial(self, truth, zoo, items):
        predictor = DuplicateMaxPredictor(len(zoo))
        scheduler = MemoryDeadlineScheduler(predictor)
        batch = scheduler.schedule_batch(truth, items, 0.5, 4000.0)
        serial = [scheduler.schedule(truth, i, 0.5, 4000.0) for i in items]
        assert_traces_equal(batch, serial)

    def test_negative_budgets_rejected(self, truth, oracle_predictor, items):
        scheduler = MemoryDeadlineScheduler(oracle_predictor)
        with pytest.raises(ValueError):
            scheduler.schedule_batch(truth, items, -1.0, 100.0)
        with pytest.raises(ValueError):
            scheduler.schedule_batch(truth, items, 1.0, -100.0)


class TestAgentParityFullRollouts:
    """Q-row reuse keeps agent-driven traces equal to the serial ones."""

    def test_qgreedy(self, truth, agent_predictor, items):
        batch = QGreedyPolicy(agent_predictor).schedule_batch(truth, items)
        serial = [
            run_ordering_policy(QGreedyPolicy(agent_predictor), truth, i)
            for i in items
        ]
        assert_traces_equal(batch, serial)

    @pytest.mark.parametrize("deadline", DEADLINES)
    def test_deadline(self, truth, agent_predictor, items, deadline):
        scheduler = CostQGreedyScheduler(agent_predictor)
        batch = scheduler.schedule_batch(truth, items, deadline)
        serial = [scheduler.schedule(truth, i, deadline) for i in items]
        assert_traces_equal(batch, serial)

    @pytest.mark.parametrize("deadline,memory", MEMORY_GRID)
    def test_deadline_memory(self, truth, agent_predictor, items, deadline, memory):
        scheduler = MemoryDeadlineScheduler(agent_predictor)
        batch = scheduler.schedule_batch(truth, items, deadline, memory)
        serial = [scheduler.schedule(truth, i, deadline, memory) for i in items]
        assert_traces_equal(batch, serial)


class RowCountingPredictor(AgentPredictor):
    """Agent predictor that records how many rows each forward carries."""

    def __init__(self, agent, n_models):
        super().__init__(agent, n_models)
        self.rows: list[int] = []

    def predict_batch(self, states):
        self.rows.append(len(states))
        return super().predict_batch(states)


def rows_to_reforward(truth, traces, last=False) -> int:
    """Executions that set a new label bit (the last one of a trace only
    with ``last``: unless the item is predicted after it, it costs none).

    Each such execution changes its item's observation before the item is
    predicted again; any other execution leaves the Q row reusable.
    """
    count = 0
    for trace in traces:
        state = LabelingState(truth, trace.item_id)
        executions = trace.executions if last else trace.executions[:-1]
        for execution in executions:
            before = state.vector.copy()
            state.execute(execution.model_index)
            count += bool((state.vector != before).any())
    return count


class TestQRowReuse:
    @pytest.fixture()
    def counting(self, trained, zoo):
        return RowCountingPredictor(trained.agent, len(zoo))

    def test_qgreedy_forwards_zero_row_once_then_changed_rows(
        self, truth, counting, items
    ):
        traces = QGreedyPolicy(counting).schedule_batch(truth, items)
        assert counting.rows[0] == 1
        assert sum(counting.rows) == 1 + rows_to_reforward(truth, traces)
        assert sum(counting.rows) < len(items) * len(truth.zoo)

    @pytest.mark.parametrize("deadline", (0.2, 0.5, 2.0))
    def test_deadline_forwards_only_changed_rows(
        self, truth, counting, items, deadline
    ):
        # Every round's predicted item executes, so each re-forward is
        # owed to the item's previous execution.
        scheduler = CostQGreedyScheduler(counting)
        traces = scheduler.schedule_batch(truth, items, deadline)
        assert counting.rows[0] == 1
        assert sum(counting.rows) == 1 + rows_to_reforward(truth, traces)

    def test_deadline_memory_forwards_at_most_changed_rows(
        self, truth, counting, items
    ):
        # An item can be predicted once more after its last completion
        # (its loop only then finds nothing to start), so count that too.
        scheduler = MemoryDeadlineScheduler(counting)
        traces = scheduler.schedule_batch(truth, items, 0.5, 4000.0)
        assert counting.rows[0] == 1
        assert sum(counting.rows) <= 1 + rows_to_reforward(truth, traces, last=True)

    def test_reuse_is_declared_by_the_class(self, counting, oracle_predictor):
        assert counting.reads_vector_only
        assert not oracle_predictor.reads_vector_only
        with pytest.raises(AttributeError):
            oracle_predictor.reads_vector_only = True


def recording(predictor_cls):
    """Subclass of ``predictor_cls`` logging each state it is asked about."""

    class Recording(predictor_cls):
        batching = False

        def predict(self, state):
            if not self.batching:  # the default predict_batch loops here
                self.seen.append((state.item_id, state.n_executed))
            return super().predict(state)

        def predict_batch(self, states):
            self.seen.extend((s.item_id, s.n_executed) for s in states)
            self.batching = True
            try:
                return super().predict_batch(states)
            finally:
                self.batching = False

    return Recording


class TestFullStatePredictorsSeeEveryState:
    """Predictors reading more than the vector get no row reuse: the tick
    asks them about exactly the states the serial loop predicts on."""

    @pytest.fixture(params=("oracle", "graph"))
    def make_predictor(self, request, truth, splits):
        if request.param == "oracle":
            return lambda: recording(OraclePredictor)(truth)
        train_ids = [item.item_id for item in splits[0].items]
        graph = build_relationship_graph(truth, train_ids)
        return lambda: recording(GraphPredictor)(graph, truth, train_ids)

    def _run(self, make_predictor, batch_run, serial_run):
        batch_predictor, serial_predictor = make_predictor(), make_predictor()
        batch_predictor.seen, serial_predictor.seen = [], []
        assert_traces_equal(batch_run(batch_predictor), serial_run(serial_predictor))
        assert sorted(batch_predictor.seen) == sorted(serial_predictor.seen)

    def test_qgreedy(self, truth, items, make_predictor):
        self._run(
            make_predictor,
            lambda p: QGreedyPolicy(p).schedule_batch(truth, items),
            lambda p: [run_ordering_policy(QGreedyPolicy(p), truth, i) for i in items],
        )

    def test_deadline(self, truth, items, make_predictor):
        self._run(
            make_predictor,
            lambda p: CostQGreedyScheduler(p).schedule_batch(truth, items, 0.5),
            lambda p: [CostQGreedyScheduler(p).schedule(truth, i, 0.5) for i in items],
        )

    def test_deadline_memory(self, truth, items, make_predictor):
        self._run(
            make_predictor,
            lambda p: MemoryDeadlineScheduler(p).schedule_batch(
                truth, items, 0.5, 4000.0
            ),
            lambda p: [
                MemoryDeadlineScheduler(p).schedule(truth, i, 0.5, 4000.0)
                for i in items
            ],
        )


class _WideModel:
    """Emits ``width`` seeded labels per item, with seeded confidences."""

    def __init__(self, name: str, width: int, n_labels: int, seed: int):
        self.name, self.time, self.mem = name, 0.1 + 0.01 * seed, 100.0
        self.width, self.n_labels, self.seed = width, n_labels, seed

    def execute(self, item):
        rng = np.random.default_rng([self.seed, item.index])
        ids = rng.choice(self.n_labels, size=self.width, replace=False)
        confs = rng.uniform(0.5, 1.0, size=self.width)
        return ModelOutput(
            model=self.name,
            item_id=item.item_id,
            labels=tuple(
                LabelOutput(int(i), f"label{i}", float(c)) for i, c in zip(ids, confs)
            ),
        )


class TestBatchStateMatchesLabelingState:
    """Scatter updates replay LabelingState.execute bit for bit, including
    the per-execution pairwise sum over long label segments."""

    def test_values_vectors_and_confidences(self, space):
        n_labels = len(space)
        zoo = ModelZoo(
            [_WideModel(f"m{j}", 8 + 7 * j, n_labels, j) for j in range(7)], space
        )
        items = [
            DataItem(item_id=f"wide/{i}", dataset="wide", index=i, content=None)
            for i in range(5)
        ]
        truth = GroundTruth(zoo, items, WorldConfig())
        ids = [item.item_id for item in items]
        batch = BatchState(truth, ids)
        states = [LabelingState(truth, item_id) for item_id in ids]
        orders = np.random.default_rng(7).permuted(
            np.tile(np.arange(len(zoo)), (len(ids), 1)), axis=1
        )
        rows = np.arange(len(ids))
        marginals = [[] for _ in ids]
        for step in range(len(zoo)):
            batch.execute_serially(rows, orders[:, step])
            for row, state in enumerate(states):
                before = state.value
                state.execute(int(orders[row, step]))
                marginals[row].append(state.value - before)
                assert batch.values[row] == state.value
                np.testing.assert_array_equal(batch.vectors[row], state.vector)
                np.testing.assert_array_equal(batch.confidences[row], state.confidences)
        for row, trace in enumerate(batch.traces()):
            executions = trace.executions
            assert [e.model_index for e in executions] == orders[row].tolist()
            assert [e.marginal_value for e in executions] == marginals[row]


class TestBatchedBackendDelegation:
    """BatchedBackend now routes *every* regime through a vectorized tick."""

    SPECS = (
        LabelingSpec(),
        LabelingSpec(max_models=4),
        LabelingSpec(deadline=0.35),
        LabelingSpec(deadline=0.5, memory_budget=8000.0),
    )

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.regime)
    def test_matches_serial_backend(self, truth, oracle_predictor, items, spec):
        job = LabelingJob(truth=truth, item_ids=tuple(items), spec=spec)
        batch = BatchedBackend().run(job, oracle_predictor)
        serial = SerialBackend().run(job, oracle_predictor)
        assert_traces_equal(batch, serial)


class TestOraclePredictorCache:
    def test_lru_evicts_by_access_not_insertion(self, truth, items, monkeypatch):
        predictor = OraclePredictor(truth)
        monkeypatch.setattr(OraclePredictor, "CACHE_ITEMS", 2)
        a, b, c = items[:3]
        predictor._gain_matrix(a)
        predictor._gain_matrix(b)
        predictor._gain_matrix(a)  # refresh a: b is now least recently used
        predictor._gain_matrix(c)
        assert set(predictor._gain_matrices) == {a, c}

    def test_cache_bounded(self, truth, items, monkeypatch):
        predictor = OraclePredictor(truth)
        monkeypatch.setattr(OraclePredictor, "CACHE_ITEMS", 3)
        for item_id in items[:10]:
            predictor._gain_matrix(item_id)
        assert len(predictor._gain_matrices) == 3

    def test_concurrent_build_is_single_and_consistent(self, truth, items):
        import threading

        predictor = OraclePredictor(truth)
        builds = []
        original = truth.valuable

        def counting_valuable(item_id, index):
            builds.append(index)
            return original(item_id, index)

        predictor.truth = _ValuableCounter(truth, counting_valuable)
        results = [None] * 8
        barrier = threading.Barrier(8)

        def worker(slot):
            barrier.wait()
            results[slot] = predictor._gain_matrix(items[0])

        threads = [
            threading.Thread(target=worker, args=(slot,)) for slot in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # One build: each zoo model's valuable() read exactly once.
        assert len(builds) == len(truth.zoo)
        for matrix in results[1:]:
            assert matrix is results[0]

    def test_eviction_does_not_corrupt_predictions(self, truth, items, monkeypatch):
        monkeypatch.setattr(OraclePredictor, "CACHE_ITEMS", 1)
        small = OraclePredictor(truth)
        large = OraclePredictor(truth)
        scheduler_small = CostQGreedyScheduler(small)
        scheduler_large = CostQGreedyScheduler(large)
        batch = scheduler_small.schedule_batch(truth, items[:6], 0.5)
        serial = [scheduler_large.schedule(truth, i, 0.5) for i in items[:6]]
        assert_traces_equal(batch, serial)


class _ValuableCounter:
    """GroundTruth proxy that counts valuable() reads (build detection)."""

    def __init__(self, truth, counting_valuable):
        self._truth = truth
        self._valuable = counting_valuable

    def valuable(self, item_id, index):
        return self._valuable(item_id, index)

    def __getattr__(self, name):
        return getattr(self._truth, name)
