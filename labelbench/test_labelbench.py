"""Tests for the benchmark's own code: inputs, arithmetic, and a smoke run.

Run with ``PYTHONPATH=src python -m pytest labelbench -q`` from the
repository root.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from labelbench import world as W
from labelbench.checks import OutputChecks, knapsack_bound
from labelbench.measure import covered, normalize_duration, percentile, self_time
from labelbench.workloads import BatchLog, Report

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


# -- seeded inputs -----------------------------------------------------------


def test_same_seed_gives_identical_inputs():
    assert W.catalog_indices(3, 64) == W.catalog_indices(3, 64)
    assert W.serve_schedule(3, 150.0, 2.0) == W.serve_schedule(3, 150.0, 2.0)
    assert W.gateway_requests(3, 64, 8, 6) == W.gateway_requests(3, 64, 8, 6)


def test_other_seed_changes_draws_not_sizes_or_regime_counts():
    assert W.catalog_indices(3, 64) != W.catalog_indices(4, 64)
    assert len(set(W.catalog_indices(4, 64))) == 64

    first, second = W.serve_schedule(3, 150.0, 2.0), W.serve_schedule(4, 150.0, 2.0)
    assert first != second
    for schedule in (first, second):
        assert len(schedule) == 300
        assert schedule[-1].due == pytest.approx(2.0)
        assert all(a.due < b.due for a, b in zip(schedule, schedule[1:]))
    for field in ("regime", "priority", "repeat"):
        assert Counter(getattr(r, field) for r in first) == Counter(
            getattr(r, field) for r in second
        )

    plans = W.gateway_requests(3, 64, 8, 6), W.gateway_requests(4, 64, 8, 6)
    assert plans[0] != plans[1]
    for plan in plans:
        for requests in plan.values():
            assert Counter(regime for regime, _ in requests) == Counter(
                {regime: 2 for regime in W.REGIME_NAMES}
            )
            assert all(len(set(positions)) == 8 for _, positions in requests)


def test_serve_repeats_name_an_earlier_pair():
    schedule = W.serve_schedule(5, 100.0, 3.0)
    seen = set()
    for request in schedule:
        pair = (request.index, request.regime)
        assert (pair in seen) == request.repeat
        seen.add(pair)


def test_batch_plan_covers_every_block_in_every_regime_once():
    catalog = list(range(48))
    plan = W.batch_plan(catalog, 16)
    pairs = [(regime, tuple(items)) for regime, items in plan]
    assert len(pairs) == len(set(pairs)) == 3 * len(W.REGIME_NAMES)
    assert [regime for regime, _ in plan[:3]] == list(W.REGIME_NAMES)


# -- arithmetic --------------------------------------------------------------


@pytest.mark.parametrize("q", [0, 5, 50, 95, 99, 100])
def test_percentile_matches_numpy(q):
    values = np.random.default_rng(1).exponential(size=37).tolist()
    assert percentile(values, q) == pytest.approx(np.percentile(values, q))


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_self_time_subtracts_the_union_of_children():
    # Children overlap (1-3 and 2-4) and one pokes past the parent's end.
    children = [(1.0, 3.0), (2.0, 4.0), (9.0, 12.0)]
    assert covered(children, 0.0, 10.0) == pytest.approx(4.0)
    assert self_time(0.0, 10.0, children) == pytest.approx(6.0)
    assert self_time(0.0, 10.0, []) == pytest.approx(10.0)


def test_normalization_reports_at_nominal_host_speed():
    # A host twice as slow takes twice the kernel time and twice as long.
    assert normalize_duration(0.2, 0.1, 0.05) == pytest.approx(0.1)
    log = BatchLog(nominal_s=0.05)
    for block, kernel in enumerate((0.05, 0.1, 0.1)):
        slowdown = kernel / 0.05
        log.add(block, "a", 100, 0.1 * slowdown, kernel)  # 1000/s at nominal
        log.add(block, "b", 100, 0.4 * slowdown, kernel)  # 250/s at nominal
        log.request(block, 0.1 * slowdown, kernel)
    assert log.rate("a") == pytest.approx(1000.0)
    assert log.rate("a", normalized=False) == pytest.approx(500.0)
    # Keys combine by item share: 200 items in 0.1 s + 0.4 s.
    assert log.rate() == pytest.approx(400.0)
    assert log.latency_ms(50) == pytest.approx(100.0)
    report = Report(checks=None)
    log.report(report, ("a", "b"))
    assert report.layers["items_per_s.b"] == pytest.approx(250.0)


def test_block_median_ignores_one_disturbed_block():
    log = BatchLog(nominal_s=0.05)
    for block in range(5):
        log.add(block, "a", 100, 0.1, 0.05)
    log.add(5, "a", 100, 1.0, 0.05)  # one stalled block
    assert log.rate("a") == pytest.approx(1000.0)


def test_knapsack_bound_caps_at_total_value():
    world = W.build_world()
    truth = W.record_catalog(world, [world.item(i) for i in (1, 2, 3)])
    for item_id in truth.item_ids:
        total = truth.total_value(item_id)
        assert knapsack_bound(truth, item_id, "qgreedy") == total
        for regime in ("deadline", "deadline_memory"):
            assert 0.0 <= knapsack_bound(truth, item_id, regime) <= total


def test_checks_fail_on_disagreeing_or_unreferenced_results():
    world = W.build_world()
    truth = W.record_catalog(world, [world.item(1)])
    checks = OutputChecks()
    checks.sequence("deadline", "mscoco2017/000001", ["a", "b"], "remote")
    checks.sequence("deadline", "mscoco2017/000001", ["a", "b"], "remote")
    assert checks.correct
    checks.sequence("deadline", "mscoco2017/000001", ["b", "a"], "remote")
    assert not checks.correct
    fresh = OutputChecks()
    fresh.sequence("qgreedy", "mscoco2017/000001", ["a"], "remote")
    fresh.verify(truth)
    assert not fresh.correct and "reference" in fresh.failures[0]


# -- smoke run ---------------------------------------------------------------


def _run(workload: str, trace: int) -> dict:
    completed = subprocess.run(
        [
            sys.executable, "labelbench/run.py",
            "--workload", workload, "--seed", "7", "--seconds", "1.5",
            "--trace", str(trace), "--scale", "tiny",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )  # fmt: skip
    assert completed.returncode == 0, completed.stdout + completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_prints_every_metric(workload):
    untraced = _run(workload, 0)
    assert untraced["correct"] and untraced["failed"] == 0
    assert untraced["attempted"] >= 1
    assert set(untraced["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for metric in SPEC["end_to_end"]:
        assert untraced["metrics"][metric["name"]]["value"] > 0
        assert untraced["metrics"][metric["name"]]["unit"] == metric["unit"]
    traced = _run(workload, 1)
    assert traced["correct"]
    assert set(traced["metrics"]) == {m["name"] for m in SPEC["per_layer"]}


def test_stop_helpers_leaves_no_process_behind():
    # In a child interpreter: the sweep kills everything below its caller.
    script = """
import subprocess
import sys
from multiprocessing import resource_tracker, shared_memory
from labelbench.measure import descendants, running
from labelbench.workloads import stop_helpers
segment = shared_memory.SharedMemory(create=True, size=64)
segment.close()
segment.unlink()
tracker = resource_tracker._resource_tracker._pid
stray = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"])
assert running(tracker) and running(stray.pid)
stop_helpers()
print(descendants(), running(tracker))
"""
    completed = subprocess.run(
        [sys.executable, "-c", script],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT), str(ROOT / "src")])},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.split() == ["[]", "False"]
