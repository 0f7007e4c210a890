"""Measurement arithmetic: percentiles, span self time, host-speed normalization.

The host this benchmark runs on changes speed from minute to minute, and
process CPU time tracks wall time, so timing CPU seconds does not help.
Instead a fixed reference kernel runs in the bench process between timed
blocks, while the program has nothing in flight, and every CPU-bound
figure is rescaled to the speed at which the kernel takes its nominal
time:

* a duration is multiplied by ``nominal_s / kernel_s``;
* a rate, computed from normalized durations, is thereby multiplied by
  ``kernel_s / nominal_s``.

The kernel is part of the benchmark's definition (see ``DESIGN.json``):
changing it, or its nominal time, is a benchmark change.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

#: Kernel shape: the Q-network's first layer on a batch of 64 states.
KERNEL_ROWS, KERNEL_IN, KERNEL_OUT = 64, 1104, 256
KERNEL_MATMULS = 50
KERNEL_DICT_STEPS = 60_000

#: Ceiling on program CPU during kernel windows, as a share of one core.
#: Above it a busy program would be slowing the kernel and hiding its cost.
IDLE_CPU_LIMIT = 0.05


# -- order statistics --------------------------------------------------------


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (numpy's default), ``q`` in [0, 100]."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of no values")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must be in [0, 100], got {q}")
    rank = (len(data) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(data) - 1)
    return data[low] + (data[high] - data[low]) * (rank - low)


def median(values) -> float:
    return percentile(values, 50.0)


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def share(part: float, whole: float) -> float:
    """``part / whole``, 0 when there is no whole (a bypassed layer)."""
    return part / whole if whole else 0.0


# -- spans -------------------------------------------------------------------


def covered(intervals, start: float, end: float) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(a, start), min(b, end)) for a, b in intervals if b > start and a < end
    )
    total = 0.0
    run_start = run_end = None
    for a, b in clipped:
        if run_end is None or a > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = a, b
        else:
            run_end = max(run_end, b)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_time(start: float, end: float, children) -> float:
    """A span's duration minus the part its children's intervals cover."""
    return (end - start) - covered(children, start, end)


# -- normalization -----------------------------------------------------------


def normalize_duration(raw: float, kernel_s: float, nominal_s: float) -> float:
    return raw * nominal_s / kernel_s


# -- process accounting ------------------------------------------------------


_CLOCK_TICK = os.sysconf("SC_CLK_TCK")


def _stat_fields(pid: int) -> list[str] | None:
    try:
        text = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    # The command name is parenthesized and may hold spaces: split after it.
    return text[text.rindex(")") + 2 :].split()


def descendants(root: int | None = None) -> list[int]:
    """Pids of every live process below ``root`` (default: this process)."""
    root = os.getpid() if root is None else root
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        fields = _stat_fields(int(entry))
        if fields is not None:
            children.setdefault(int(fields[1]), []).append(int(entry))
    found, frontier = [], [root]
    while frontier:
        pid = frontier.pop()
        for child in children.get(pid, ()):
            found.append(child)
            frontier.append(child)
    return found


def running(pid: int) -> bool:
    """Whether ``pid`` exists and has not exited (a zombie has exited)."""
    fields = _stat_fields(pid)
    return fields is not None and fields[0] != "Z"


def cpu_seconds(pid: int) -> float:
    """User + system CPU seconds of one process (0 once it has exited)."""
    fields = _stat_fields(pid)
    if fields is None:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICK


def peak_rss_mb(pids) -> float:
    """``VmHWM`` summed over ``pids``, in MiB."""
    total_kb = 0
    for pid in pids:
        try:
            lines = Path(f"/proc/{pid}/status").read_text().splitlines()
        except OSError:
            continue
        for line in lines:
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
    return total_kb / 1024.0


# -- the reference kernel ----------------------------------------------------


def reference_kernel(left: np.ndarray, right: np.ndarray) -> int:
    """The fixed CPU workload whose duration measures host speed."""
    for _ in range(KERNEL_MATMULS):
        product = left @ right
    table: dict[int, int] = {}
    for step in range(KERNEL_DICT_STEPS):
        key = step & 1023
        table[key] = table.get(key, 0) + step
    return len(table) + int(product.shape[0])


@dataclass
class HostMeter:
    """Runs the reference kernel and keeps the normalization ledger.

    Every :meth:`probe` is one kernel window.  It also charges the CPU
    the program's own processes used during the window: other threads of
    this process (``process_time - thread_time``) plus every descendant
    process, read from ``/proc``.
    """

    nominal_s: float
    kernels: list[float] = field(default_factory=list)
    window_s: float = 0.0
    program_cpu_s: float = 0.0

    def __post_init__(self):
        rng = np.random.default_rng(0)
        self._left = rng.standard_normal((KERNEL_ROWS, KERNEL_IN))
        self._right = rng.standard_normal((KERNEL_IN, KERNEL_OUT))
        reference_kernel(self._left, self._right)  # first call pays page faults

    def probe(self) -> float:
        """One kernel window; returns the kernel's wall seconds."""
        pids = descendants()
        others_before = time.process_time() - time.thread_time()
        children_before = sum(cpu_seconds(pid) for pid in pids)
        started = time.perf_counter()
        reference_kernel(self._left, self._right)
        elapsed = time.perf_counter() - started
        others = time.process_time() - time.thread_time() - others_before
        children = sum(cpu_seconds(pid) for pid in pids) - children_before
        self.kernels.append(elapsed)
        self.window_s += elapsed
        self.program_cpu_s += max(others, 0.0) + max(children, 0.0)
        return elapsed

    def blocks(self, seconds: float, run_block):
        """Alternate kernel windows and ``run_block()`` for ``seconds``.

        Yields ``(block_result, kernel_s)`` where ``kernel_s`` is the mean
        of the kernel windows just before and just after the block.
        """
        deadline = time.perf_counter() + seconds
        before = self.probe()
        while time.perf_counter() < deadline:
            result = run_block()
            after = self.probe()
            yield result, (before + after) / 2.0
            before = after

    def timed_setup(self, build):
        """Time ``build()`` between two kernel windows.

        Returns ``(built, raw_s, kernel_s)``.
        """
        before = self.probe()
        started = time.perf_counter()
        built = build()
        raw = time.perf_counter() - started
        after = self.probe()
        return built, raw, (before + after) / 2.0

    @property
    def host_factor(self) -> float:
        """Median kernel time over the nominal time (>1: slower host)."""
        return median(self.kernels) / self.nominal_s

    @property
    def idle_cpu_share(self) -> float:
        """Program CPU during kernel windows, as a share of one core."""
        return share(self.program_cpu_s, self.window_s)
