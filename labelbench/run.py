"""Run one benchmark workload and print its metrics.

Usage::

    python3 labelbench/run.py --workload offline --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout: the program is imported from
``src/``.  Every end-to-end metric in ``BENCHMARK.json`` is printed with
its unit and sample count, normalized figures beside their raw value and
the host factor; ``--trace 1`` adds a traced phase and prints the
per-layer metrics instead.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  The exit code
is 1 when any output check failed.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy loads, here and in every child.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"labelbench: no program source at {ROOT / 'src' / 'repro'}")
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from labelbench import world as W  # noqa: E402
from labelbench.measure import HostMeter  # noqa: E402
from labelbench.workloads import (  # noqa: E402
    WORKLOADS,
    Run,
    make_workdir,
    remove_workdir,
    stop_helpers,
)

BENCHMARK = ROOT / "BENCHMARK.json"
DESIGN = W.HERE / "DESIGN.json"


def metric_units(trace: bool) -> dict[str, str]:
    spec = json.loads(BENCHMARK.read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def nominal_kernel_s() -> float:
    return float(json.loads(DESIGN.read_text())["kernel"]["nominal_s"])


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale",
        choices=sorted(W.SCALES),
        default="full",
        help="input sizes; 'tiny' is for the smoke tests",
    )
    return parser.parse_args(argv)


def run(args) -> dict:
    units = metric_units(bool(args.trace))
    meter = HostMeter(nominal_kernel_s())
    workdir = make_workdir(args.workload)
    try:
        report = WORKLOADS[args.workload](
            Run(
                seed=args.seed,
                seconds=args.seconds,
                scale=W.SCALES[args.scale],
                trace=bool(args.trace),
                meter=meter,
                workdir=workdir,
            )
        )
    finally:
        stop_helpers()
        remove_workdir(workdir)
    checks = report.checks
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}")
    print(
        f"host_factor {meter.host_factor:.4f} (kernel {len(meter.kernels)}x, "
        f"nominal {meter.nominal_s * 1000:.1f} ms)  "
        f"idle_cpu_share {meter.idle_cpu_share:.4f}"
    )
    if args.trace:
        # A layer this workload bypasses reads 0.
        values = {name: float(report.layers.get(name, 0.0)) for name in units}
        for name, value in values.items():
            print(f"  {name:<44} {value:>14.6g} {units[name]}")
    else:
        values = {}
        for name, unit in units.items():
            value, samples, raw = report.metrics[name]
            values[name] = float(value)
            line = f"  {name:<14} {value:>12.6g} {unit:<6} n={samples}"
            if raw is not None:
                line += f"  raw {raw:.6g} {unit} at host_factor {meter.host_factor:.4f}"
            print(line)
        for note in report.notes:
            print(f"  {note}")
    for phase in sorted(checks.sent):
        print(
            f"  requests[{phase}] sent {checks.sent[phase]} "
            f"succeeded {checks.succeeded[phase]} failed {checks.failed[phase]}"
        )
    for failure in checks.failures:
        print(f"CHECK FAILED: {failure}")
    return {
        "correct": checks.correct,
        "attempted": checks.attempted,
        "failed": sum(checks.failed.values()),
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in values.items()
        },
    }


def main(argv=None) -> int:
    summary = run(parse_args(argv))
    print(json.dumps(summary), flush=True)
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
