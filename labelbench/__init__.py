"""Seeded end-to-end and per-layer benchmark for the labeling system.

Run one workload with ``python3 labelbench/run.py --workload <name>``;
``labelbench/DESIGN.json`` records why each workload exists, which layers
it exercises, and the reference kernel that normalizes CPU-bound timings.
"""
