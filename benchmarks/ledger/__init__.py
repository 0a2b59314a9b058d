"""The perf ledger: this repo's one benchmark (see README.md beside this file).

``BENCHMARK.json`` at the repository root declares the workloads and
metric names; everything that produces them lives in this directory.
Nothing here imports :mod:`repro` at module import time — the set-up
clock starts before that import, so the import itself is measured.
"""
