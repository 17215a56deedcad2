"""repro.bench: the continuous-benchmarking harness behind ``repro bench``.

Every ``benchmarks/bench_*.py`` registers one benchmark target via the
:func:`bench_target` decorator, declaring its output ``BENCH_*.json``
name and regression gates. The harness discovers targets, runs them
with warmup/repeat/min-time control, and writes schema-versioned
reports carrying the result, its flattened numeric view and
host/python/git provenance. ``repro bench --compare``
evaluates a fresh run against a committed baseline and fails on
regressions beyond each gate's declared tolerance (lint rule REPRO302
keeps the benchmarks tree registered).

See docs/observability.md ("Reading a BENCH file") for the report
vocabulary.
"""

from repro.bench.compare import CompareError, compare_reports, format_comparison
from repro.bench.harness import (
    BENCH_REPORT_SCHEMA_VERSION,
    BenchContext,
    provenance,
    run_target,
)
from repro.bench.registry import BenchTarget, Gate, bench_target, discover

__all__ = [
    "BENCH_REPORT_SCHEMA_VERSION",
    "BenchContext",
    "BenchTarget",
    "CompareError",
    "Gate",
    "bench_target",
    "compare_reports",
    "discover",
    "format_comparison",
    "provenance",
    "run_target",
]
