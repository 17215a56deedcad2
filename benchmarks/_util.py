"""Shared helpers for the benchmark targets.

Every target prints its paper-style rows to stdout *and* writes them to
``benchmarks/results/<name>.txt``.
"""

import os

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def default_runner():
    """The sweep runner for the grid-shaped targets: REPRO_WORKERS=8 fans
    cells across processes; REPRO_CACHE_DIR=.repro-cache reuses results
    until src/repro changes."""
    from repro.runner import ResultCache, SweepRunner

    cache_dir = os.environ.get("REPRO_CACHE_DIR")
    return SweepRunner(workers=int(os.environ.get("REPRO_WORKERS", "1")),
                       cache=ResultCache(cache_dir) if cache_dir else None)


def emit(name, text):
    """Print a rendered table and persist it under benchmarks/results/."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    print()
    print(text)
    with open(os.path.join(RESULTS_DIR, name + ".txt"), "w") as handle:
        handle.write(text + "\n")


def pct(value):
    return "%.1f%%" % (100.0 * value)
