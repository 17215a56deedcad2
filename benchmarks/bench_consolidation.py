"""Multi-VM consolidation benchmark: the VMs x modes packing grid.

Each cell boots one :class:`~repro.host.host.Host` with N
tenant guests (cycling through the consolidation family: a zipf hog, a
context-switch storm, a reclaim thrasher) over a *fixed* physical frame
budget, so the consolidation ratio climbs with N: at 1-2 VMs the host
has headroom, at 4 VMs the commit ledger crosses the physical limit and
the balloon driver starts revoking frames. Reported per cell:
wall-clock guest throughput, the Figure-5-style mean per-VM translation
overhead (page-walk + VMM cycles over each VM's own measured cycles),
and the host's reclaim accounting (balloon episodes / frames revoked,
world switches).

The gated headline mirrors the paper's claim under multiplexing: at the
highest consolidation ratio, agile's mean per-VM overhead stays at or
below the best constituent's (the ``consolidation.agile_le_best`` claim;
``summary.agile_vs_best_overhead_ratio`` gates its erosion), alongside a
generous wall-clock floor (``summary.min_guest_ops_per_sec``,
host-dependent). The grid itself is
``repro.analysis.experiments.consolidation``; this file adds the
wall-clock timing.

Regenerate the repo-root report with::

    PYTHONPATH=src python -m repro bench consolidation
"""

import time

from repro.analysis import claims
from repro.analysis.experiments import (
    HOST_FRAMES,
    VM_FRAMES,
    consolidation,
    consolidation_cell,
    consolidation_summary,
)
from repro.bench import Gate, bench_target


def _timed_cell(mode, vms, ops, seed):
    """One grid cell plus its host wall-clock guest throughput."""
    start = time.perf_counter()
    cell = consolidation_cell(mode, vms, ops, seed)
    cell["guest_ops_per_sec"] = round(
        cell["ops"] / (time.perf_counter() - start))
    return cell


@bench_target("consolidation", output="BENCH_consolidation.json",
              gates=(Gate("summary.agile_vs_best_overhead_ratio",
                          "lower", 0.2),
                     # Wall-clock, and quick mode amortizes warmup over
                     # 4x fewer measured ops: gate only against collapse.
                     Gate("summary.min_guest_ops_per_sec", "higher", 0.75)))
def bench(ctx):
    """The timed grid; --quick runs it at the claim's ``min_ops``."""
    ops = ctx.ops(8_000, quick=claims.min_ops("consolidation"))
    grid = consolidation(ops=ops, run_cell=_timed_cell)
    summary = consolidation_summary(grid)
    summary["min_guest_ops_per_sec"] = min(
        cell["guest_ops_per_sec"] for cells in grid.values() for cell in cells)
    return {
        "ops_per_vm": ops,
        "host_frames": HOST_FRAMES,
        "vm_frames": VM_FRAMES,
        "modes": grid,
        "summary": summary,
        "claims": claims.check("consolidation", grid, ops),
    }

