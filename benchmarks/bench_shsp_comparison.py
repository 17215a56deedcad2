"""Section VII-C: agile paging vs the SHSP prior-work baseline.

SHSP (Wang et al.) switches an entire process between nested and shadow
paging over time; the paper argues it "performs similarly to the best of
the two techniques" while agile paging *exceeds* the best of both. This
benchmark reproduces the comparison on three contrasting workloads and
checks it as the ``shsp.*`` claims.
"""

from repro.analysis import claims
from repro.analysis.experiments import (
    DEFAULT_OPS,
    shsp_comparison,
    translation_overhead,
)
from repro.analysis.tables import format_table
from repro.vmm import traps as T
from repro.bench import bench_target

from _util import default_runner, emit, pct


@bench_target("shsp_comparison", output="BENCH_shsp_comparison.json")
def bench(ctx):
    """Agile vs the SHSP whole-process-switching baseline (VII-C)."""
    ops = ctx.ops(DEFAULT_OPS, quick=claims.min_ops("shsp"))
    results = shsp_comparison(ops=ops, runner=default_runner())
    emit("shsp_comparison", format_table(
        ("Workload", "Mode", "Page walk", "VMM", "Total", "SHSP rebuilds"),
        [(name, mode, pct(m.page_walk_overhead), pct(m.vmm_overhead),
          pct(translation_overhead(m)),
          m.trap_counts.get(T.SHSP_REBUILD, 0))
         for name, per_mode in results.items()
         for mode, m in per_mode.items()],
        title="SHSP vs Agile (Section VII-C discussion)",
    ))
    return {"ops": ops, "workloads": {
        name: {mode: {"total_overhead": translation_overhead(m),
                      "shsp_rebuilds": m.trap_counts.get(T.SHSP_REBUILD, 0)}
               for mode, m in per_mode.items()}
        for name, per_mode in results.items()},
        "claims": claims.check("shsp", results, ops)}
