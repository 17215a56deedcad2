"""Ablation: the Section IV optional hardware optimizations.

Toggles the A/D-bit hardware assist and the CR3 cache independently and
measures the VMtrap overhead agile paging pays without them, on the two
workloads most sensitive to each (dedup: dirty-bit traffic; gcc/dedup:
context switches). Checked as the ``hwopts.*`` claims.
"""

from repro.analysis import claims
from repro.analysis.experiments import DEFAULT_OPS, hwopt_ablation
from repro.analysis.tables import format_table
from repro.bench import bench_target

from _util import default_runner, emit, pct


@bench_target("ablation_hwopts", output="BENCH_ablation_hwopts.json")
def bench(ctx):
    """VMtrap cost of dropping the Section IV hardware optimizations."""
    ops = ctx.ops(DEFAULT_OPS, quick=claims.min_ops("ablation_hwopts"))
    results = hwopt_ablation(ops=ops, runner=default_runner())
    emit("ablation_hwopts", format_table(
        ("Workload", "Variant", "VMM overhead", "VMtraps",
         "dirty_sync", "context_switch"),
        [(name, label, pct(m.vmm_overhead), m.vmtraps,
          m.trap_counts.get("dirty_sync", 0),
          m.trap_counts.get("context_switch", 0))
         for name, variants in results.items()
         for label, m in variants.items()],
        title="Ablation — Section IV hardware optimizations (agile mode)",
    ))
    return {"ops": ops, "workloads": {
        name: {label.replace(" ", "_").replace("/", ""): {
            "vmm_overhead": m.vmm_overhead,
            "vmtraps": m.vmtraps,
            "dirty_sync": m.trap_counts.get("dirty_sync", 0),
            "context_switch": m.trap_counts.get("context_switch", 0),
        } for label, m in variants.items()}
        for name, variants in results.items()},
        "claims": claims.check("ablation_hwopts", results, ops)}
