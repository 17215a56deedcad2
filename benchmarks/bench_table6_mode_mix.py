"""Table VI: % of TLB misses served by each agile mode (no PWCs).

Paper shape: >80% of misses in full shadow mode for every workload,
upper levels almost never switched, and 4-5 average memory accesses per
miss (down from nested paging's 24). Checked as the ``table6.*`` claims.
"""

from repro.analysis import claims
from repro.analysis.experiments import DEFAULT_OPS, table6
from repro.analysis.tables import format_table, table6_rows
from repro.bench import Gate, bench_target

from _util import default_runner, emit


@bench_target("table6_mode_mix", output="BENCH_table6_mode_mix.json",
              gates=(Gate("summary.mean_shadow_fraction", "higher", 0.1),))
def bench(ctx):
    """Where agile mode serves TLB misses (paper Table VI)."""
    ops = ctx.ops(DEFAULT_OPS, quick=claims.min_ops("table6"))
    results = table6(ops=ops, runner=default_runner())
    emit("table6", format_table(
        ("Workload", "Shadow", "L4", "L3", "L2", "L1", "Nested", "Avg refs"),
        table6_rows(results),
        title="Table VI — TLB miss mix by agile mode, 4K pages, no PWCs",
    ))
    workloads = {}
    for name, metrics in results.items():
        workloads[name] = {
            "shadow_fraction": metrics.mode_mix().get("Shadow", 0.0),
            "avg_refs_per_miss": metrics.avg_refs_per_miss,
        }
    fracs = [cell["shadow_fraction"] for cell in workloads.values()]
    return {"ops": ops, "workloads": workloads,
            "summary": {"mean_shadow_fraction": sum(fracs) / len(fracs)},
            "claims": claims.check("table6", results, ops)}
