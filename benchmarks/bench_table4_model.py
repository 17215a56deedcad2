"""Table IV: the linear performance model, applied end to end.

Runs one workload under native/nested/shadow, feeds the measured
counters through the paper's formulas, and checks the derived overheads
agree with the simulator's own accounting (the
``table4.model_matches_sim`` claim).
"""

from repro.analysis import claims
from repro.analysis.experiments import DEFAULT_OPS, table4
from repro.analysis.tables import format_table
from repro.bench import bench_target

from _util import default_runner, emit, pct


@bench_target("table4_model", output="BENCH_table4_model.json")
def bench(ctx):
    """Linear-model overheads on measured runs (paper Table IV)."""
    ops = ctx.ops(DEFAULT_OPS, quick=claims.min_ops("table4"))
    results = table4(ops=ops, runner=default_runner())
    modes = {mode: {key: row[key] for key in ("page_walk_overhead",
                                              "vmm_overhead",
                                              "cycles_per_miss")}
             for mode, row in results["modes"].items()}
    emit("table4", format_table(
        ("Config", "PW (model)", "VMM (model)", "Cycles/miss (C)"),
        [(mode, pct(row["page_walk_overhead"]), pct(row["vmm_overhead"]),
          "%.1f" % row["cycles_per_miss"]) for mode, row in modes.items()],
        title="Table IV — performance-model outputs on measured runs (mcf)",
    ))
    return {"ops": ops, "modes": modes,
            "claims": claims.check("table4", results, ops)}
