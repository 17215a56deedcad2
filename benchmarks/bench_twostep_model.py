"""Section VI methodology: the two-step projection vs direct simulation.

The paper could only *project* agile paging's performance through the
two-step trace methodology and the Table IV linear model. Our simulator
can also run agile paging directly — so this benchmark validates the
methodology port by comparing the projection with the direct run (the
``twostep.*`` claims: both beat or tie the best constituent).
"""

from repro.analysis import claims
from repro.analysis.experiments import DEFAULT_OPS, twostep
from repro.analysis.tables import format_table
from repro.bench import bench_target

from _util import default_runner, emit, pct


@bench_target("twostep_model", output="BENCH_twostep_model.json")
def bench(ctx):
    """Two-step projection vs direct simulation, three workloads."""
    ops = ctx.ops(DEFAULT_OPS, quick=claims.min_ops("twostep"))
    results = twostep(ops=ops, runner=default_runner())
    emit("twostep", format_table(
        ("Workload", "Agile (projected)", "Agile (direct sim)",
         "Shadow", "Nested"),
        [(name, pct(row["projected"]), pct(row["direct"]),
          pct(row["shadow"]), pct(row["nested"]))
         for name, row in results.items()],
        title="Two-step methodology — projection vs direct simulation",
    ))
    return {"ops": ops, "workloads": {
        name: {"projected_overhead": row["projected"],
               "direct_overhead": row["direct"]}
        for name, row in results.items()},
        "claims": claims.check("twostep", results, ops)}
