"""Figure 5 and the Section VII-A headline: execution-time overheads.

The paper's headline figure: page-walk overhead (bottom bar) and VMM
intervention overhead (top dashed bar) for every workload under
{4K, 2M} x {Base native, Nested, Shadow, Agile}, plus the Section VII-A
summary over the 4K bars: "agile paging ... improves performance by 12%
over the best of nested and shadow paging on average, and performs less
than 4% slower than unvirtualized native at worst".

Shape targets (paper): agile beats the best of nested and shadow for
every workload; nested roughly doubles native walk overheads at 4K;
shadow matches native walks but pays VMtraps on update-heavy loads
(dedup worst); 2M pages shrink walk overheads across the board. The
checked relations are the ``fig5.*`` claims in
``repro.analysis.claims``.
"""

from repro.analysis import claims
from repro.analysis.experiments import (
    DEFAULT_OPS,
    figure5,
    headline_summary,
    translation_overhead,
)
from repro.analysis.plots import render_figure5
from repro.analysis.tables import figure5_rows, format_table
from repro.bench import Gate, bench_target

from _util import default_runner, emit


@bench_target("fig5_overheads", output="BENCH_fig5_overheads.json",
              gates=(Gate("summary.geomean_speedup_vs_best", "higher", 0.1),
                     Gate("summary.geomean_slowdown_vs_native", "lower",
                          0.1)))
def bench(ctx):
    """Whole-suite total overheads plus the headline summary (Figure 5)."""
    ops = ctx.ops(DEFAULT_OPS, quick=claims.min_ops("figure5"))
    results = figure5(ops=ops, runner=default_runner())
    text = format_table(
        ("Workload", "Config", "Page walk", "VMM", "Total"),
        figure5_rows(results),
        title="Figure 5 — execution time overheads (ops=%d)" % ops,
    )
    _rows, summary = headline_summary(results)
    text += ("\n\nSection VII-A (4K total overhead; paper: >=1.12x vs best, "
             "<=1.04x vs native): geomean speedup vs best %.3f, geomean "
             "slowdown vs native %.3f (max %.3f)" % (
                 summary["geomean_speedup_vs_best"],
                 summary["geomean_slowdown_vs_native"],
                 summary["max_slowdown_vs_native"]))
    text += "\n\n" + render_figure5(results, "4K")
    text += "\n\n" + render_figure5(results, "2M")
    emit("figure5", text)
    totals = {name: {"%s_%s" % key: translation_overhead(metrics)
                     for key, metrics in configs.items()}
              for name, configs in results.items()}
    return {"ops": ops, "totals": totals, "summary": dict(summary),
            "claims": claims.check("figure5", results, ops)}
