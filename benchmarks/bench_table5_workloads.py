"""Table V: the workload suite — descriptions, footprints, behaviour.

Prints paper footprint vs scaled footprint and each workload's measured
steady-state character (miss rate, PT-update traps under shadow). Runs
through the sweep runner, so ``REPRO_WORKERS``/``REPRO_CACHE_DIR``
parallelize and cache the suite like any other sweep.
"""

from repro.analysis.experiments import DEFAULT_OPS, table5
from repro.workloads.suite import PAPER_FOOTPRINTS, SUITE
from repro.analysis.tables import format_table
from repro.bench import bench_target

from _util import default_runner, emit


@bench_target("table5_workloads", output="BENCH_table5_workloads.json")
def bench(ctx):
    """Workload-suite character: miss rates and shadow PT-write traps."""
    ops = min(ctx.ops(DEFAULT_OPS), 30_000)
    results = table5(ops=ops, runner=default_runner())
    classes = {cls.name: cls for cls in SUITE}
    emit("table5", format_table(
        ("Workload", "Description", "Paper footprint", "Scaled",
         "Misses/kop", "PT-write traps (shadow)"),
        [(name, classes[name].description, PAPER_FOOTPRINTS[name],
          "%d MB" % classes[name].footprint_mb,
          "%.1f" % metrics.miss_rate_per_kop,
          metrics.trap_counts.get("pt_write", 0))
         for name, metrics in results.items()],
        title="Table V — workload suite (scaled reproductions)",
    ))
    return {"ops": ops, "workloads": {
        name: {"miss_rate_per_kop": metrics.miss_rate_per_kop,
               "pt_write_traps": metrics.trap_counts.get("pt_write", 0)}
        for name, metrics in results.items()}}
