"""Table I: the trade-off grid across the four techniques.

Paper row targets: TLB hits fast everywhere; max memory accesses on a
TLB miss 4 / 24 / 4 / ~(4-5 avg); page-table updates direct everywhere
except shadow paging (mediated by the VMM). Checked as the ``table1.*``
claims.
"""

from repro.analysis import claims
from repro.analysis.experiments import table1_measurements
from repro.analysis.tables import format_table, table1_rows
from repro.bench import bench_target

from _util import emit


@bench_target("table1_tradeoffs", output="BENCH_table1_tradeoffs.json")
def bench(ctx):
    """Measured worst-case walk refs and PT-update traps (paper Table I)."""
    measurements = table1_measurements()
    emit("table1", format_table(
        ("Technique", "TLB hit", "Max refs on miss", "Page table updates",
         "Hardware support"),
        table1_rows(measurements),
        title="Table I — trade-offs (measured worst-case walk references)",
    ))
    return {"techniques": {
        name: {"max_refs": data["max_refs"],
               "pt_update_traps": data["pt_update_traps"]}
        for name, data in measurements.items()},
        "claims": claims.check("table1", measurements, ops=0)}
