"""Table II: memory references per walk at every degree of nesting.

Paper targets: 4 (full shadow), 8, 12, 16, 20 (switch at successive
levels), 24 (full nested) — measured, not asserted by construction.
Checked as the ``table2.walk_refs`` claim.
"""

from repro.analysis import claims
from repro.analysis.claims import PAPER_WALK_REFS
from repro.analysis.experiments import table2_measurements
from repro.analysis.tables import format_table, table2_rows
from repro.bench import bench_target

from _util import emit


@bench_target("table2_walk_refs", output="BENCH_table2_walk_refs.json")
def bench(ctx):
    """Measured walk references per degree of nesting (paper Table II)."""
    totals = table2_measurements()
    text = format_table(
        ("Level", "Base Native", "Nested Paging", "Shadow Paging",
         "Agile Paging"),
        table2_rows(totals),
        title="Table II — walk memory references by degree of nesting",
    )
    measured = format_table(
        ("Degree (nested levels)", "Paper", "Measured"),
        [(str(k), PAPER_WALK_REFS[k], totals[k]) for k in PAPER_WALK_REFS],
        title="Measured totals vs paper",
    )
    emit("table2", text + "\n\n" + measured)
    return {"totals": {str(key): value for key, value in totals.items()},
            "paper": {str(key): value
                      for key, value in PAPER_WALK_REFS.items()},
            "claims": claims.check("table2", totals, ops=0)}
