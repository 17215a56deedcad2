"""Figure 3: chronological page-table accesses per degree of nesting.

Reproduces the access orders of Figure 3(a)-(f): a shadow prefix of the
walk followed by (guest PTE read + host walk) groups once the switching
bit flips the walk to nested mode. Checked as the ``fig3.*`` claims.
"""

from repro.analysis import claims
from repro.analysis.claims import PAPER_JOURNAL_LENGTHS
from repro.analysis.experiments import figure3_journals
from repro.analysis.tables import format_table
from repro.bench import bench_target

from _util import emit


def _render(journal):
    return " ".join("%s.L%d" % (structure[0], level)
                    for structure, level in journal)


@bench_target("fig3_degrees", output="BENCH_fig3_degrees.json")
def bench(ctx):
    """Journal lengths per degree of nesting (paper Figure 3)."""
    journals = figure3_journals()
    emit("figure3", format_table(
        ("Degree", "Refs", "Chronological accesses (s=sPT g=gPT h=hPT)"),
        [(label, len(journal), _render(journal)[:96])
         for label, journal in journals.items()],
        title="Figure 3 — access orders by degree of nesting",
    ))
    return {
        "lengths": {label: len(journal)
                    for label, journal in journals.items()},
        "paper_lengths": dict(PAPER_JOURNAL_LENGTHS),
        "claims": claims.check("figure3", journals, ops=0),
    }
