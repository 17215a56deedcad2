"""Table III: the simulated system configuration.

Prints the TLB hierarchy geometry (which must match the paper's table
verbatim) and benchmarks raw TLB lookup throughput as a sanity check
that the hierarchy is cheap enough to simulate at scale.
"""

from repro.common.config import sandy_bridge_tlbs
from repro.common.params import FOUR_KB
from repro.hw.tlbhierarchy import TLBHierarchy
from repro.analysis.tables import format_table
from repro.bench import Gate, bench_target

from _util import emit


@bench_target("table3_config", output="BENCH_table3_config.json",
              gates=(Gate("lookups_per_sec", "higher", 0.5),))
def bench(ctx):
    """TLB geometry sanity plus raw lookup throughput (paper Table III)."""
    tlbs = sandy_bridge_tlbs()
    emit("table3", format_table(
        ("Structure", "Page size", "Entries", "Associativity"),
        [(structure, size_name, "%d-entry" % geometry.entries,
          "%d-way" % geometry.ways)
         for structure, geometries in (("L1 DTLB", tlbs.l1d),
                                       ("L1 ITLB", tlbs.l1i),
                                       ("L2 TLB", tlbs.l2))
         for size_name, geometry in sorted(geometries.items())],
        title="Table III — per-core TLB hierarchy (Sandy Bridge)",
    ))
    hierarchy = TLBHierarchy(tlbs, FOUR_KB)
    for vpn in range(512):
        hierarchy.fill(1, vpn << 12, frame=vpn, writable=True, dirty=True)

    def probe():
        for vpn in range(512):
            hierarchy.lookup(1, vpn << 12)

    best = ctx.best_of(probe, repeat=5, min_time=0.05, warmup=1)
    return {
        "geometry": {"l1d_4k_entries": tlbs.l1d["4K"].entries,
                     "l2_4k_entries": tlbs.l2["4K"].entries},
        "lookups_per_sec": round(512 / best),
    }
