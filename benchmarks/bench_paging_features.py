"""Section V: paging features under agile paging.

Three feature-targeted micro-workloads show that large pages,
content-based page sharing (COW), and memory-pressure reclaim all work
under agile paging — and that agile adapts (moving churny subtrees to
nested mode) instead of paying shadow-paging's trap storms. Checked as
the ``features.*`` claims.
"""

from repro.analysis import claims
from repro.analysis.experiments import paging_features
from repro.analysis.tables import format_table
from repro.bench import bench_target

from _util import emit, pct

LABELS = {"cow_sharing": "cow-sharing", "mem_pressure": "mem-pressure",
          "large_pages": "2M-pages"}


@bench_target("paging_features", output="BENCH_paging_features.json")
def bench(ctx):
    """Feature micro-workloads (COW, reclaim, 2M pages), shadow vs agile."""
    results = paging_features()
    emit("paging_features", format_table(
        ("Feature", "Mode", "VMtraps", "VMM overhead", "Avg refs/miss"),
        [(LABELS[feature], mode, m.vmtraps, pct(m.vmm_overhead),
          "%.2f" % m.avg_refs_per_miss)
         for feature, per_mode in results.items()
         for mode, m in per_mode.items()],
        title="Section V — paging features under shadow vs agile",
    ))
    return {"features": {
        feature: {mode: {"vmtraps": m.vmtraps,
                         "vmm_overhead": m.vmm_overhead,
                         "avg_refs_per_miss": m.avg_refs_per_miss}
                  for mode, m in per_mode.items()}
        for feature, per_mode in results.items()},
        "claims": claims.check("paging_features", results, ops=0)}
