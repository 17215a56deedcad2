"""Ablation: the Section III-C policy design space.

Compares the two nested=>shadow reversion policies (plus no reversion)
and sweeps the shadow=>nested write threshold, reporting where TLB
misses get served and how many VMtraps remain. Checked as the
``policies.*`` claims.
"""

from repro.analysis import claims
from repro.analysis.experiments import DEFAULT_OPS, policy_ablation
from repro.analysis.tables import format_table
from repro.bench import bench_target

from _util import default_runner, emit, pct

LABELS = {
    "dirty_reversion": "dirty-bit reversion",
    "simple_reversion": "simple reversion",
    "no_reversion": "no reversion",
    "threshold_1": "threshold=1",
    "threshold_8": "threshold=8",
}


@bench_target("ablation_policies", output="BENCH_ablation_policies.json")
def bench(ctx):
    """Switching-policy design space on memcached (Section III-C)."""
    ops = ctx.ops(DEFAULT_OPS, quick=claims.min_ops("ablation_policies"))
    results = policy_ablation(ops=ops, runner=default_runner())
    emit("ablation_policies", format_table(
        ("Policy variant", "Shadow-mode misses", "Avg refs/miss",
         "VMtraps", "VMM overhead", "PW overhead"),
        [(LABELS[key], pct(m.mode_mix().get("Shadow", 0.0)),
          "%.2f" % m.avg_refs_per_miss, m.vmtraps, pct(m.vmm_overhead),
          pct(m.page_walk_overhead)) for key, m in results.items()],
        title="Ablation — switching policies (memcached, agile mode)",
    ))
    return {"ops": ops, "policies": {
        key: {"shadow_fraction": m.mode_mix().get("Shadow", 0.0),
              "avg_refs_per_miss": m.avg_refs_per_miss,
              "vmtraps": m.vmtraps,
              "vmm_overhead": m.vmm_overhead}
        for key, m in results.items()},
        "claims": claims.check("ablation_policies", results, ops)}
