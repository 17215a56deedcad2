#!/usr/bin/env python
"""Tuning the agile-paging policies, with multi-seed error bars.

Section III-C leaves two knobs open: the shadow=>nested write threshold
("a small threshold like the one used in branch predictors") and the
reversion policy. This example sweeps both on the memcached-like
workload over three seeds and reports mean and standard deviation, to
show the orderings are stable, not single-seed luck.

Run:  python examples/policy_tuning.py
"""

from dataclasses import replace
from statistics import mean, stdev

from repro import run_workload, sandy_bridge_config
from repro.workloads.suite import MemcachedLike

SEEDS = (1, 2, 3)


def run_seeds(config):
    """One RunMetrics per seed of the workload on ``config``."""
    # Enough operations to include slab-churn and eviction events.
    return [run_workload(MemcachedLike(ops=45_000, seed=seed), config)
            for seed in SEEDS]


def totals(runs):
    """Page-walk plus VMM overhead of each run."""
    return [m.page_walk_overhead + m.vmm_overhead for m in runs]


def sweep_write_threshold():
    print("Write threshold sweep (shadow=>nested trigger)")
    print("%-12s %12s %12s %14s" % ("threshold", "total ovh", "stdev", "traps model"))
    base = sandy_bridge_config(mode="agile")
    for threshold in (1, 2, 4, 16):
        config = replace(base, policy=replace(base.policy,
                                              write_threshold=threshold))
        runs = run_seeds(config)
        traps = mean(m.vmtraps for m in runs)
        print("%-12d %11.1f%% %11.3f%% %14.1f" % (
            threshold, 100 * mean(totals(runs)), 100 * stdev(totals(runs)),
            traps))
    print("(threshold=2 is the paper's choice: eager enough to kill the\n"
          " write storms, lazy enough not to nest on one-off updates)\n")


def compare_reversion_policies():
    print("Reversion policy comparison (nested=>shadow)")
    base = sandy_bridge_config(mode="agile")
    results = {
        name: run_seeds(replace(base, policy=replace(base.policy,
                                                     revert_policy=name)))
        for name in ("dirty", "simple", "none")
    }
    print("%-8s %12s %16s" % ("policy", "total ovh", "misses/kop"))
    for name, runs in results.items():
        print("%-8s %11.1f%% %15.1f" % (
            name, 100 * mean(totals(runs)),
            mean(m.miss_rate_per_kop for m in runs)))
    wins = [a < b for a, b in zip(totals(results["dirty"]),
                                  totals(results["none"]))]
    print("dirty-bit beats no-reversion on %.0f%% of seeds\n"
          % (100 * mean(wins)))


def agile_vs_constituents():
    print("Sanity: the headline ordering, with error bars")
    results = {mode: totals(run_seeds(sandy_bridge_config(mode=mode)))
               for mode in ("nested", "shadow", "agile")}
    for mode, values in results.items():
        print("  %-7s total overhead %5.1f%% ± %.2f%%"
              % (mode, 100 * mean(values), 100 * stdev(values)))
    best = min(mean(results["nested"]), mean(results["shadow"]))
    print("  => agile improves on the best constituent by %.1f%%"
          % (100 * (1 + best) / (1 + mean(results["agile"])) - 100))


if __name__ == "__main__":
    sweep_write_threshold()
    compare_reversion_policies()
    agile_vs_constituents()
