"""The paper's claims as one executable ledger.

Every quantitative relation this reproduction checks against the paper
is one :class:`Claim` in :data:`CLAIMS`: an id, where the paper makes
it, the :mod:`repro.analysis.experiments` result it reads, the smallest
op budget at which it must hold, and a ``margin(results, ops)``. The
margin is signed and in the claim's own units (``1.05 * best - agile``,
``refs - 24``): it is ``>= 0`` exactly when the claim holds, so erosion
shows before a claim flips. Strict relations use :func:`_above` and
:func:`_below`, whose margin is negative on equality.

:func:`check` is the only way a claim is evaluated: the ``repro bench``
targets call it on their full-size results, and tier-1
(``tests/analysis/test_claims.py``) calls it at each claim's
``min_ops``.
"""

import math
from dataclasses import dataclass
from typing import Any, Callable

from repro.analysis.experiments import (
    consolidation_summary,
    headline_summary,
    translation_overhead as _total,
)
from repro.common.config import (
    MODE_AGILE,
    MODE_NATIVE,
    MODE_NESTED,
    MODE_SHADOW,
    MODE_SHSP,
)


class ClaimError(Exception):
    """Claims failed, or were checked below their ``min_ops``.

    ``failed`` maps each such claim id to its margin (``None`` when the
    budget was too small to check it).
    """

    def __init__(self, message, failed):
        super().__init__(message)
        self.failed = failed


@dataclass(frozen=True)
class Claim:
    """One checkable relation from the paper."""

    id: str
    where: str
    experiment: str
    min_ops: int
    relation: str
    margin: Callable[[Any, int], float]


def _above(value, bound):
    """Margin of the strict relation ``value > bound``."""
    if isinstance(value, int) and isinstance(bound, int):
        return value - bound - 1
    return value - math.nextafter(bound, math.inf)


def _below(value, bound):
    """Margin of the strict relation ``value < bound``."""
    if isinstance(value, int) and isinstance(bound, int):
        return bound - value - 1
    return math.nextafter(bound, -math.inf) - value


def _equal(measured, expected):
    """Margin of ``measured == expected``: minus the largest difference."""
    return -max(abs(measured[key] - value) for key, value in expected.items())


def _at_scale(ops, bounds):
    """The bound declared for the largest op budget not above ``ops``."""
    return bounds[max(scale for scale in bounds if scale <= ops)]


def _worst(results, margin):
    """The smallest per-workload margin."""
    return min(margin(value) for value in results.values())


def _agile_vs_best(by_mode, slack=1.05):
    """``slack * min(nested, shadow) - agile`` over total overheads."""
    return (slack * min(_total(by_mode[MODE_NESTED]),
                        _total(by_mode[MODE_SHADOW]))
            - _total(by_mode[MODE_AGILE]))


def _headline(results):
    return headline_summary(results)[1]


def _shadow(metrics):
    return metrics.mode_mix().get("Shadow", 0.0)


PAPER_MAX_REFS = {MODE_NATIVE: 4, MODE_NESTED: 24, MODE_SHADOW: 4,
                  MODE_AGILE: 24}
PAPER_WALK_REFS = {0: 4, 1: 8, 2: 12, 3: 16, 4: 20, "nested": 24}
PAPER_JOURNAL_LENGTHS = {"shadow-only": 4, "switch@4th": 8, "switch@3rd": 12,
                         "switch@2nd": 16, "switch@1st": 20,
                         "nested-only": 24}
#: Shadow levels walked before the switching bit hands over (Figure 3).
SHADOW_PREFIX = {"switch@4th": 3, "switch@3rd": 2, "switch@2nd": 1,
                 "switch@1st": 0}


def _shadow_prefix(journals):
    """Minus the number of partially nested journals that do not read
    sPT L4, L3, ... for their shadow levels and then the guest PT."""
    return -sum(journals[label][:levels] != [("sPT", 4 - i)
                                             for i in range(levels)]
                or journals[label][levels][0] != "gPT"
                for label, levels in SHADOW_PREFIX.items())


def _same_work(results):
    """Minus the number of (workload, page size) groups whose modes saw
    different ops, reads or writes."""
    streams = {}
    for name, configs in results.items():
        for (size, _mode), m in configs.items():
            streams.setdefault((name, size), set()).add(
                (m.ops, m.reads, m.writes))
    return -sum(len(seen) > 1 for seen in streams.values())


def _model_matches_simulator(table4):
    """Native-run walk cycles through the Table IV model vs the
    simulator's own, within pytest.approx's ``rel=0.01``."""
    native = table4["modes"][MODE_NATIVE]
    model = native["page_walk_overhead"] * table4["e_ideal"]
    direct = native["metrics"].page_walk_overhead * native[
        "metrics"].ideal_cycles
    return max(0.01 * abs(direct), 1e-12) - abs(model - direct)


def _consolidation(grid):
    summary = consolidation_summary(grid)
    return (summary["best_constituent_overhead"]
            - summary["agile_per_vm_overhead"])


CLAIMS = (
    Claim("table1.max_refs", "Table I", "table1", 0,
          "worst-case refs per miss: native 4, nested 24, shadow 4, agile 24",
          lambda r, ops: _equal({m: r[m]["max_refs"] for m in r},
                                PAPER_MAX_REFS)),
    Claim("table1.shadow_updates_trap", "Table I", "table1", 0,
          "a guest PT update traps under shadow paging",
          lambda r, ops: r[MODE_SHADOW]["pt_update_traps"] - 1),
    Claim("table1.direct_updates", "Table I", "table1", 0,
          "guest PT updates do not trap under native, nested or agile",
          lambda r, ops: -max(r[m]["pt_update_traps"]
                              for m in (MODE_NATIVE, MODE_NESTED, MODE_AGILE))),
    Claim("table2.walk_refs", "Table II", "table2", 0,
          "walk refs per degree of nesting are 4, 8, 12, 16, 20, 24",
          lambda r, ops: _equal(r, PAPER_WALK_REFS)),
    Claim("fig3.journal_lengths", "Fig. 3", "figure3", 0,
          "each degree's journal has 4, 8, ..., 24 accesses",
          lambda r, ops: _equal({k: len(j) for k, j in r.items()},
                                PAPER_JOURNAL_LENGTHS)),
    Claim("fig3.shadow_prefix", "Fig. 3(b)-(e)", "figure3", 0,
          "a partially nested walk reads sPT L4..Lk, then the guest PT",
          lambda r, ops: _shadow_prefix(r)),
    Claim("fig5.agile_le_best", "Fig. 5, §VII-A", "figure5", 12_000,
          "4K agile total overhead <= 1.05 x min(nested, shadow)",
          lambda r, ops: _worst(r, lambda c: _agile_vs_best(
              {mode: c[("4K", mode)] for mode in (MODE_NESTED, MODE_SHADOW,
                                                  MODE_AGILE)}))),
    Claim("fig5.large_pages_cut_walks", "Fig. 5, §VII", "figure5", 12_000,
          "2M agile page-walk overhead <= 4K agile + 0.01",
          lambda r, ops: _worst(r, lambda c: (
              c[("4K", MODE_AGILE)].page_walk_overhead + 0.01
              - c[("2M", MODE_AGILE)].page_walk_overhead))),
    Claim("fig5.speedup_vs_best", "§VII-A", "figure5", 12_000,
          "geomean 4K speedup of agile over the best constituent > 1.0",
          lambda r, ops: _above(_headline(r)["geomean_speedup_vs_best"], 1.0)),
    Claim("fig5.slowdown_vs_native", "§VII-A", "figure5", 12_000,
          "geomean 4K slowdown vs native < 1.5 (< 1.35 from 60k ops)",
          lambda r, ops: _below(_headline(r)["geomean_slowdown_vs_native"],
                                _at_scale(ops, {12_000: 1.5, 60_000: 1.35}))),
    Claim("fig5.same_work", "Fig. 5", "figure5", 12_000,
          "every mode of a workload and page size saw the same ops, reads "
          "and writes",
          lambda r, ops: _same_work(r)),
    Claim("table4.model_matches_sim", "Table IV", "table4", 12_000,
          "model page-walk cycles match the simulator's within 1%",
          lambda r, ops: _model_matches_simulator(r)),
    Claim("twostep.projected_le_best", "§VI", "twostep", 12_000,
          "the two-step projection of agile <= best constituent + 0.02",
          lambda r, ops: _worst(r, lambda w: min(w["shadow"], w["nested"])
                                + 0.02 - w["projected"])),
    Claim("twostep.direct_le_best", "§VI", "twostep", 12_000,
          "direct agile simulation <= best constituent + 0.02",
          lambda r, ops: _worst(r, lambda w: min(w["shadow"], w["nested"])
                                + 0.02 - w["direct"])),
    Claim("table6.shadow_dominates", "Table VI, §VII-B", "table6", 12_000,
          "over half of each workload's misses are served in full shadow",
          lambda r, ops: _worst(r, lambda m: _above(_shadow(m), 0.5))),
    Claim("table6.shadow_over_80pct", "Table VI, §VII-B", "table6", 60_000,
          "the suite-average full-shadow fraction is > 80%",
          lambda r, ops: _above(sum(map(_shadow, r.values())) / len(r), 0.8)),
    Claim("table6.avg_refs", "Table VI", "table6", 12_000,
          "4 <= avg refs per miss < 24 (< 12 from 60k ops)",
          lambda r, ops: _worst(r, lambda m: min(
              m.avg_refs_per_miss - 4.0,
              _below(m.avg_refs_per_miss,
                     _at_scale(ops, {12_000: 24.0, 60_000: 12.0}))))),
    Claim("shsp.near_constituents", "§VII-C", "shsp", 12_000,
          "SHSP total overhead <= 1.1 x max(nested, shadow)",
          lambda r, ops: _worst(r, lambda w: 1.1 * max(
              _total(w[MODE_NESTED]), _total(w[MODE_SHADOW]))
              - _total(w[MODE_SHSP]))),
    Claim("shsp.agile_le_best", "§VII-C", "shsp", 12_000,
          "agile total overhead <= 1.05 x min(nested, shadow)",
          lambda r, ops: _worst(r, _agile_vs_best)),
    Claim("shsp.agile_le_shsp", "§VII-C", "shsp", 12_000,
          "agile total overhead <= 1.05 x SHSP",
          lambda r, ops: _worst(r, lambda w: 1.05 * _total(w[MODE_SHSP])
                                - _total(w[MODE_AGILE]))),
    Claim("hwopts.remove_traps", "§IV", "ablation_hwopts", 12_000,
          "agile with both optimizations takes no more VMtraps than with "
          "neither",
          lambda r, ops: _worst(r, lambda w: w["neither"].vmtraps
                                - w["both opts"].vmtraps)),
    Claim("hwopts.cr3_cache_absorbs_switches", "§IV", "ablation_hwopts",
          12_000, "dropping the CR3 cache adds context-switch traps on dedup",
          lambda r, ops: _above(
              r["dedup"]["no CR3 cache"].trap_counts.get("context_switch", 0),
              r["dedup"]["both opts"].trap_counts.get("context_switch", 0))),
    Claim("policies.eager_threshold", "§III-C", "ablation_policies", 12_000,
          "write threshold 1 takes no more VMtraps than threshold 8",
          lambda r, ops: r["threshold_8"].vmtraps - r["threshold_1"].vmtraps),
    Claim("policies.reversion_keeps_shadow", "§III-C", "ablation_policies",
          12_000, "full-shadow misses without reversion <= with dirty-bit "
          "reversion + 1e-9",
          lambda r, ops: (_shadow(r["dirty_reversion"]) + 1e-9
                          - _shadow(r["no_reversion"]))),
    Claim("features.cow_agile_le_shadow", "§V", "paging_features", 0,
          "COW sharing: agile takes no more VMtraps than shadow",
          lambda r, ops: (r["cow_sharing"][MODE_SHADOW].vmtraps
                          - r["cow_sharing"][MODE_AGILE].vmtraps)),
    Claim("features.reclaim_agile_lt_shadow", "§V", "paging_features", 0,
          "memory-pressure reclaim: agile takes fewer VMtraps than shadow",
          lambda r, ops: _below(r["mem_pressure"][MODE_AGILE].vmtraps,
                                r["mem_pressure"][MODE_SHADOW].vmtraps)),
    Claim("features.large_pages_run", "§V", "paging_features", 0,
          "2M pages translate under agile (the run completes ops)",
          lambda r, ops: _above(r["large_pages"][MODE_AGILE].ops, 0)),
    Claim("consolidation.agile_le_best", "§VII-A, consolidated",
          "consolidation", 2_000,
          "at the top VM count, agile per-VM overhead <= min(nested, shadow)",
          lambda r, ops: _consolidation(r)),
)

BY_ID = {claim.id: claim for claim in CLAIMS}


def claims_for(experiment):
    """The claims that read ``experiment``'s results, in ledger order."""
    return [claim for claim in CLAIMS if claim.experiment == experiment]


def min_ops(experiment):
    """The op budget at which every claim on ``experiment`` can be checked."""
    return max(claim.min_ops for claim in claims_for(experiment))


def check(experiment, results, ops, ids=None):
    """Evaluate ``experiment``'s claims (or only ``ids``) on ``results``
    run at ``ops``; returns ``{claim id: margin}``.

    Raises one :class:`ClaimError` naming every claim whose ``min_ops``
    exceeds ``ops`` (below it the relation is not expected to hold, so
    checking it would prove nothing), or else every claim that fails,
    with its margin.
    """
    selected = [claim for claim in claims_for(experiment)
                if ids is None or claim.id in ids]
    if not selected:
        raise KeyError("no claims for experiment %r" % (experiment,))
    too_small = {claim.id: None for claim in selected if ops < claim.min_ops}
    if too_small:
        raise ClaimError("%s at %d ops is below min_ops of %s" % (
            experiment, ops, ", ".join("%s (%d)" % (cid, BY_ID[cid].min_ops)
                                       for cid in too_small)), too_small)
    margins = {claim.id: claim.margin(results, ops) for claim in selected}
    failed = {cid: margin for cid, margin in margins.items()
              if not margin >= 0}
    if failed:
        raise ClaimError("%d claim(s) failed at %d ops:\n%s" % (
            len(failed), ops, "\n".join(
                "  %s (%s): %s; margin %r" % (
                    cid, BY_ID[cid].where, BY_ID[cid].relation, margin)
                for cid, margin in failed.items())), failed)
    return margins
