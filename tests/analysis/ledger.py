"""The claims ledger at tier-1 scale, shared by the analysis tests.

Each experiment runs once per session, at the ``min_ops`` of the claim
being checked, on the small workload subset declared in :data:`SMALL`.
The grid drivers share one result cache, so a cell that several
experiments read (mcf/agile/4K for Figure 5, SHSP, Table IV and the
two-step comparison) is simulated once.
"""

from repro.analysis import claims, experiments
from repro.runner import ResultCache, SweepRunner

#: How tier-1 runs each experiment: ``run(ops, runner) -> results``.
SMALL = {
    "table1": lambda ops, runner: experiments.table1_measurements(),
    "table2": lambda ops, runner: experiments.table2_measurements(),
    "figure3": lambda ops, runner: experiments.figure3_journals(),
    "paging_features": lambda ops, runner: experiments.paging_features(),
    "figure5": lambda ops, runner: experiments.figure5(
        ops=ops, workload_names={"mcf", "dedup"}, runner=runner),
    "table4": lambda ops, runner: experiments.table4(ops=ops, runner=runner),
    "twostep": lambda ops, runner: experiments.twostep(
        ops=ops, workload_names=("mcf",), runner=runner),
    "table6": lambda ops, runner: experiments.table6(
        ops=ops, workload_names={"canneal", "dedup"}, runner=runner),
    "shsp": lambda ops, runner: experiments.shsp_comparison(
        ops=ops, workload_names=("mcf", "dedup"), runner=runner),
    "ablation_hwopts": lambda ops, runner: experiments.hwopt_ablation(
        ops=ops, workload_names=("dedup",), runner=runner),
    "ablation_policies": lambda ops, runner: experiments.policy_ablation(
        ops=ops, runner=runner),
    "consolidation": lambda ops, runner: experiments.consolidation(ops=ops),
}


class Ledger:
    """Memoized small-scale experiment results and claim checks."""

    def __init__(self, cache_dir):
        self.runner = SweepRunner(workers=1, cache=ResultCache(cache_dir))
        self._results = {}

    def results(self, experiment, ops):
        key = (experiment, ops)
        if key not in self._results:
            self._results[key] = SMALL[experiment](ops, self.runner)
        return self._results[key]

    def check(self, claim_id):
        """Check one claim at its ``min_ops``; returns its margin."""
        claim = claims.BY_ID[claim_id]
        results = self.results(claim.experiment, claim.min_ops)
        return claims.check(claim.experiment, results, claim.min_ops,
                            ids={claim_id})[claim_id]
