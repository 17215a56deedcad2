"""The claims ledger: every claim at tier-1 scale, the ledger's own
rules, planted regressions that must flip claims, and determinism of
one Figure 5 cell across hash seeds and worker counts."""

import json
import os
import subprocess
import sys

import pytest

from repro.analysis import claims, experiments
from repro.analysis.claims import CLAIMS, ClaimError

from tests.analysis.ledger import SMALL

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                   os.pardir, "src")


@pytest.mark.parametrize("claim", CLAIMS, ids=lambda claim: claim.id)
def test_claim_holds_at_min_ops(ledger, claim):
    assert ledger.check(claim.id) >= 0


class TestLedger:
    def test_ids_are_unique_and_every_experiment_has_a_small_scale(self):
        assert len(claims.BY_ID) == len(CLAIMS)
        assert {claim.experiment for claim in CLAIMS} == set(SMALL)

    def test_fig5_below_min_ops_raises_naming_min_ops(self):
        # At 6,000 ops every 4K agile/shadow/native total is equal and
        # every 2M total is 0.0: the Figure 5 claims would prove nothing.
        with pytest.raises(ClaimError, match="min_ops") as info:
            claims.check("figure5", {}, 6_000)
        assert set(info.value.failed) == {
            claim.id for claim in claims.claims_for("figure5")}

    def test_failing_claims_are_named_with_their_margins(self):
        totals = dict(claims.PAPER_WALK_REFS, nested=23)
        with pytest.raises(ClaimError, match="table2.walk_refs") as info:
            claims.check("table2", totals, 0)
        assert info.value.failed == {"table2.walk_refs": -1}

    def test_strict_relations_fail_on_equality(self):
        assert claims._above(1.0, 1.0) < 0 <= claims._above(1.0 + 1e-12, 1.0)
        assert claims._below(1.35, 1.35) < 0 <= claims._below(1.3, 1.35)
        assert claims._above(3, 3) == -1 and claims._below(2, 3) == 0

    def test_bounds_tighten_with_scale(self):
        bounds = {12_000: 1.5, 60_000: 1.35}
        assert claims._at_scale(12_000, bounds) == 1.5
        assert claims._at_scale(59_999, bounds) == 1.5
        assert claims._at_scale(200_000, bounds) == 1.35


class TestPlantedRegressions:
    """Each regression, planted with monkeypatch, fails a named claim."""

    def test_switching_bits_off_flips_table2(self, monkeypatch):
        from repro.vmm.shadowmgr import ShadowManager

        monkeypatch.setattr(ShadowManager, "switch_to_nested",
                            lambda self, node_gfn: None)
        with pytest.raises(ClaimError) as info:
            claims.check("table2", experiments.table2_measurements(), 0)
        assert "table2.walk_refs" in info.value.failed

    def test_cr3_cache_always_missing_flips_hwopts(self, monkeypatch):
        from repro.hw.cr3cache import CR3Cache

        monkeypatch.setattr(CR3Cache, "lookup", lambda self, gcr3: None)
        claim = claims.BY_ID["hwopts.cr3_cache_absorbs_switches"]
        results = SMALL["ablation_hwopts"](claim.min_ops, None)
        with pytest.raises(ClaimError) as info:
            claims.check(claim.experiment, results, claim.min_ops)
        assert claim.id in info.value.failed

    def test_untrapped_guest_pt_writes_flip_table1(self, monkeypatch):
        from repro.vmm.vmm import VMM

        monkeypatch.setattr(VMM, "_on_gpt_write",
                            lambda self, pid, node, index, old, new: None)
        with pytest.raises(ClaimError) as info:
            claims.check("table1", experiments.table1_measurements(), 0)
        assert "table1.shadow_updates_trap" in info.value.failed


_CELL_SCRIPT = """
import json, sys
from repro.analysis.experiments import figure5_cells
from repro.runner import SweepRunner
cells = figure5_cells(ops=4_000, workload_names={"dedup"}, modes=("agile",))
sweep = SweepRunner(workers=int(sys.argv[1])).run(cells).raise_on_failure()
print(json.dumps({"key": cells[0].cell_key(),
                  "metrics": sweep.metrics_for(cells[0]).to_dict()}))
"""


def test_fig5_cell_identical_across_hash_seeds_and_workers():
    """One agile Figure 5 cell gives the same RunMetrics and cache key
    under two PYTHONHASHSEED values and one or two pool workers."""
    runs = {}
    for seed in ("0", "4242"):
        for workers in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=SRC)
            runs[(seed, workers)] = subprocess.Popen(
                [sys.executable, "-c", _CELL_SCRIPT, workers], env=env,
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    outputs = {}
    try:
        for key, proc in runs.items():
            stdout, stderr = proc.communicate(timeout=300)
            assert proc.returncode == 0, stderr
            outputs[key] = json.loads(stdout)
    finally:
        for proc in runs.values():
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    first = outputs[("0", "1")]
    assert first["metrics"]["ops"] == 4_000
    for key, output in outputs.items():
        assert output == first, key
