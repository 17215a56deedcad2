"""Fuzzed coverage for the Section IV hardware caches.

Uses ctx-switch-heavy scenarios to check the paper's promise directly:
the gCR3 cache turns context-switch VMtraps into hardware hits without
changing *any* guest-visible state.
"""

import pytest

from repro.fuzz.oracle import ScenarioRunner, build_system
from repro.fuzz.scenario import ScenarioGenerator
from repro.hw.cr3cache import CR3Cache
from repro.vmm.traps import CONTEXT_SWITCH, CR3_CACHE_HIT

SEEDS = (1, 4, 9)


def _run(mode, seed, **overrides):
    scenario = ScenarioGenerator("ctx").generate(seed=seed, ops=150)
    runner = ScenarioRunner(build_system(mode, **overrides))
    runner.run(scenario)
    return runner


class TestCR3Cache:
    """hw/cr3cache.py under fuzzed context-switch churn."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_hits_eliminate_exactly_the_promised_traps(self, seed):
        """Section IV: every gCR3-cache hit is one context-switch VMtrap
        that pure (cache-less) agile would have taken — no more, no
        less. The books must balance exactly."""
        with_cache = _run("agile", seed, hw_cr3_cache=True)
        without = _run("agile", seed, hw_cr3_cache=False)
        hits = with_cache.trap_counts().get(CR3_CACHE_HIT, 0)
        ctx_with = with_cache.trap_counts().get(CONTEXT_SWITCH, 0)
        ctx_without = without.trap_counts().get(CONTEXT_SWITCH, 0)
        assert hits > 0, "ctx profile never hit the gCR3 cache"
        assert ctx_with + hits == ctx_without
        assert without.trap_counts().get(CR3_CACHE_HIT, 0) == 0

    @pytest.mark.parametrize("seed", SEEDS)
    def test_cache_is_guest_invisible(self, seed):
        """The cache may only change trap counts, never guest state.

        hw_ad_assist is disabled because the assist syncs guest dirty
        bits lazily on a clock-driven schedule, and the cache (by
        eliminating trap cycles) legitimately shifts that schedule;
        with the assist off, A/D updates are synchronous and the
        comparison is exact.
        """
        with_cache = _run("agile", seed, hw_cr3_cache=True,
                          hw_ad_assist=False)
        without = _run("agile", seed, hw_cr3_cache=False,
                       hw_ad_assist=False)
        assert with_cache.leaf_snapshot() == without.leaf_snapshot()
        assert with_cache.fault_counters() == without.fault_counters()

    def test_stats_agree_with_trap_counter(self, monkeypatch):
        """Every gCR3-cache hit is counted once, as a CR3_CACHE_HIT trap."""
        hits = []
        lookup = CR3Cache.lookup

        def counting_lookup(cache, gcr3):
            sptr = lookup(cache, gcr3)
            hits.append(sptr is not None)
            return sptr

        monkeypatch.setattr(CR3Cache, "lookup", counting_lookup)
        runner = _run("agile", 1, hw_cr3_cache=True)
        assert runner.system.vmm.cr3cache is not None
        assert sum(hits) > 0
        assert sum(hits) == runner.trap_counts().get(CR3_CACHE_HIT, 0)

    def test_shadow_mode_never_uses_the_cache(self):
        """The gCR3 cache is an agile-paging feature (Section IV)."""
        runner = _run("shadow", 1, hw_cr3_cache=True)
        assert runner.system.vmm.cr3cache is None
        assert runner.trap_counts().get(CR3_CACHE_HIT, 0) == 0
