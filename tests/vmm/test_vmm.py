"""Tests for the VMM facade, exercised through a full System."""

import pytest

from repro.common.config import sandy_bridge_config
from repro.core.machine import System
from repro.core.simulator import MachineAPI
from repro.vmm import traps as T


def make(mode, **overrides):
    system = System(sandy_bridge_config(mode=mode, **overrides))
    return system, MachineAPI(system)


def touch_pages(api, base, count, write=False):
    for i in range(count):
        api.access(base + i * 4096, write)


class TestNestedMode:
    def test_no_pt_write_traps(self):
        system, api = make("nested")
        api.spawn()
        base = api.mmap(64 << 12)
        touch_pages(api, base, 64, write=True)
        assert system.vmm.traps.count(T.PT_WRITE) == 0

    def test_host_faults_back_guest_frames(self):
        system, api = make("nested")
        api.spawn()
        base = api.mmap(8 << 12)
        touch_pages(api, base, 8)
        assert system.vmm.traps.count(T.HOST_FAULT) >= 8

    def test_context_switch_free(self):
        system, api = make("nested")
        first = api.spawn()
        second = api.spawn()
        api.switch_to(second)
        api.switch_to(first)
        assert system.vmm.traps.count(T.CONTEXT_SWITCH) == 0

    def test_walks_are_2d(self):
        system, api = make("nested", pwc=type(
            sandy_bridge_config().pwc)(enabled=False))
        api.spawn()
        base = api.mmap(4 << 12)
        touch_pages(api, base, 4)
        touch_pages(api, base, 4)  # re-touch: host frames already backed
        # After warmup, a fresh miss costs 24 refs; flush to force misses.
        system.mmu.flush_all()
        before = system.mmu.counters.walk_refs
        api.read(base)
        assert system.mmu.counters.walk_refs - before == 24


class TestShadowMode:
    def test_pt_writes_trap(self):
        system, api = make("shadow")
        api.spawn()
        base = api.mmap(16 << 12)
        touch_pages(api, base, 16, write=True)
        assert system.vmm.traps.count(T.PT_WRITE) >= 16

    def test_walks_are_native_speed(self):
        system, api = make("shadow", pwc=type(
            sandy_bridge_config().pwc)(enabled=False))
        api.spawn()
        base = api.mmap(4 << 12)
        touch_pages(api, base, 4)
        system.mmu.flush_all()
        before = system.mmu.counters.walk_refs
        api.read(base)
        assert system.mmu.counters.walk_refs - before == 4

    def test_context_switch_traps(self):
        system, api = make("shadow")
        first = api.spawn()
        second = api.spawn()
        api.switch_to(second)
        api.switch_to(first)
        assert system.vmm.traps.count(T.CONTEXT_SWITCH) == 2

    def test_first_write_pays_dirty_sync(self):
        system, api = make("shadow")
        api.spawn()
        base = api.mmap(4 << 12)
        touch_pages(api, base, 4)  # reads: fills are read-only
        before = system.vmm.traps.count(T.DIRTY_SYNC)
        api.write(base)
        assert system.vmm.traps.count(T.DIRTY_SYNC) == before + 1
        # Second write: no further trap.
        api.write(base)
        assert system.vmm.traps.count(T.DIRTY_SYNC) == before + 1

    def test_cow_write_injects_guest_fault(self):
        system, api = make("shadow")
        api.spawn()
        base = api.mmap(4 << 12)
        touch_pages(api, base, 4, write=True)
        api.dedup(base, 4 << 12, group=2)
        faults_before = system.guest_faults
        api.write(base + 4096)  # breaks COW sharing
        assert system.guest_faults > faults_before

    def test_invlpg_traps(self):
        system, api = make("shadow")
        api.spawn()
        base = api.mmap(4 << 12)
        touch_pages(api, base, 4, write=True)
        before = system.vmm.traps.count(T.INVLPG)
        api.munmap(base, 4 << 12)
        assert system.vmm.traps.count(T.INVLPG) == before + 4


class TestAgileMode:
    def test_far_fewer_pt_traps_than_shadow(self):
        results = {}
        for mode in ("shadow", "agile"):
            system, api = make(mode)
            api.spawn()
            base = api.mmap(256 << 12)
            touch_pages(api, base, 256, write=True)
            results[mode] = system.vmm.traps.count(T.PT_WRITE)
        assert results["agile"] < results["shadow"] / 4

    def test_cr3_cache_elides_context_switch_traps(self):
        system, api = make("agile")
        first = api.spawn()
        second = api.spawn()
        for _round in range(5):
            api.switch_to(second)
            api.switch_to(first)
        traps = system.vmm.traps.count(T.CONTEXT_SWITCH)
        hits = system.vmm.traps.counts.get(T.CR3_CACHE_HIT, 0)
        assert traps == 2  # one cold miss per process
        assert hits == 8

    def test_no_cr3_cache_means_traps(self):
        system, api = make("agile", hw_cr3_cache=False)
        first = api.spawn()
        second = api.spawn()
        for _round in range(5):
            api.switch_to(second)
            api.switch_to(first)
        assert system.vmm.traps.count(T.CONTEXT_SWITCH) == 10

    def test_ad_assist_replaces_dirty_traps(self):
        system, api = make("agile", hw_ad_assist=True)
        api.spawn()
        base = api.mmap(4 << 12)
        touch_pages(api, base, 4)
        api.write(base)
        assert system.vmm.traps.count(T.DIRTY_SYNC) == 0

    def test_without_ad_assist_dirty_traps_return(self):
        from dataclasses import replace

        # Keep the leaf shadow-covered (huge write threshold) so the
        # dirty-bit protocol is observable.
        config = sandy_bridge_config(mode="agile", hw_ad_assist=False)
        config = replace(config, policy=replace(config.policy, write_threshold=10_000))
        from repro.core.machine import System as _System

        system = _System(config)
        api = MachineAPI(system)
        api.spawn()
        base = api.mmap(4 << 12)
        touch_pages(api, base, 4)
        api.write(base)
        assert system.vmm.traps.count(T.DIRTY_SYNC) == 1

    def test_mode_mix_recorded(self):
        system, api = make("agile")
        api.spawn()
        base = api.mmap(64 << 12)
        touch_pages(api, base, 64, write=True)
        for _round in range(3):
            touch_pages(api, base, 64)
        depth_counts = system.mmu.counters.walks_by_depth
        assert sum(depth_counts.values()) == system.mmu.counters.tlb_misses

    def test_nested_coverage_reported(self):
        system, api = make("agile")
        proc = api.spawn()
        base = api.mmap(64 << 12)
        touch_pages(api, base, 64, write=True)
        coverage = system.vmm.nested_coverage(proc)
        assert 0.0 <= coverage <= 1.0

    def test_start_nested_policy(self):
        from dataclasses import replace

        config = sandy_bridge_config(mode="agile")
        config = replace(config, policy=replace(config.policy, start_nested=True))
        system = System(config)
        api = MachineAPI(system)
        proc = api.spawn()
        base = api.mmap(8 << 12)
        touch_pages(api, base, 8, write=True)
        assert system.vmm.states[proc.pid].manager.fully_nested
        assert system.vmm.traps.count(T.PT_WRITE) == 0


class TestProcessTeardown:
    @pytest.mark.parametrize("mode", ["nested", "shadow", "agile"])
    def test_exit_cleans_up(self, mode):
        system, api = make(mode)
        keeper = api.spawn()
        victim = api.spawn()
        api.switch_to(victim)
        base = api.mmap(8 << 12)
        touch_pages(api, base, 8, write=True)
        api.switch_to(keeper)
        api.exit(victim)
        assert victim.pid not in system.vmm.states
        # The survivor still runs fine.
        base2 = api.mmap(4 << 12)
        touch_pages(api, base2, 4, write=True)
