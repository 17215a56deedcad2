"""Integration tests for the assembled System across all four modes."""

import pytest

from repro.common.config import sandy_bridge_config
from repro.common.errors import SimulationError
from repro.common.params import TWO_MB
from repro.core.machine import System
from repro.core.simulator import MachineAPI, run_workload
from repro.vmm.vmm import VMM
from repro.workloads.suite import DedupLike

ALL_MODES = ("native", "nested", "shadow", "agile")


def build(mode, page_size=None, **overrides):
    config = sandy_bridge_config(mode=mode, **overrides)
    if page_size is not None:
        config = config.with_page_size(page_size)
    system = System(config)
    return system, MachineAPI(system)


class TestBasicAccess:
    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_read_after_write_round_trip(self, mode):
        system, api = build(mode)
        api.spawn()
        base = api.mmap(32 << 12)
        for i in range(32):
            api.write(base + i * 4096 + 7)
        for i in range(32):
            api.read(base + i * 4096 + 99)
        assert system.ops == 64
        assert system.clock.now > 0

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_repeat_access_hits_tlb(self, mode):
        system, api = build(mode)
        api.spawn()
        base = api.mmap(1 << 12)
        api.write(base)
        misses_after_first = system.mmu.counters.tlb_misses
        for _i in range(10):
            api.read(base)
        assert system.mmu.counters.tlb_misses == misses_after_first

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_access_without_process_raises(self, mode):
        system, _api = build(mode)
        with pytest.raises(SimulationError):
            system.access(0x1000)

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_translation_consistency(self, mode):
        """The same VA reaches the same frame via TLB hit and via walk."""
        system, api = build(mode)
        api.spawn()
        base = api.mmap(1 << 12)
        first = api.write(base)
        second = api.read(base)  # TLB hit
        system.mmu.flush_all()
        third = api.read(base)  # fresh walk
        assert first.frame == second.frame == third.frame


class TestTwoMegPages:
    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_2m_round_trip(self, mode):
        system, api = build(mode, page_size=TWO_MB)
        api.spawn(code_pages=1)
        base = api.mmap(4 << 21)
        for i in range(4):
            api.write(base + i * (1 << 21) + 12345)
        for i in range(4):
            api.read(base + i * (1 << 21))
        assert system.mmu.counters.tlb_misses <= 8

    def test_2m_native_walk_is_3_refs(self):
        from dataclasses import replace

        config = sandy_bridge_config(mode="native", pwc=replace(
            sandy_bridge_config().pwc, enabled=False)).with_page_size(TWO_MB)
        system = System(config)
        api = MachineAPI(system)
        api.spawn(code_pages=0)
        base = api.mmap(1 << 21)
        api.write(base)
        system.mmu.flush_all()
        before = system.mmu.counters.walk_refs
        api.read(base)
        assert system.mmu.counters.walk_refs - before == 3


class TestCycleAccounting:
    def test_ideal_cycles_track_ops(self):
        system, api = build("native")
        api.spawn()
        base = api.mmap(4 << 12)
        for i in range(4):
            api.write(base + i * 4096)
        assert system.ideal_cycles == 8  # 4 ops x 2 cycles/op

    def test_clock_includes_all_components(self):
        system, api = build("shadow")
        api.spawn()
        base = api.mmap(8 << 12)
        for i in range(8):
            api.write(base + i * 4096)
        parts = (
            system.ideal_cycles
            + system.walk_cycles
            + system.tlb_l2_cycles
            + system.guest_fault_cycles
            + system.vmm.traps.total_attributed_cycles
        )
        assert system.clock.now == parts

    @pytest.mark.parametrize("mode", ["native", "nested", "shadow", "agile"])
    def test_clock_decomposes_in_every_mode(self, mode):
        system, api = build(mode)
        api.spawn()
        base = api.mmap(8 << 12)
        for i in range(8):
            api.write(base + i * 4096)
        parts = (
            system.ideal_cycles
            + system.walk_cycles
            + system.tlb_l2_cycles
            + system.guest_fault_cycles
            + (system.vmm.traps.total_attributed_cycles
               if system.vmm is not None else 0)
        )
        assert system.clock.now == parts

    def test_uncharged_advance_fails_collect_metrics(self):
        system, api = build("agile")
        api.spawn()
        api.write(api.mmap(1 << 12))
        system.collect_metrics()
        system.clock.advance(7)
        with pytest.raises(SimulationError, match="7 cycles on the clock"):
            system.collect_metrics()

    def test_native_metrics_have_no_vmm(self):
        system, api = build("native")
        api.spawn()
        base = api.mmap(4 << 12)
        api.write(base)
        metrics = system.collect_metrics()
        assert metrics.vmm_overhead == 0.0
        assert metrics.vmtraps == 0


class TestMetricsCollection:
    def test_summary_fields(self):
        system, api = build("agile")
        api.spawn()
        base = api.mmap(16 << 12)
        for i in range(16):
            api.write(base + i * 4096)
        metrics = system.collect_metrics("demo")
        summary = metrics.summary()
        assert summary["label"] == "demo"
        assert summary["mode"] == "agile"
        assert summary["ops"] == 16
        assert summary["tlb_misses"] >= 16
        assert metrics.total_cycles == system.clock.now

    def test_mode_mix_sums_to_one(self):
        system, api = build("agile")
        api.spawn()
        base = api.mmap(32 << 12)
        for _round in range(3):
            for i in range(32):
                api.access(base + i * 4096, _round == 0)
        mix = system.collect_metrics().mode_mix()
        assert mix
        assert abs(sum(mix.values()) - 1.0) < 1e-9

    def test_mode_mix_empty_for_native(self):
        system, api = build("native")
        api.spawn()
        base = api.mmap(1 << 12)
        api.read(base)
        assert system.collect_metrics().mode_mix() == {}


class TestPolicyEpoch:
    def test_miss_rate_never_negative_after_measurement_start(
            self, monkeypatch):
        """reset_counters restarts the epoch miss base with the TLB-miss
        counter, so the VMM is never handed a negative miss rate."""
        rates = []
        set_miss_rate = VMM.set_miss_rate

        def spy(vmm, rate):
            rates.append(rate)
            set_miss_rate(vmm, rate)

        monkeypatch.setattr(VMM, "set_miss_rate", spy)
        run_workload(DedupLike, seed=1, ops=20_000, mode="agile")
        assert rates and min(rates) >= 0


class TestMultiProcess:
    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_round_robin_processes(self, mode):
        system, api = build(mode)
        procs = [api.spawn() for _ in range(3)]
        bases = {}
        for proc in procs:
            api.switch_to(proc)
            bases[proc.pid] = api.mmap(8 << 12)
        for _round in range(4):
            for proc in procs:
                api.switch_to(proc)
                for i in range(8):
                    api.read(bases[proc.pid] + i * 4096)
        # ASIDs keep processes' translations separate and correct.
        assert system.ops == 3 * 8 * 4

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_fork_cow_under_each_mode(self, mode):
        system, api = build(mode)
        parent = api.spawn()
        base = api.mmap(8 << 12)
        for i in range(8):
            api.write(base + i * 4096)
        child = api.fork()
        api.write(base)  # parent COW break: parent gets a private copy
        api.switch_to(child)
        api.read(base)
        parent_frame = parent.page_table.translate(base)[0]
        child_frame = child.page_table.translate(base)[0]
        assert parent_frame != child_frame


class TestStateDigest:
    @pytest.mark.parametrize("mode", ALL_MODES + ("shsp",))
    def test_digest_does_not_perturb_the_run(self, mode, monkeypatch):
        """Taking a digest at every policy epoch leaves the metrics alone."""
        plain = run_workload(DedupLike(ops=3_000, seed=5),
                             sandy_bridge_config(mode=mode))
        epoch = System._policy_epoch
        digests = []

        def digesting_epoch(self):
            digests.append(self.state_digest())
            epoch(self)

        monkeypatch.setattr(System, "_policy_epoch", digesting_epoch)
        probed = run_workload(DedupLike(ops=3_000, seed=5),
                              sandy_bridge_config(mode=mode))
        assert digests
        assert probed.to_dict() == plain.to_dict()

    def test_digest_sees_accessed_bits_and_lru_order(self):
        system, api = build("agile")
        proc = api.spawn()
        base = api.mmap(2 << 12)
        api.write(base)
        api.write(base + 4096)
        before = system.state_digest()
        assert system.state_digest() == before
        api.read(base)  # a TLB hit: only the LRU order moves
        after_hit = system.state_digest()
        assert after_hit != before
        leaf, _level = proc.page_table.lookup(base)
        leaf.accessed = not leaf.accessed
        assert system.state_digest() != after_hit
