"""The consolidation subsystem: ledger, scheduler, ballooning.

The cross-VM isolation *oracle* (``repro.fuzz.isolation``) proves the
headline invariant statistically over fuzzed scenarios; these tests pin
the mechanisms it rests on, one at a time: config validation, commit
ledger accounting (including double-free protection on revoked frames),
weighted-quantum scheduling with deterministic preemption, and balloon
reclaim under genuine overcommit.
"""

import pytest

from repro.common.config import HostConfig, sandy_bridge_config
from repro.common.errors import SimulationError
from repro.core.simulator import run_workload
from repro.host.balloon import BalloonDriver
from repro.host.host import Host, run_consolidated
from repro.host.memory import HostMemoryManager, HostPressureError
from repro.vmm.traps import BALLOON_REVOKE, SHSP_REBUILD
from repro.vmm.vmm import VMM
from repro.workloads.consolidation import (
    ContextSwitchStorm,
    PackedHog,
    ReclaimThrasher,
)

VM_FRAMES = 4096


def agile_config(**overrides):
    overrides.setdefault("host_mem_frames", VM_FRAMES)
    return sandy_bridge_config(mode="agile", **overrides)


def run_thrashers_overcommitted():
    """Two reclaim thrashers whose footprints exceed 1,000 host frames."""
    return run_consolidated(
        [ReclaimThrasher(ops=900, seed=s, npages=768) for s in (3, 4)],
        HostConfig(vms=2, vm_frames=VM_FRAMES, host_frames=1000),
        agile_config())


class TestHostConfig:
    def test_rejects_zero_vms(self):
        with pytest.raises(ValueError, match="at least one VM"):
            HostConfig(vms=0)

    def test_rejects_bad_frame_counts(self):
        with pytest.raises(ValueError, match="vm_frames"):
            HostConfig(vm_frames=0)
        with pytest.raises(ValueError, match="host_frames"):
            HostConfig(host_frames=-1)

    def test_rejects_bad_quantum(self):
        with pytest.raises(ValueError, match="quantum_cycles"):
            HostConfig(quantum_cycles=0)

    def test_weights_must_name_every_vm_and_be_positive(self):
        with pytest.raises(ValueError, match="weights"):
            HostConfig(vms=3, weights=(1.0, 2.0))
        with pytest.raises(ValueError, match="positive"):
            HostConfig(vms=2, weights=(1.0, 0.0))
        config = HostConfig(vms=2, weights=(1.0, 2.5))
        assert config.weight_of(0) == 1.0
        assert config.weight_of(1) == 2.5
        assert HostConfig(vms=2).weight_of(1) == 1.0

    def test_commit_limit_and_overcommit_ratio(self):
        flat = HostConfig(vms=4, vm_frames=1000)
        assert flat.commit_limit_frames == 4000
        assert flat.overcommit_ratio == 1.0
        packed = HostConfig(vms=4, vm_frames=1000, host_frames=2000)
        assert packed.commit_limit_frames == 2000
        assert packed.overcommit_ratio == 2.0


class TestHostMemoryManager:
    def test_charge_credit_roundtrip(self):
        ledger = HostMemoryManager(100)
        ledger.attach_vm(0, 60)
        ledger.attach_vm(1, 60)
        ledger.charge(0, 30)
        ledger.charge(1, 50)
        assert ledger.total_committed == 80
        assert ledger.available == 20
        assert ledger.overcommitted
        ledger.credit(1, 10)
        assert ledger.committed == {0: 30, 1: 40}

    def test_credit_of_never_charged_frames_raises(self):
        ledger = HostMemoryManager(100)
        ledger.attach_vm(0, 50)
        ledger.charge(0, 5)
        with pytest.raises(SimulationError, match="never charged"):
            ledger.credit(0, 6)

    def test_exhaustion_without_pressure_handler(self):
        ledger = HostMemoryManager(10)
        ledger.attach_vm(0, 20)
        with pytest.raises(HostPressureError, match="reclaim freed nothing"):
            ledger.charge(0, 11)

    def test_pressure_handler_runs_until_charge_fits(self):
        ledger = HostMemoryManager(10)
        ledger.attach_vm(0, 8)
        ledger.attach_vm(1, 8)
        ledger.charge(0, 8)
        calls = []

        def reclaim(requester, need):
            calls.append((requester, need))
            ledger.credit(0, need)  # evict the hog on vm 0's behalf
            return need

        ledger.pressure_handler = reclaim
        ledger.charge(1, 6)
        assert calls == [(1, 4)]
        assert ledger.total_committed == 10
        assert ledger.reclaim_episodes == 1
        assert ledger.frames_reclaimed == 4

    def test_attach_vm_twice_raises(self):
        ledger = HostMemoryManager(100)
        ledger.attach_vm(0, 50)
        with pytest.raises(SimulationError, match="already attached"):
            ledger.attach_vm(0, 50)


class TestMeteredMemory:
    def test_vm_local_frames_match_solo_geometry(self):
        ledger = HostMemoryManager(128)
        mem0 = ledger.attach_vm(0, 64)
        mem1 = ledger.attach_vm(1, 64)
        f0, f1 = mem0.alloc_frame(), mem1.alloc_frame()
        # Both VMs hand out the same *local* frame number; the global
        # partition origin keeps them physically disjoint.
        assert f0 == f1
        assert mem0.global_frame(f0) != mem1.global_frame(f1)
        assert ledger.committed == {0: 1, 1: 1}

    def test_double_free_of_revoked_frame_is_refused(self):
        ledger = HostMemoryManager(128)
        mem = ledger.attach_vm(0, 64)
        frame = mem.alloc_frame()
        assert mem.live_frames == 1
        mem.free_frame(frame)
        assert mem.live_frames == 0
        with pytest.raises(SimulationError, match="double free"):
            mem.free_frame(frame)
        # The refused free must not have corrupted the ledger.
        assert ledger.committed[0] == 0


def ticker(system, cycles):
    """An endless program that burns ``cycles`` of vCPU time per step."""
    def factory(_api):
        def run():
            while True:
                system.clock.advance(cycles)
                yield
        return run()
    return factory


class TestScheduler:
    def test_weighted_quanta_bound_cpu_time(self):
        quantum, step, rounds = 10_000, 500, 32
        host = Host(HostConfig(vms=2, weights=(1.0, 3.0),
                               quantum_cycles=quantum,
                               vm_frames=VM_FRAMES),
                    machine_config=agile_config())
        host.load([ticker(vm.system, step) for vm in host.vms])
        for _ in range(rounds):
            for vm in host.vms:
                host.scheduler.run_quantum(vm)
        light, heavy = host.vms
        # Per quantum a VM gets quantum*weight cycles, overshooting by
        # at most one step (preemption only lands on yield points).
        assert quantum * rounds <= light.cpu_cycles \
            <= (quantum + step) * rounds
        assert 3 * quantum * rounds <= heavy.cpu_cycles \
            <= (3 * quantum + step) * rounds
        ratio = heavy.cpu_cycles / light.cpu_cycles
        assert 2.8 <= ratio <= 3.2
        # World switches were charged to the host clock, not to vCPUs.
        assert host.scheduler.world_switches == 2 * rounds - 1
        assert host.clock.now == (light.cpu_cycles + heavy.cpu_cycles
                                  + host.scheduler.world_switch_cycles)

    @pytest.mark.parametrize("mode", ["nested", "shadow", "agile"])
    def test_two_vms_finish_every_op_across_world_switches(self, mode):
        per_vm, report = run_consolidated(
            [ContextSwitchStorm(ops=600, seed=7 + i) for i in range(2)],
            HostConfig(vms=2, vm_frames=VM_FRAMES),
            sandy_bridge_config(mode=mode, host_mem_frames=VM_FRAMES))
        assert [m.ops for m in per_vm] == [600, 600]
        assert report["world_switches"] > 0

    def test_consolidated_run_is_deterministic(self):
        def once():
            per_vm, report = run_consolidated(
                [ContextSwitchStorm(ops=1_000, seed=7 + i)
                 for i in range(2)],
                HostConfig(vms=2, vm_frames=VM_FRAMES),
                agile_config())
            return [m.to_dict() for m in per_vm], report

        assert once() == once()

    def test_preemption_is_invisible_to_the_guest(self):
        """serial == resumed-from-preemption: a guest sliced into many
        quanta reports bit-identical metrics to one that ran its whole
        program inside a single quantum."""
        def run_with_quantum(quantum_cycles):
            per_vm, _report = run_consolidated(
                [ContextSwitchStorm(ops=1_200, seed=11)],
                HostConfig(vms=1, vm_frames=VM_FRAMES,
                           quantum_cycles=quantum_cycles),
                agile_config())
            return per_vm[0].to_dict()

        sliced = run_with_quantum(2_000)       # hundreds of preemptions
        serial = run_with_quantum(1 << 40)     # one uninterrupted slice
        assert sliced == serial

    def _assert_consolidated_match_solo(self, mode, ops):
        config = agile_config().with_mode(mode)
        solo = run_workload(ContextSwitchStorm(ops=ops, seed=7),
                            config).to_dict()
        per_vm, _report = run_consolidated(
            [ContextSwitchStorm(ops=ops, seed=7) for _ in range(2)],
            HostConfig(vms=2, vm_frames=VM_FRAMES, vpid=True),
            config)
        for metrics in per_vm:
            got = metrics.to_dict()
            got["label"] = solo["label"]
            assert got == solo
        return solo

    def test_consolidated_guest_metrics_match_solo(self):
        """With VPID and no overcommit, every consolidated VM's metrics
        (cycles included — each VM runs on its own virtual clock) equal
        a solo run of the same workload on a reservation-sized machine."""
        self._assert_consolidated_match_solo("agile", 1_000)

    def test_consolidated_shsp_metrics_match_solo(self):
        """The same under SHSP, whose decision epochs read the VM's
        virtual clock: its switches land on the same ops as solo."""
        solo = self._assert_consolidated_match_solo("shsp", 5_000)
        # Nested=>shadow switches inside the measured window.
        assert solo["trap_counts"].get(SHSP_REBUILD, 0) > 0


class TestBallooning:
    def test_no_overcommit_never_balloons(self):
        _per_vm, report = run_consolidated(
            [PackedHog(ops=800, seed=s, npages=256) for s in (1, 2)],
            HostConfig(vms=2, vm_frames=VM_FRAMES), agile_config())
        assert report["balloon_episodes"] == 0
        assert report["balloon_frames"] == 0

    def test_overcommit_reclaims_and_run_completes(self):
        # Two thrashers whose footprints sum past physical RAM (each
        # commits ~570 host frames at this op budget): the ledger must
        # stay at or under the commit limit throughout, and ballooning
        # must actually have fired.
        host_frames = 1000
        host = Host(HostConfig(vms=2, vm_frames=VM_FRAMES,
                               host_frames=host_frames),
                    machine_config=agile_config())
        host.load([ReclaimThrasher(ops=900, seed=s, npages=768).program
                   for s in (3, 4)])
        host.run()
        per_vm = host.collect_metrics()
        report = host.host_report()
        assert report["overcommit_ratio"] > 1.0
        assert report["balloon_episodes"] > 0
        assert report["balloon_frames"] > 0
        ledger = report["ledger"]
        assert ledger["total_frames"] == host_frames
        assert sum(ledger["committed"].values()) <= host_frames
        # Both guests still finished their full op budget.
        assert all(m.ops == 900 for m in per_vm)
        # Victim-side accounting reached the per-VM counters.
        assert sum(v["balloon_frames"] for v in report["per_vm"]) \
            == report["balloon_frames"]
        # Cycle conservation: host time is the VMs' virtual time plus
        # the world switches, balloon episodes included.
        assert host.clock.now == (
            sum(vm.system.clock.now for vm in host.vms)
            + report["world_switch_cycles"])

    def test_unattributed_host_advance_fails_the_run(self, monkeypatch):
        reclaim = BalloonDriver.reclaim

        def advancing_reclaim(self, requester_vm_id, need):
            freed = reclaim(self, requester_vm_id, need)
            self.clock.advance(freed)
            return freed

        monkeypatch.setattr(BalloonDriver, "reclaim", advancing_reclaim)
        with pytest.raises(SimulationError, match="unattributed cycles"):
            run_thrashers_overcommitted()

    def test_uncharged_revocation_fails_the_run(self, monkeypatch):
        # The victim's clock advances but no trap is recorded: the host
        # identity still holds, the victim's own conservation does not.
        trap = VMM._trap

        def uncharged(self, kind, cycles):
            if kind == BALLOON_REVOKE:
                self.clock.advance(cycles)
            else:
                trap(self, kind, cycles)

        monkeypatch.setattr(VMM, "_trap", uncharged)
        with pytest.raises(SimulationError, match="charged to no counter"):
            run_thrashers_overcommitted()
