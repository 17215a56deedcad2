"""Unit tests for the fault taxonomy and the virtual clock."""

import pytest

from repro.common.clock import Clock, VirtualClock
from repro.common.errors import (
    GuestPageFault,
    HostPageFault,
    ShadowNotPresentFault,
    ShadowProtectionFault,
    SimulationError,
    TranslationFault,
    VMExit,
)


class TestFaultHierarchy:
    def test_guest_fault_is_not_a_vmexit(self):
        fault = GuestPageFault(0x1000)
        assert isinstance(fault, TranslationFault)
        assert not isinstance(fault, VMExit)

    @pytest.mark.parametrize("cls,kwargs", [
        (HostPageFault, {"gpa": 0x2000}),
        (ShadowNotPresentFault, {}),
        (ShadowProtectionFault, {}),
    ])
    def test_vmm_faults_are_vmexits(self, cls, kwargs):
        fault = cls(0x1000, **kwargs)
        assert isinstance(fault, VMExit)

    def test_fault_carries_refs_and_level(self):
        fault = GuestPageFault(0x1000, refs=3, level=2, is_write=True)
        assert fault.refs == 3
        assert fault.level == 2
        assert fault.is_write

    def test_host_fault_carries_gpa(self):
        fault = HostPageFault(0x1000, gpa=0x5000, is_write=True)
        assert fault.gpa == 0x5000
        assert fault.is_write

    def test_protection_flag(self):
        assert GuestPageFault(0, protection=True).protection
        assert not GuestPageFault(0).protection

    def test_message_mentions_va(self):
        assert "0x1234" in str(GuestPageFault(0x1234))

    def test_simulation_error_is_not_a_fault(self):
        assert not isinstance(SimulationError("x"), TranslationFault)


class TestClock:
    def test_starts_at_zero(self):
        assert Clock().now == 0

    def test_advances(self):
        clock = Clock()
        clock.advance(5)
        clock.advance(7)
        assert clock.now == 12

    def test_zero_advance_ok(self):
        clock = Clock()
        clock.advance(0)
        assert clock.now == 0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Clock().advance(-1)


class TestVirtualClock:
    """The two-time-base contract ``Host.run`` checks at runtime."""

    def test_pass_through_accounting_identity(self):
        """host wall time == the sum of every view's virtual time, no
        matter how tenant advances interleave."""
        host = Clock()
        vms = [VirtualClock(host) for _ in range(3)]
        # A deterministic interleaving: tenant (i % 3) advances by
        # varying amounts, round-robin like the scheduler.
        for i in range(30):
            vms[i % 3].advance(7 * (i % 5) + 1)
        assert host.now == sum(vm.now for vm in vms)
        assert host.now > 0

    def test_virtual_now_excludes_other_tenants(self):
        host = Clock()
        a, b = VirtualClock(host), VirtualClock(host)
        a.advance(100)
        b.advance(40)
        assert a.now == 100
        assert b.now == 40
        assert host.now == 140

    def test_rejects_negative_before_touching_host(self):
        host = Clock()
        vm = VirtualClock(host)
        vm.advance(5)
        with pytest.raises(ValueError):
            vm.advance(-1)
        assert vm.now == 5
        assert host.now == 5

    def test_world_switch_charged_to_host_wall_only(self):
        """The scheduler's world-switch bill lands on the host clock
        between quanta — never on any tenant's virtual view — so
        host.now == sum(vm.now) + world_switch_cycles."""
        from repro.common.config import HostConfig
        from repro.host.scheduler import VCpuScheduler

        class _StubMMU:
            def flush_all(self):
                pass

        class _StubSystem:
            vmm = None

            def __init__(self):
                self.mmu = _StubMMU()

        host = Clock()
        config = HostConfig(vms=2, world_switch_cycles=4_000)
        scheduler = VCpuScheduler(config, host)

        class _StubVM:
            weight = 1.0

            def __init__(self, vm_id, clock):
                self.vm_id = vm_id
                self.system = _StubSystem()
                self.system.clock = clock
                self.world_switches = 0
                self.world_switch_cycles = 0

        vms = [_StubVM(i, VirtualClock(host)) for i in range(2)]
        scheduler.world_switch(vms[0])  # first dispatch: free
        vms[0].system.clock.advance(1_000)
        scheduler.world_switch(vms[1])  # real switch: host pays
        vms[1].system.clock.advance(2_000)
        assert scheduler.world_switch_cycles == 4_000
        assert all(vm.system.clock.now in (1_000, 2_000) for vm in vms)
        assert host.now == (sum(vm.system.clock.now for vm in vms)
                            + scheduler.world_switch_cycles)
