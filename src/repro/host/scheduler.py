"""The vCPU scheduler: one physical core, N guest vCPUs.

Round-robin with weighted quanta: VMs run in ``vm_id`` order, each for
``quantum_cycles * weight`` simulated cycles before preemption, until
every program finishes. All decisions derive from the shared clock and
the fixed VM order — no wall time, no unseeded randomness — so a
consolidated run replays bit-identically (REPRO101 keeps it honest).

Cross-VM world switches are the *host's* cost, distinct from the guest
context-switch VMtraps inside a VM: the outgoing VMCS is saved, the
incoming one loaded, and (without VPID-style tagged TLBs) the incoming
VM's cached translations flushed. The cost is charged on the shared
clock between quanta — never inside a guest's step — so each guest's
operation stream is untouched by scheduling.
"""

from repro.common.timedomain import advances, charges, cycles
from repro.obs.tracer import NULL_TRACER


class VCpuScheduler:
    """Interleaves VM programs on the shared clock until all finish."""

    def __init__(self, host_config, clock, tracer=NULL_TRACER,
                 metrics=None):
        self.config = host_config
        self.clock = clock
        self.tracer = tracer
        self.metrics = metrics
        self.current = None
        self.world_switches = 0
        self.world_switch_cycles = 0

    @cycles("duration")
    def quantum_for(self, vm):
        """This VM's time slice, in cycles (weighted round-robin)."""
        return max(1, int(self.config.quantum_cycles * vm.weight))

    @advances("host_wall")
    @charges("world_switch_cycles")
    def world_switch(self, new_vm):
        """Deschedule the current VM and put ``new_vm`` on the core."""
        old_vm = self.current
        if old_vm is new_vm:
            return
        if old_vm is not None and old_vm.system.vmm is not None:
            old_vm.system.vmm.vm_preempt()
        cycles = self.config.world_switch_cycles if old_vm is not None else 0
        if cycles:
            self.clock.advance(cycles)
            self.world_switches += 1
            self.world_switch_cycles += cycles
            new_vm.world_switches += 1
            new_vm.world_switch_cycles += cycles
        tracer = self.tracer
        if tracer.enabled:
            tracer.vm_switch(self.clock.now - cycles,
                             old_vm.vm_id if old_vm is not None else None,
                             new_vm.vm_id, cycles)
        if self.metrics is not None and self.metrics.enabled:
            self.metrics.inc("host.vm%d.world_switches" % new_vm.vm_id)
        flush = not self.config.vpid and old_vm is not None
        if new_vm.system.vmm is not None:
            new_vm.system.vmm.vm_resume(flush_tlb=flush)
        elif flush:
            new_vm.system.mmu.flush_all()
        self.current = new_vm

    def run_quantum(self, vm):
        """Run ``vm`` for one weighted quantum (or to completion)."""
        self.world_switch(vm)
        slice_end = self.clock.now + self.quantum_for(vm)
        while self.clock.now < slice_end:
            if not vm.step():
                break

    def run(self, vms):
        """Drive every runnable VM to completion, round-robin."""
        ordered = sorted(vms, key=lambda vm: vm.vm_id)
        while True:
            runnable = [vm for vm in ordered if vm.runnable]
            if not runnable:
                break
            for vm in runnable:
                if vm.runnable:
                    self.run_quantum(vm)
        if self.current is not None and self.current.system.vmm is not None:
            self.current.system.vmm.vm_preempt()
        self.current = None
