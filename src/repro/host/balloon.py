"""The balloon/reclaim driver: frame revocation under host pressure.

Installed as the :class:`~repro.host.memory.HostMemoryManager` pressure
handler. When a VM's allocation would push the committed total past the
physical limit, the driver runs synchronously in direct-reclaim style —
on the requesting VM's time, exactly like a Linux allocation stalling in
``try_to_free_pages`` — picking victims and asking their VMMs to revoke
backed frames (:meth:`repro.vmm.vmm.VMM.balloon_revoke`: host-PT unmaps,
shadow invalidations, TLB shootdowns; the revocation *work* is charged
to the victim's VMM trap accounting).

Victim policy, deterministic by construction: the VM with the largest
committed charge, excluding the requester, ties broken by lowest
``vm_id``. The requester itself is eligible only as a last resort (no
other VM can give anything back) — self-reclaim is how a single
overcommitted VM thrashes.
"""

from repro.obs.tracer import NULL_TRACER


class BalloonDriver:
    """Selects victims and revokes frames when the ledger hits the wall."""

    def __init__(self, host_config, ledger, vms, tracer=NULL_TRACER,
                 clock=None):
        self.config = host_config
        self.ledger = ledger
        self.vms = {vm.vm_id: vm for vm in vms}
        self.tracer = tracer
        self.clock = clock
        self.episodes = 0
        self.frames_reclaimed = 0
        ledger.pressure_handler = self.reclaim

    def _revocable(self, vm):
        """Can this VM give frames back at all?"""
        return vm.system.vmm is not None and self.ledger.committed.get(
            vm.vm_id, 0) > 0

    def _pick_victim(self, requester_vm_id, exhausted):
        """Largest committed charge, requester excluded, lowest id wins ties."""
        best = None
        for vm_id in sorted(self.vms):
            if vm_id == requester_vm_id or vm_id in exhausted:
                continue
            vm = self.vms[vm_id]
            if not self._revocable(vm):
                continue
            charge = self.ledger.committed[vm_id]
            if best is None or charge > self.ledger.committed[best.vm_id]:
                best = vm
        if best is not None:
            return best
        # Last resort: the requester squeezes itself (self-ballooning).
        requester = self.vms.get(requester_vm_id)
        if (requester is not None and requester_vm_id not in exhausted
                and self._revocable(requester)):
            return requester
        return None

    def reclaim(self, requester_vm_id, need):
        """Free at least ``need`` frames; returns frames actually freed.

        The driver advances no clock of its own: revocation cycles are
        charged on each *victim's* virtual clock by its VMM's trap
        accounting, and the driver only reads timestamps for trace
        events. An advance here would fail ``Host.run``'s
        cycle-conservation check.
        """
        freed_total = 0
        exhausted = set()
        while freed_total < need:
            victim = self._pick_victim(requester_vm_id, exhausted)
            if victim is None:
                break
            batch = max(self.config.balloon_batch, need - freed_total)
            freed = victim.system.vmm.balloon_revoke(
                batch, cycles_per_page=self.config.balloon_page_cycles)
            if freed <= 0:
                # Nothing revocable left (all its frames hold page-table
                # nodes, not backings): skip it for this episode.
                exhausted.add(victim.vm_id)
                continue
            freed_total += freed
            self.frames_reclaimed += freed
            self.episodes += 1
            victim.balloon_frames += freed
            victim.balloon_episodes += 1
            tracer = self.tracer
            if tracer.enabled:
                # Host wall time when available; the victim's virtual
                # time is the only clock a bare driver can see.
                now = (self.clock.now if self.clock is not None
                       else victim.system.clock.now)
                tracer.balloon(now, victim.vm_id, freed, requester_vm_id)
        return freed_total
