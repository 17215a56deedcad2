"""The virtual machine monitor.

A KVM-shaped hypervisor for one guest VM. It owns the host page table,
dispatches every VM exit, maintains per-process shadow/agile state, and
runs the Section III-C policies. It also implements the guest-platform
hooks (CR3 writes, INVLPG, process lifecycle) whose costs differ per
paging mode — the heart of the paper's trade-off.

Cost accounting: every trap advances the shared clock by that trap
kind's cost and records it in :class:`repro.vmm.traps.TrapStats`, so
Figure 5's "VMM intervention" bars can be regenerated directly.
"""

from repro.common.config import MODE_AGILE, MODE_NESTED, MODE_SHADOW, MODE_SHSP
from repro.common.effects import policy_decision, trap_handler
from repro.common.errors import SimulationError
from repro.common.params import LEAF_LEVEL, ROOT_LEVEL, pt_index
from repro.guest.kernel import GuestPlatform
from repro.hw.cr3cache import CR3Cache
from repro.hw.walkstats import TranslationContext
from repro.mem.pagetable import PageTableObserver
from repro.obs.events import POLICY_SHSP_SWITCH
from repro.obs.tracer import NULL_TRACER
from repro.vmm import traps as T
from repro.vmm.hostpt import HostPageTable
from repro.vmm.invariants import InvariantChecker
from repro.vmm.policies import ProcessPolicy
from repro.vmm.shadowmgr import NODE_SHADOW, ShadowManager
from repro.vmm.shsp import SHSPController, TECH_SHADOW, rebuild_cost_cycles
from repro.vmm.traps import TrapStats


class GuestPTObserver(PageTableObserver):
    """Routes one process's guest-PT mutations into the VMM."""

    def __init__(self, vmm, pid):
        self.vmm = vmm
        self.pid = pid

    def node_allocated(self, table, node, parent):
        self.vmm._on_gpt_node_allocated(self.pid, node, parent)

    def pte_written(self, table, node, index, old, new):
        self.vmm._on_gpt_write(self.pid, node, index, old, new)

    def node_freed(self, table, node):
        self.vmm._on_gpt_node_freed(self.pid, node)


class ProcState:
    """Everything the VMM keeps per guest process."""

    __slots__ = ("pid", "manager", "policy", "ctx", "proc", "shsp")

    def __init__(self, pid):
        self.pid = pid
        self.manager = None
        self.policy = None
        self.ctx = None
        self.proc = None
        self.shsp = None


class VMM(GuestPlatform):
    """The hypervisor for one VM, in nested, shadow, or agile mode."""

    def __init__(self, config, guest_mem, host_mem, mmu, clock):
        if not config.virtualized:
            raise SimulationError("VMM instantiated for a native machine")
        self.config = config
        self.mode = config.mode
        self.guest_mem = guest_mem
        self.host_mem = host_mem
        self.mmu = mmu
        self.clock = clock
        self.cost = config.cost
        self.hostpt = HostPageTable(host_mem, config.host_granule)
        self.traps = TrapStats()
        self.states = {}
        self.cr3cache = None
        if self.mode == MODE_AGILE and config.hw_cr3_cache:
            self.cr3cache = CR3Cache(config.cr3_cache_entries)
        self._miss_rate_per_kop = 0.0
        # Paranoid mode: re-derive the coherence invariants after every
        # trap and mode switch (simulation-time only, never cycles).
        self.invariants = InvariantChecker(self) if config.paranoid else None
        # Trace-cmd analogue (two-step methodology, Section VI): when set,
        # called as pt_write_hook(node, leaf_va, now) on every mediated
        # guest page-table write.
        self.pt_write_hook = None
        # Observability: null object until System.attach_observability
        # installs a tracer (see attach_tracer).
        self.tracer = NULL_TRACER
        # Balloon clock hand: the last gfn revoked, so successive reclaim
        # episodes sweep the backed set round-robin instead of thrashing
        # the same pages (deterministic: a pure function of revocations).
        self._balloon_hand = -1

    def attach_tracer(self, tracer):
        """Thread ``tracer`` into trap accounting and per-process policies."""
        self.tracer = tracer
        self.traps.attach_tracer(tracer, self.clock)
        for state in self.states.values():
            if state.policy is not None:
                state.policy.attach_tracer(tracer, state.pid)

    # -- cost plumbing --------------------------------------------------------

    def _trap(self, kind, cycles):
        self.traps.record(kind, cycles)
        self.clock.advance(cycles)

    def _paranoid_after_trap(self, pid, va=None):
        if self.invariants is not None:
            self.invariants.after_trap(pid, va)

    def _paranoid_after_switch(self, pid):
        if self.invariants is not None:
            self.invariants.after_mode_switch(pid)

    def _needs_shadow(self):
        return self.mode in (MODE_SHADOW, MODE_AGILE, MODE_SHSP)

    def _shsp_technique(self, state):
        return state.shsp.technique if state.shsp is not None else None

    # -- GuestPlatform: process lifecycle ----------------------------------------

    def observer_for(self, pid):
        state = ProcState(pid)
        self.states[pid] = state
        if not self._needs_shadow():
            return None
        state.manager = ShadowManager(
            pid,
            self.host_mem,
            self.guest_mem,
            self.hostpt,
            self.config.page_size,
            inval=self.mmu,
            agile=self.mode == MODE_AGILE,
            start_nested=self.config.policy.start_nested,
            ad_assist=self.mode == MODE_AGILE and self.config.hw_ad_assist,
        )
        if self.mode == MODE_AGILE:
            state.policy = ProcessPolicy(self.config.policy)
            if self.tracer.enabled:
                state.policy.attach_tracer(self.tracer, pid)
        elif self.mode == MODE_SHSP:
            state.shsp = SHSPController(interval=self.config.policy.revert_interval)
        return GuestPTObserver(self, pid)

    def process_created(self, proc):
        state = self.states[proc.pid]
        state.proc = proc
        state.ctx = TranslationContext(
            asid=proc.asid,
            mode=self.mode,
            gptr=proc.gptr,
            hptr=self.hostpt.root_frame,
        )
        if state.manager is not None:
            state.ctx.sptr = state.manager.spt.root_frame

    @trap_handler
    def process_destroyed(self, proc):
        state = self.states.pop(proc.pid, None)
        if state is None:
            return
        if state.manager is not None:
            state.manager.destroy()
        if self.cr3cache is not None:
            self.cr3cache.invalidate(proc.gptr)
        self.mmu.invalidate_asid(proc.asid)

    # -- GuestPlatform: TLB maintenance and CR3 ------------------------------------

    @trap_handler
    def invlpg(self, proc, va):
        """Guest INVLPG: free under nested mode, a trap under shadow
        coverage (the paper's "one [VMtrap] to force a TLB flush")."""
        self.mmu.invalidate_page(proc.asid, va)
        if self.mode == MODE_SHADOW:
            self._trap(T.INVLPG, self.cost.vmtrap_base_cycles)
        elif self.mode == MODE_AGILE and self._leaf_under_shadow(proc, va):
            self._trap(T.INVLPG, self.cost.vmtrap_base_cycles)
        elif self.mode == MODE_SHSP:
            state = self.states.get(proc.pid)
            if state is not None and self._shsp_technique(state) == TECH_SHADOW:
                self._trap(T.INVLPG, self.cost.vmtrap_base_cycles)

    @trap_handler
    def flush_tlb(self, proc):
        self.mmu.invalidate_asid(proc.asid)
        if self._needs_shadow():
            self._trap(T.INVLPG, self.cost.vmtrap_base_cycles)

    @trap_handler
    def context_switch(self, old, new):
        """Guest CR3 write.

        Nested: direct. Shadow: always a VMtrap so the VMM can install
        the matching sCR3. Agile + CR3-cache: a hit installs the shadow
        root in hardware with no exit (Section IV).
        """
        if not self._needs_shadow():
            return
        state = self.states.get(new.pid)
        if state is None or state.manager is None:
            self._trap(T.CONTEXT_SWITCH, self.cost.vmtrap_context_switch_cycles)
            return
        if self.mode == MODE_SHSP and self._shsp_technique(state) != TECH_SHADOW:
            return  # nested phase: the guest writes CR3 directly
        if self.cr3cache is not None:
            if self.cr3cache.lookup(new.gptr) is not None:
                self.traps.record(T.CR3_CACHE_HIT, 0)
                return
            self._trap(T.CONTEXT_SWITCH, self.cost.vmtrap_context_switch_cycles)
            self.cr3cache.insert(new.gptr, state.manager.spt.root_frame)
            return
        self._trap(T.CONTEXT_SWITCH, self.cost.vmtrap_context_switch_cycles)

    def _leaf_under_shadow(self, proc, va):
        """Is the guest PT *leaf node* covering ``va`` shadow-covered?"""
        state = self.states.get(proc.pid)
        if state is None or state.manager is None:
            return False
        manager = state.manager
        if manager.fully_nested:
            return False
        node = manager._guest_node(manager.root_gfn)
        meta = manager.node_meta[manager.root_gfn]
        for level in range(ROOT_LEVEL, LEAF_LEVEL, -1):
            if meta.mode != NODE_SHADOW:
                return False
            pte = node.get(pt_index(va, level))
            if pte is None or not pte.present or pte.huge:
                break
            child_meta = manager.node_meta.get(pte.frame)
            if child_meta is None:
                break
            node = manager._guest_node(pte.frame)
            meta = child_meta
        return meta.mode == NODE_SHADOW

    # -- guest PT observer events ------------------------------------------------------

    @trap_handler
    def _on_gpt_node_allocated(self, pid, node, parent):
        state = self.states[pid]
        state.manager.on_node_allocated(node, parent)

    @trap_handler
    def _on_gpt_node_freed(self, pid, node):
        state = self.states.get(pid)
        if state is not None and state.manager is not None:
            state.manager.on_node_freed(node)

    @trap_handler
    def _on_gpt_write(self, pid, node, index, old, new):
        state = self.states[pid]
        kind, leaf_va = state.manager.on_pte_written(node, index, old, new)
        if state.shsp is not None:
            # SHSP monitors PT update rates in both phases.
            state.shsp.note_pt_write()
        if kind != "mediated":
            return
        self._trap(T.PT_WRITE, self.cost.vmtrap_pt_write_cycles)
        if self.pt_write_hook is not None:
            self.pt_write_hook(node, leaf_va, self.clock.now)
        switched = False
        if state.policy is not None:
            switched = state.policy.note_write(
                state.manager, node.frame, self.clock.now)
        if switched:
            self._paranoid_after_switch(pid)
        else:
            self._paranoid_after_trap(pid, leaf_va)

    # -- VM exit handlers (walker faults) --------------------------------------------------

    @trap_handler
    def handle_host_fault(self, proc, fault):
        """EPT-violation analogue: back the gfn."""
        self.hostpt.ensure_mapped(fault.gpa >> 12)
        self._trap(T.HOST_FAULT, self.cost.vmtrap_host_fault_cycles)
        self._paranoid_after_trap(proc.pid, fault.va)
        return "retry"

    @trap_handler
    def handle_shadow_fault(self, proc, fault):
        """Shadow not-present: merge an entry, or inject a guest #PF."""
        state = self.states[proc.pid]
        outcome = state.manager.fill_for(fault.va)
        self._trap(T.SHADOW_FILL, self.cost.vmtrap_shadow_fill_cycles)
        self._paranoid_after_trap(proc.pid, fault.va)
        if outcome == "guest_fault":
            return "guest_fault"
        return "retry"

    @trap_handler
    def handle_shadow_protection(self, proc, fault):
        """Write to a read-only shadow leaf: A/D protocol or guest COW.

        With the Section IV hardware assist the dirty-bit update is done
        by the page walker (charged as a nested walk's worth of memory
        references) instead of a VMtrap.
        """
        state = self.states[proc.pid]
        manager = state.manager
        outcome = manager.protection_fix(fault.va)
        if outcome == "dirty_fixed":
            if manager.ad_assist:
                cycles = 24 * self.cost.cycles_per_walk_ref
                self.traps.record(T.AD_ASSIST, cycles)
                self.clock.advance(cycles)
            else:
                self._trap(T.DIRTY_SYNC, self.cost.vmtrap_dirty_sync_cycles)
            self._paranoid_after_trap(proc.pid, fault.va)
            return "retry"
        if outcome == "refill":
            return self.handle_shadow_fault(proc, fault)
        self._trap(T.GUEST_FAULT_EXIT, self.cost.vmtrap_base_cycles)
        self._paranoid_after_trap(proc.pid, fault.va)
        return "guest_fault"

    # -- translation context -----------------------------------------------------------------

    def ctx_for(self, proc):
        """The hardware translation context, refreshed from agile state."""
        state = self.states[proc.pid]
        ctx = state.ctx
        if self.mode == MODE_AGILE:
            manager = state.manager
            ctx.sptr = None if manager.fully_nested else manager.spt.root_frame
            ctx.root_switch = manager.root_switched
        elif self.mode == MODE_SHSP:
            # Temporal selection: the whole process runs one technique.
            ctx.mode = self._shsp_technique(state)
            ctx.sptr = state.manager.spt.root_frame
        return ctx

    # -- policy driving --------------------------------------------------------------------------

    def set_miss_rate(self, miss_rate_per_kop):
        """Recent TLB miss pressure, fed by the simulator each epoch."""
        self._miss_rate_per_kop = miss_rate_per_kop

    @policy_decision
    def policy_tick(self):
        """Run periodic policy work for every agile process."""
        if self.mode == MODE_SHSP:
            return self._shsp_tick()
        if self.mode != MODE_AGILE:
            return 0
        now = self.clock.now
        reverted = 0
        for state in self.states.values():
            if state.policy is None or state.manager is None:
                continue
            was_fully_nested = state.manager.fully_nested
            state_reverted = state.policy.tick(
                state.manager, self.hostpt, now, self._miss_rate_per_kop
            )
            reverted += state_reverted
            if state_reverted or was_fully_nested != state.manager.fully_nested:
                self._paranoid_after_switch(state.pid)
        if reverted:
            # Background scan work: rebuilding reverted shadow nodes.
            cycles = 1200 * reverted
            self.traps.record(T.REVERT_REBUILD, cycles)
            self.clock.advance(cycles)
        return reverted

    @policy_decision
    def _shsp_tick(self):
        """SHSP decision epoch: pick one technique per process."""
        misses = self.mmu.counters.tlb_misses
        # max() guards against hardware-counter resets at measurement
        # boundaries (the counter restarts below its previous value).
        delta = max(0, misses - getattr(self, "_shsp_miss_base", 0))
        self._shsp_miss_base = misses
        switched = 0
        for state in self.states.values():
            if state.shsp is None or state.proc is None:
                continue
            # Approximation: recent misses are attributed to every
            # controller (one main process dominates in practice).
            state.shsp.window.tlb_misses += delta
            before = state.shsp.technique
            after = state.shsp.decide(self.clock.now, state.proc.resident_pages)
            if after != before:
                self._shsp_switch(state, after)
                switched += 1
        return switched

    @policy_decision
    def _shsp_switch(self, state, technique):
        """Move one whole process between the two constituent modes."""
        manager = state.manager
        if self.tracer.enabled:
            # `node` reuses its slot to carry the chosen technique name.
            self.tracer.policy(self.clock.now, POLICY_SHSP_SWITCH,
                               pid=state.pid, node=technique)
        self.mmu.flush_pwc()
        if technique == TECH_SHADOW:
            manager.enable_shadow_coverage()
            rebuilt = manager.rebuild_full(state.proc.page_table)
            cycles = rebuild_cost_cycles(rebuilt)
            self.traps.record(T.SHSP_REBUILD, cycles)
            self.clock.advance(cycles)
        else:
            manager.fully_nested = True
        self._paranoid_after_switch(state.pid)

    # -- consolidated-host entry points (repro.host) ------------------------------

    def vm_preempt(self):
        """The host descheduled this VM's vCPU.

        VMCS state save is the *host's* cost (charged as part of the
        world switch by :class:`repro.host.scheduler.VCpuScheduler`), so
        nothing is recorded against this VM — a preempted guest must
        replay identically to an uninterrupted one.
        """

    def vm_resume(self, flush_tlb=False):
        """This VM's vCPU is back on a core.

        ``flush_tlb`` models hardware without VPID-style address-space
        tags: the incoming world's TLB entries cannot coexist with the
        outgoing one's, so every cached translation is dropped. With
        tags (the default) resume is free, as on modern hardware.
        """
        if flush_tlb:
            self.mmu.flush_all()

    @trap_handler
    def balloon_revoke(self, count, cycles_per_page=300):
        """Revoke up to ``count`` backed host frames (balloon inflate).

        The host is under memory pressure and this VM is the victim: the
        balloon driver "allocates" guest pages whose backing frames the
        VMM hands back. For each revoked mapping the host PT entry is
        unmapped, shadow leaves embedding the freed host frame are
        zapped, and cached translations are invalidated — the next guest
        touch takes a host fault and gets re-backed (agile switching-bit
        churn and shadow refills included). Clean pages are preferred,
        swept round-robin from the balloon hand.

        Returns the number of host frames freed to this VM's allocator
        (the host ledger is credited by the metered memory itself).
        """
        mapped = sorted(self.hostpt.iter_mapped_gfns())
        if not mapped:
            return 0
        # Rotate the sweep to start just past the last revoked gfn.
        start = 0
        while start < len(mapped) and mapped[start] <= self._balloon_hand:
            start += 1
        order = mapped[start:] + mapped[:start]
        victims = [g for g in order if not self.hostpt.is_dirty(g)]
        victims += [g for g in order if self.hostpt.is_dirty(g)]
        span = self.hostpt._frames_per_page
        freed = 0
        revoked_hfns = set()
        for gfn in victims:
            if freed >= count:
                break
            pte = self.hostpt.unmap(gfn)
            if pte is None:
                continue
            for offset in range(span):
                self.host_mem.free_frame(pte.frame + offset)
                revoked_hfns.add(pte.frame + offset)
            freed += span
            self._balloon_hand = gfn
        if not revoked_hfns:
            return 0
        # Shadow tables embed host frames: drop leaves pointing at the
        # frames we just gave back.
        for state in self.states.values():
            if state.manager is None:
                continue
            spt = state.manager.spt
            for va, spte, _level in list(spt.iter_leaves()):
                if spte.frame in revoked_hfns:
                    state.manager._zap_position(_level, va)
                    self.mmu.invalidate_page(state.manager.asid, va)
        # Host mappings vanished: every combined translation is suspect.
        self.mmu.flush_all()
        cycles = cycles_per_page * (freed // span or 1)
        self._trap(T.BALLOON_REVOKE, cycles)
        return freed

    # -- introspection ------------------------------------------------------------------------------

    def nested_coverage(self, proc):
        """Fraction of this process's guest PT nodes in nested mode."""
        state = self.states[proc.pid]
        if state.manager is None:
            return 1.0
        meta = state.manager.node_meta
        if not meta:
            return 0.0
        nested = sum(1 for m in meta.values() if m.mode != NODE_SHADOW)
        if state.manager.fully_nested:
            return 1.0
        return nested / len(meta)
