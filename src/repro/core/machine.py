"""System assembly: one simulated machine in one paging configuration.

``System`` wires together the physical memories, the guest kernel, the
MMU, and (for virtualized modes) the VMM, and drives the retry loop that
models hardware re-executing a faulting access after the OS/VMM resolves
the fault. It is the object workloads talk to.
"""

import hashlib

from repro.common.clock import Clock
from repro.common.config import MODE_NATIVE
from repro.common.errors import (
    GuestPageFault,
    HostPageFault,
    ShadowNotPresentFault,
    ShadowProtectionFault,
    SimulationError,
)
from repro.core.metrics import COUNTS, RunMetrics
from repro.guest.kernel import GuestKernel, GuestPlatform
from repro.hw.mmu import MMU, MMUCounters
from repro.hw.walkstats import TranslationContext
from repro.mem.physmem import PhysicalMemory
from repro.obs.events import MARK_MEASUREMENT_START
from repro.obs.tracer import NULL_TRACER
from repro.vmm.vmm import VMM

# How often (in operations) the periodic VMM policy work runs.
POLICY_EPOCH_OPS = 256
MAX_FAULT_RETRIES = 16

#: The RunMetrics counts a System keeps as attributes of the same name:
#: all but the MMU's hardware counters and the two a snapshot derives
#: (``total_cycles`` from the clock, ``vmm_cycles`` from the VMM's traps).
_OWN_COUNTS = tuple(name for name in COUNTS
                    if name not in MMUCounters.COUNTS
                    and name not in ("total_cycles", "vmm_cycles"))


class System(GuestPlatform):
    """A complete machine: hardware + guest OS (+ VMM when virtualized)."""

    def __init__(self, config, clock=None, host_mem=None):
        """Assemble one machine.

        ``clock`` and ``host_mem`` exist for the consolidated host
        (:mod:`repro.host`): every VM on a host shares the host's clock,
        and each receives its host-physical reservation as an externally
        owned allocator. Solo machines leave both None and own their
        clock and memory, exactly as before.
        """
        self.config = config
        self.clock = clock if clock is not None else Clock()
        self.cost = config.cost
        if config.mode == MODE_NATIVE:
            # Bare metal: one RAM serves the OS and its page tables. It is
            # sized like the *guest* RAM of the virtualized modes — native
            # is the same guest machine minus the VMM, so the OS must
            # manage an identical frame pool (or frame-allocation order
            # would diverge from the virtualized modes under pressure).
            ram = (host_mem if host_mem is not None
                   else PhysicalMemory(config.guest_mem_frames, "ram"))
            self.guest_mem = ram
            self.host_mem = ram
        else:
            self.guest_mem = PhysicalMemory(config.guest_mem_frames, "guest")
            self.host_mem = (host_mem if host_mem is not None
                             else PhysicalMemory(config.host_mem_frames, "host"))
        self.mmu = MMU(config, self.host_mem, self.guest_mem)
        self.vmm = None
        if config.virtualized:
            self.vmm = VMM(config, self.guest_mem, self.host_mem, self.mmu, self.clock)
        self.kernel = GuestKernel(self.guest_mem, platform=self, page_size=config.page_size)
        self._native_ctxs = {}
        # Accounting.
        for name in _OWN_COUNTS:
            setattr(self, name, 0)
        self._epoch_ops = 0
        self._epoch_misses_base = 0
        self._measurement_start = 0
        # Idle policy intervals (settle_policies): cycles on the clock
        # that no RunMetrics counter reports, kept for conservation.
        self._idle_cycles = 0
        # Observability: null objects until attach_observability.
        self.tracer = NULL_TRACER
        self.recorder = None

    def attach_observability(self, tracer=None, recorder=None):
        """Install a tracer and/or an interval recorder.

        Threads the tracer into every instrumented component (MMU, page
        walker, VMM trap accounting, per-process policies) and hooks the
        recorder into the policy epoch so sampling adds no per-op work.
        The counts themselves live in ``System``, ``MMUCounters`` and
        ``TrapStats`` and are read by :meth:`snapshot`. Idempotent; call
        any time after construction.
        """
        if tracer is not None:
            self.tracer = tracer
            self.mmu.tracer = tracer
            self.mmu.clock = self.clock
            self.mmu.walker.tracer = tracer
            self.mmu.walker.clock = self.clock
            if self.vmm is not None:
                self.vmm.attach_tracer(tracer)
        if recorder is not None:
            self.recorder = recorder

    # -- GuestPlatform plumbing (kernel -> VMM/hardware) ----------------------

    def observer_for(self, pid):
        if self.vmm is not None:
            return self.vmm.observer_for(pid)
        return None

    def process_created(self, proc):
        if self.vmm is not None:
            self.vmm.process_created(proc)
        else:
            self._native_ctxs[proc.pid] = TranslationContext(
                asid=proc.asid, mode=MODE_NATIVE, root_frame=proc.page_table.root_frame
            )

    def process_destroyed(self, proc):
        if self.vmm is not None:
            self.vmm.process_destroyed(proc)
        else:
            self._native_ctxs.pop(proc.pid, None)
            self.mmu.invalidate_asid(proc.asid)

    def invlpg(self, proc, va):
        if self.vmm is not None:
            self.vmm.invlpg(proc, va)
        else:
            self.mmu.invalidate_page(proc.asid, va)

    def flush_tlb(self, proc):
        if self.vmm is not None:
            self.vmm.flush_tlb(proc)
        else:
            self.mmu.invalidate_asid(proc.asid)

    def context_switch(self, old, new):
        if self.tracer.enabled:
            self.tracer.ctx_switch(self.clock.now,
                                   old.pid if old is not None else None,
                                   new.pid)
        if self.vmm is not None:
            self.vmm.context_switch(old, new)

    # -- the access path ---------------------------------------------------------

    def _ctx_for(self, proc):
        if self.vmm is not None:
            return self.vmm.ctx_for(proc)
        return self._native_ctxs[proc.pid]

    def access(self, va, is_write=False, kind="data"):
        """One memory access by the current process.

        Models the full hardware/software dance: TLB probe, page walk,
        guest faults resolved by the guest kernel, VM exits resolved by
        the VMM, then the retry — charging cycles for each step.
        """
        proc = self.kernel.current
        if proc is None:
            raise SimulationError("no runnable process")
        self.ops += 1
        if is_write:
            self.writes += 1
        else:
            self.reads += 1
        self.ideal_cycles += self.cost.cycles_per_op
        self.clock.advance(self.cost.cycles_per_op)
        ctx = self._ctx_for(proc)
        for _attempt in range(MAX_FAULT_RETRIES):
            try:
                outcome = self.mmu.translate(ctx, va, is_write, kind)
            except GuestPageFault as fault:
                self._charge_refs(fault.refs)
                self._handle_guest_fault(proc, va, fault.is_write)
                continue
            except HostPageFault as fault:
                self._charge_refs(fault.refs)
                self.vmm.handle_host_fault(proc, fault)
                continue
            except ShadowNotPresentFault as fault:
                self._charge_refs(fault.refs)
                if self.vmm.handle_shadow_fault(proc, fault) == "guest_fault":
                    self._handle_guest_fault(proc, va, fault.is_write)
                continue
            except ShadowProtectionFault as fault:
                self._charge_refs(fault.refs)
                if self.vmm.handle_shadow_protection(proc, fault) == "guest_fault":
                    self._handle_guest_fault(proc, va, True)
                continue
            self._charge_translation(outcome)
            self._epoch_ops += 1
            if self._epoch_ops >= POLICY_EPOCH_OPS:
                self._policy_epoch()
            return outcome
        raise SimulationError(
            "translation livelock at va=%#x (pid %d, mode %s)"
            % (va, proc.pid, self.config.mode)
        )

    def _charge_refs(self, refs):
        cycles = refs * self.cost.cycles_per_walk_ref
        self.walk_cycles += cycles
        self.clock.advance(cycles)

    def _charge_translation(self, outcome):
        if outcome.hit_level == "l1":
            if self.cost.cycles_tlb_l1_hit:
                self.clock.advance(self.cost.cycles_tlb_l1_hit)
        elif outcome.hit_level == "l2":
            self.tlb_l2_cycles += self.cost.cycles_tlb_l2_hit
            self.clock.advance(self.cost.cycles_tlb_l2_hit)
        elif outcome.walk is not None:
            self._charge_refs(outcome.walk.refs)

    def _handle_guest_fault(self, proc, va, is_write):
        self.guest_faults += 1
        self.guest_fault_cycles += self.cost.guest_fault_cycles
        if self.tracer.enabled:
            self.tracer.guest_fault(self.clock.now, proc.pid, va, is_write)
        self.clock.advance(self.cost.guest_fault_cycles)
        self.kernel.handle_page_fault(proc, va, is_write)

    def _policy_epoch(self):
        self._epoch_ops = 0
        if self.recorder is not None:
            self.recorder.maybe_sample(self)
        if self.vmm is None:
            return
        misses = self.mmu.counters.tlb_misses
        epoch_misses = misses - self._epoch_misses_base
        self._epoch_misses_base = misses
        self.vmm.set_miss_rate(1000.0 * epoch_misses / POLICY_EPOCH_OPS)
        self.vmm.policy_tick()

    def settle_policies(self, intervals=2):
        """Let VMM policy epochs elapse with the guest idle.

        Advances virtual time by ``intervals`` policy intervals, running
        the periodic VMM work in between. Workloads use this before
        ``start_measurement`` to stand in for the minutes of runtime a
        scaled simulation does not execute, so one-time transitions
        (agile reversion, SHSP technique selection and its whole-table
        rebuild) land in warmup where a long real run amortizes them.
        """
        if self.vmm is None:
            return
        # Flush the partial epoch so the policies see an up-to-date
        # TLB-miss rate before the idle ticks.
        self._policy_epoch()
        step = max(self.config.policy.revert_interval,
                   self.config.policy.write_interval)
        for _interval in range(intervals):
            self._idle_cycles += step
            self.clock.advance(step)
            self.vmm.policy_tick()

    def reset_counters(self):
        """Begin the measurement window: zero all accounting.

        Simulated *state* (page tables, TLB contents, policy decisions)
        is untouched — only counters restart, so metrics describe steady
        state rather than setup/warmup. The analogue of skipping the
        ramp-up phase when profiling a long-running workload.
        """
        for name in _OWN_COUNTS:
            setattr(self, name, 0)
        self._idle_cycles = 0
        self.mmu.counters.reset()
        # The epoch miss rate is a difference of tlb_misses readings, so
        # its base restarts with the counter.
        self._epoch_misses_base = 0
        if self.vmm is not None:
            self.vmm.traps.reset()
        self._measurement_start = self.clock.now
        if self.tracer.enabled:
            self.tracer.mark(self.clock.now, MARK_MEASUREMENT_START)
        if self.recorder is not None:
            self.recorder.note_reset(self)

    # -- invariant checking (paranoid mode) -------------------------------------------

    def check_invariants(self):
        """Run a full paranoid sweep now; no-op unless paranoid mode is on.

        Raises :class:`repro.vmm.invariants.InvariantViolation` on any
        shadow/guest/TLB incoherence.
        """
        if self.vmm is not None and self.vmm.invariants is not None:
            self.vmm.invariants.check_all()

    # -- state oracle ------------------------------------------------------------------

    def state_digest(self):
        """A hash of every piece of state the measured window can observe.

        Covers guest, host and shadow page-table entries (A/D and
        switching bits included, in entry insertion order), the frame
        allocators, the TLB and PWC contents in replacement order, the
        CR3 cache, the guest processes, the VMM's per-subtree modes and
        policy windows, and the clocks and counters. Reads only: the
        TLBs, PWCs and CR3 cache through ``iter_entries`` and everything
        else through plain iteration, so no LRU order moves. Two systems
        with equal digests fed the same op stream produce equal
        ``RunMetrics``.
        """

        def table(page_table):
            return [(node.frame, node.level,
                     [(index, pte.frame, pte.present, pte.writable, pte.user,
                       pte.accessed, pte.dirty, pte.huge, pte.switching,
                       pte.guest_node)
                      for index, pte in node.entries.items()])
                    for node in page_table.iter_nodes()]

        def allocator(mem):
            return mem.allocator._next, tuple(mem.allocator._free)

        def pwc(cache):
            if cache is None:
                return None
            tables = [(depth, []) for depth in range(1, cache.MAX_SKIP + 1)]
            for depth, key, value in cache.iter_entries():
                tables[depth - 1][1].append((key, value))
            return tables

        mmu = self.mmu
        state = [
            ("clock", self.clock.now, self._measurement_start,
             self._epoch_ops, self._epoch_misses_base, self._idle_cycles),
            ("counts", [getattr(self, name) for name in _OWN_COUNTS],
             [getattr(mmu.counters, name) for name in MMUCounters.COUNTS],
             sorted(mmu.counters.walks_by_depth.items(), key=repr)),
            ("mem", allocator(self.guest_mem), allocator(self.host_mem)),
            ("tlb", [(shift, [(e.asid, e.vpn, e.frame, e.page_shift,
                               e.writable, e.dirty)
                              for e in hierarchy.iter_entries()])
                     for shift, hierarchy
                     in sorted(mmu.hierarchy.hierarchies.items())]),
            ("pwc", pwc(mmu.pwc), pwc(mmu.host_pwc)),
            ("kernel", self.kernel._next_pid,
             self.kernel.current.pid if self.kernel.current else None),
        ]
        for pid, proc in self.kernel.processes.items():
            state.append(("proc", pid, proc.asid, proc.mmap_cursor,
                          proc.resident_pages,
                          [(v.start, v.end, v.writable, v.kind, v.cow)
                           for v in proc.vmas],
                          table(proc.page_table)))
        vmm = self.vmm
        if vmm is not None:
            state.append(("vmm", vmm._miss_rate_per_kop, vmm._balloon_hand,
                          getattr(vmm, "_shsp_miss_base", None),
                          sorted(vmm.traps.counts.items()),
                          sorted(vmm.traps.cycles.items()),
                          table(vmm.hostpt.table)))
            if vmm.cr3cache is not None:
                state.append(("cr3", list(vmm.cr3cache.iter_entries())))
            for pid, proc_state in vmm.states.items():
                manager = proc_state.manager
                if manager is not None:
                    state.append((
                        "shadow", pid, manager.root_gfn, manager.root_switched,
                        manager.fully_nested,
                        [(gfn, m.level, m.prefix, m.parent_gfn, m.mode)
                         for gfn, m in manager.node_meta.items()],
                        table(manager.spt)))
                policy = proc_state.policy
                if policy is not None:
                    reversion = policy.reversion
                    state.append((
                        "policy", pid, list(policy.write_trigger._windows.items()),
                        getattr(reversion, "_last", None),
                        policy.short_lived._birth, policy.short_lived.decided,
                        policy.switches_to_nested, policy.reversions))
                shsp = proc_state.shsp
                if shsp is not None:
                    window = shsp.window
                    state.append((
                        "shsp", pid, shsp.technique, window.tlb_misses,
                        window.pt_writes, window.trap_cycles,
                        shsp._last_decision, shsp._consecutive_quiet,
                        shsp.switches))
        return hashlib.sha256(repr(state).encode()).hexdigest()

    # -- metrics -----------------------------------------------------------------------

    def snapshot(self, label="run"):
        """Read every live counter into a :class:`RunMetrics`, by name.

        The machine's own counts, the MMU's ``MMUCounters`` and the VMM's
        ``TrapStats``, as they stand now; no paranoid sweep runs.
        """
        counters = self.mmu.counters
        values = {name: getattr(self, name) for name in _OWN_COUNTS}
        values.update((name, getattr(counters, name))
                      for name in MMUCounters.__slots__)
        values["total_cycles"] = self.clock.now - self._measurement_start
        if self.vmm is not None:
            traps = self.vmm.traps
            values.update(vmm_cycles=traps.total_attributed_cycles,
                          trap_counts=traps.counts, trap_cycles=traps.cycles)
        return RunMetrics(label, self.config.mode, self.config.page_size,
                          **values)

    def unattributed_cycles(self):
        """Measured-window clock cycles that no counter accounts for.

        Every advance of this machine's clock charges a counter: the
        ideal, walk, L2-hit and guest-fault cycles, the VMM's trap
        cycles, L1 hits at their (default zero) cost, or idle policy
        intervals. Zero when cycles are conserved.
        """
        attributed = (self.ideal_cycles + self.walk_cycles
                      + self.tlb_l2_cycles + self.guest_fault_cycles
                      + self._idle_cycles
                      + self.mmu.counters.tlb_hits_l1
                      * self.cost.cycles_tlb_l1_hit)
        if self.vmm is not None:
            attributed += self.vmm.traps.total_attributed_cycles
        return self.clock.now - self._measurement_start - attributed

    def collect_metrics(self, label="run"):
        """The end-of-run :meth:`snapshot`, after a final paranoid sweep
        and a cycle-conservation check."""
        # A run's numbers are only worth reporting if the machine state
        # they came from is still coherent and every cycle is charged.
        self.check_invariants()
        gap = self.unattributed_cycles()
        if gap:
            raise SimulationError(
                "%d cycles on the clock charged to no counter "
                "(mode %s)" % (gap, self.config.mode))
        return self.snapshot(label)
