"""The memory-management unit: TLB hierarchy + walk engine + caches.

``MMU.translate`` is the single hardware entry point the simulator core
drives. It probes the TLB hierarchy, falls back to the mode-appropriate
page walk, and fills the TLBs — propagating walker faults (guest faults
and VM exits) to the caller, which models the OS/VMM handling them and
retrying, exactly as hardware re-executes the faulting instruction.
"""

from repro.hw.pwc import PageWalkCache
from repro.hw.tlbhierarchy import MultiSizeTLB
from repro.hw.walker import PageWalker
from repro.hw.walkstats import NESTED_FULL
from repro.obs.tracer import NULL_TRACER


class MMUCounters:
    """Aggregate hardware counters, the simulator's `perf` analogue.

    Each is named as in ``RunMetrics``, which snapshots them by name.
    """

    #: The scalar counters; ``walks_by_depth`` is the one table.
    COUNTS = ("tlb_hits_l1", "tlb_hits_l2", "tlb_misses", "walk_refs",
              "fault_refs")

    __slots__ = COUNTS + ("walks_by_depth",)

    def __init__(self):
        self.reset()

    def reset(self):
        """Zero every counter (start of a measurement window)."""
        for name in self.COUNTS:
            setattr(self, name, 0)
        # Degree-of-nesting histogram for Table VI: keys 0..4 and 'full'.
        self.walks_by_depth = {0: 0, 1: 0, 2: 0, 3: 0, 4: 0, NESTED_FULL: 0}


class TranslationOutcome:
    """What one call to :meth:`MMU.translate` did."""

    __slots__ = ("frame", "hit_level", "walk")

    def __init__(self, frame, hit_level, walk):
        self.frame = frame
        self.hit_level = hit_level  # 'l1', 'l2', or None (walked)
        self.walk = walk  # WalkResult or None on a TLB hit


class MMU:
    """One core's translation hardware, configured per MachineConfig."""

    def __init__(self, config, host_mem, guest_mem=None):
        self.config = config
        self.page_size = config.page_size
        sizes = {config.page_size, config.host_granule}
        from repro.common.params import FOUR_KB

        sizes.add(FOUR_KB)  # broken-down entries always need a 4K array
        self.hierarchy = MultiSizeTLB(config.tlbs, sizes, primary=config.page_size)
        self.pwc = (
            PageWalkCache(config.pwc.entries_per_table)
            if config.pwc.enabled
            else None
        )
        self.host_pwc = (
            PageWalkCache(config.pwc.entries_per_table)
            if config.pwc.enabled and config.virtualized
            else None
        )
        self.walker = PageWalker(host_mem, guest_mem, self.pwc,
                                 host_pwc=self.host_pwc)
        self.counters = MMUCounters()
        # BadgerTrap analogue: when set, called as miss_hook(va, WalkResult)
        # after every successful page walk (i.e., every TLB miss).
        self.miss_hook = None
        # Observability: a null tracer until System.attach_observability
        # installs a real one; `clock` is set alongside the tracer. Hot
        # paths pay one attribute load + branch when off.
        self.tracer = NULL_TRACER
        self.clock = None

    def translate(self, ctx, va, is_write=False, kind="data"):
        """Translate ``va``; may raise a guest fault or VM exit.

        A write through a clean or read-only TLB entry re-walks so dirty
        bits get set (and protection faults surface), mirroring x86.
        """
        entry, level = self.hierarchy.lookup(ctx.asid, va, kind)
        tracer = self.tracer
        if entry is not None:
            if not is_write or (entry.writable and entry.dirty):
                if level == "l1":
                    self.counters.tlb_hits_l1 += 1
                else:
                    self.counters.tlb_hits_l2 += 1
                if tracer.enabled:
                    tracer.tlb_hit(self.clock.now if self.clock else 0,
                                   level, ctx.asid)
                return TranslationOutcome(entry.frame, level, None)
        try:
            result = self.walker.walk(va, ctx, is_write)
        except Exception as fault:
            refs = getattr(fault, "refs", 0)
            self.counters.fault_refs += refs
            raise
        self.counters.tlb_misses += 1
        self.counters.walk_refs += result.refs
        if ctx.mode == "agile":
            self.counters.walks_by_depth[result.nested_levels] += 1
        if tracer.enabled:
            tracer.walk(self.clock.now if self.clock else 0, result.mode,
                        result.refs, result.nested_levels, result.page_shift,
                        ctx.asid)
        if self.miss_hook is not None:
            self.miss_hook(va, result)
        self.hierarchy.fill(ctx.asid, va, result.frame, result.writable,
                            result.dirty, result.page_shift, kind)
        return TranslationOutcome(result.frame, None, result)

    # -- shootdown interface used by the OS and VMM -------------------------

    def invalidate_page(self, asid, va):
        self.hierarchy.invalidate_page(asid, va)
        if self.pwc is not None:
            self.pwc.invalidate_prefix(asid, va)

    def invalidate_asid(self, asid):
        self.hierarchy.invalidate_asid(asid)
        if self.pwc is not None:
            self.pwc.invalidate_asid(asid)

    def flush_all(self):
        self.hierarchy.flush()
        if self.pwc is not None:
            self.pwc.flush()
        if self.host_pwc is not None:
            self.host_pwc.flush()

    def flush_pwc(self):
        if self.pwc is not None:
            self.pwc.flush()
