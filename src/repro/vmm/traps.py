"""VMtrap taxonomy and accounting.

The paper defines VMtrap latency as "the cycles required for a VMexit
trap and its return plus the work done by the VMM in response to the
VMexit" (Section II-B) and measures costs per trap type with LMbench.
We keep the same taxonomy so the Figure 5 VMM-overhead bars can be
decomposed the same way.
"""

# Trap kinds (VMexits that reach the VMM).
PT_WRITE = "pt_write"  # mediated write to a shadow-covered guest PT page
CONTEXT_SWITCH = "context_switch"  # guest CR3 write under shadow/agile
SHADOW_FILL = "shadow_fill"  # shadow not-present fault: VMM merges an entry
DIRTY_SYNC = "dirty_sync"  # first write to a page: A/D protocol VMtrap
GUEST_FAULT_EXIT = "guest_fault_exit"  # guest #PF intercepted under shadow
HOST_FAULT = "host_fault"  # host PT (EPT) violation: VMM backs a gfn
INVLPG = "invlpg"  # guest INVLPG intercepted under shadow coverage

ALL_TRAP_KINDS = (
    PT_WRITE,
    CONTEXT_SWITCH,
    SHADOW_FILL,
    DIRTY_SYNC,
    GUEST_FAULT_EXIT,
    HOST_FAULT,
    INVLPG,
)

# Hardware-assisted events that *replace* traps (Section IV); tracked
# separately because they cost a page walk, not a VMexit.
AD_ASSIST = "ad_assist"
CR3_CACHE_HIT = "cr3_cache_hit"
# Background VMM work done during the policy scan (nested=>shadow
# reversion rebuilds shadow entries in bulk) — charged, but not a trap.
REVERT_REBUILD = "revert_rebuild"
# SHSP baseline: full shadow-table rebuild on a nested=>shadow switch.
SHSP_REBUILD = "shsp_rebuild"
# Balloon/reclaim under host memory pressure (repro.host): the VMM
# revokes backed frames — host-PT unmaps plus shadow invalidations —
# charged to the victim VM, but not a guest-visible trap.
BALLOON_REVOKE = "balloon_revoke"


class TrapStats:
    """Counts (and attributed cycles) per trap kind.

    :meth:`record` is the single choke point every trap kind flows
    through, which makes it the tracing instrumentation point too: when
    a tracer and clock are attached (``attach_tracer``), every recorded
    kind also becomes a ``vmtrap`` event — so per-kind event counts
    equal ``RunMetrics.trap_counts`` by construction.
    """

    def __init__(self):
        self.counts = {}
        self.cycles = {}
        self._tracer = None
        self._clock = None

    def attach_tracer(self, tracer, clock):
        """Mirror every future :meth:`record` into ``tracer``."""
        self._tracer = tracer
        self._clock = clock

    def record(self, kind, cycles=0):
        self.counts[kind] = self.counts.get(kind, 0) + 1
        self.cycles[kind] = self.cycles.get(kind, 0) + cycles
        tracer = self._tracer
        if tracer is not None and tracer.enabled:
            # record() runs before the clock advances by `cycles`, so
            # `now` is the trap's begin timestamp and `cycles` its span.
            tracer.vmtrap(self._clock.now, kind, cycles)

    def reset(self):
        """Zero all accounting (start of a measurement window)."""
        self.counts.clear()
        self.cycles.clear()

    @property
    def total_attributed_cycles(self):
        """All VMM-attributed cycles: traps plus hardware-assist and
        background-scan work done on the VMM's behalf."""
        return sum(self.cycles.values())

    def count(self, kind):
        return self.counts.get(kind, 0)

    def __repr__(self):
        return "TrapStats(%r)" % (self.counts,)
