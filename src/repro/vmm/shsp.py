"""SHSP: selective hardware/software paging (Wang et al., VEE 2011).

The paper's closest prior work and its implicit baseline: a VMM that
monitors TLB misses and guest page-table activity and periodically
switches an *entire* guest process between nested and shadow paging —
temporal selection only, where agile paging is temporal *and* spatial.

The crucial cost SHSP pays (and agile paging avoids) is rebuilding the
entire shadow page table on every nested=>shadow switch, which grows
with the process footprint ("expensive for multi-GB to TB workloads",
Section I). We charge that rebuild per resident page.

Section VII-C: "SHSP performs similarly to the best of the two
techniques ... [agile] exceeds the best of shadow and nested paging";
the ablation benchmark reproduces exactly that comparison.
"""

from repro.common.effects import policy_decision
from repro.vmm import traps as T

# Cycles to merge one guest mapping into the shadow table during a full
# rebuild (KVM-sync-page-scale work, amortized per PTE).
REBUILD_CYCLES_PER_PAGE = 60
# Hysteresis so marginal workloads do not oscillate between techniques.
SWITCH_MARGIN = 1.3

TECH_NESTED = "nested"
TECH_SHADOW = "shadow"


class SHSPWindow:
    """Activity observed during one decision interval."""

    __slots__ = ("tlb_misses", "pt_writes", "trap_cycles")

    def __init__(self):
        self.tlb_misses = 0
        self.pt_writes = 0
        self.trap_cycles = 0


class SHSPController:
    """Per-process technique selection for SHSP mode.

    ``decide`` runs every ``interval`` cycles, following the original
    SHSP heuristic: switch to nested when page-table updates would cost
    more in VMtraps than shadow walks save; switch back to shadow only
    after the update traffic has been quiet for two consecutive windows
    (hysteresis against rebuild thrashing). The whole-table rebuild is
    *charged* on every nested=>shadow switch — it is the price of
    temporal-only selection, not an input the controller can dodge.
    """

    def __init__(self, interval=150_000, miss_save_cycles=40,
                 pt_trap_cycles=2200, quiet_threshold=4):
        self.interval = interval
        self.miss_save_cycles = miss_save_cycles
        self.pt_trap_cycles = pt_trap_cycles
        self.quiet_threshold = quiet_threshold
        self.technique = TECH_SHADOW
        self.window = SHSPWindow()
        self._last_decision = 0
        self._consecutive_quiet = 0
        self.switches = 0

    def note_miss(self):
        self.window.tlb_misses += 1

    def note_pt_write(self):
        self.window.pt_writes += 1

    @policy_decision
    def decide(self, now, resident_pages):
        """Returns the technique to use from now on (may be unchanged)."""
        if now - self._last_decision < self.interval:
            return self.technique
        self._last_decision = now
        window, self.window = self.window, SHSPWindow()
        shadow_savings = window.tlb_misses * self.miss_save_cycles
        shadow_costs = window.pt_writes * self.pt_trap_cycles
        if self.technique == TECH_SHADOW:
            if shadow_costs > shadow_savings * SWITCH_MARGIN:
                self.technique = TECH_NESTED
                self._consecutive_quiet = 0
                self.switches += 1
        else:
            if window.pt_writes <= self.quiet_threshold:
                self._consecutive_quiet += 1
            else:
                self._consecutive_quiet = 0
            if (self._consecutive_quiet >= 2
                    and shadow_savings > shadow_costs * SWITCH_MARGIN):
                self.technique = TECH_SHADOW
                self._consecutive_quiet = 0
                self.switches += 1
        return self.technique


def rebuild_cost_cycles(resident_pages):
    """The full shadow-table (re)build cost SHSP pays on each
    nested=>shadow switch."""
    return resident_pages * REBUILD_CYCLES_PER_PAGE
