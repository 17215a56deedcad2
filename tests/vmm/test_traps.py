"""Unit tests for VMtrap accounting."""

from repro.common.config import sandy_bridge_config
from repro.common.params import FOUR_KB
from repro.core.machine import System
from repro.core.metrics import RunMetrics
from repro.vmm import traps as T
from repro.vmm.traps import TrapStats


class TestTrapStats:
    def test_record_counts_and_cycles(self):
        stats = TrapStats()
        stats.record(T.PT_WRITE, 2200)
        stats.record(T.PT_WRITE, 2200)
        stats.record(T.CONTEXT_SWITCH, 1800)
        assert stats.count(T.PT_WRITE) == 2
        assert stats.cycles[T.PT_WRITE] == 4400
        assert stats.counts == {T.PT_WRITE: 2, T.CONTEXT_SWITCH: 1}
        assert stats.total_attributed_cycles == 6200

    def test_hardware_events_not_counted_as_traps(self):
        stats = TrapStats()
        stats.record(T.AD_ASSIST, 960)
        stats.record(T.CR3_CACHE_HIT, 0)
        metrics = RunMetrics("t", "agile", FOUR_KB, trap_counts=stats.counts)
        assert metrics.vmtraps == 0
        assert stats.total_attributed_cycles == 960  # VMM work, not traps
        assert stats.counts[T.AD_ASSIST] == 1

    def test_reset(self):
        stats = TrapStats()
        stats.record(T.HOST_FAULT, 3500)
        stats.reset()
        assert stats.counts == {} and stats.cycles == {}

    def test_unknown_count_is_zero(self):
        assert TrapStats().count("nonexistent") == 0

    def test_snapshot_is_a_copy(self):
        """A System snapshot copies the trap tables: editing it leaves
        the live stats alone, and a counter reset leaves it alone."""
        system = System(sandy_bridge_config(mode="shadow"))
        stats = system.vmm.traps
        stats.record(T.INVLPG, 1200)
        system.clock.advance(1200)  # charged, as VMM._trap charges it
        snap = system.snapshot()
        snap.trap_counts[T.INVLPG] = 999
        assert stats.count(T.INVLPG) == 1
        system.reset_counters()
        assert snap.trap_cycles == {T.INVLPG: 1200}

    def test_all_trap_kinds_enumerated(self):
        assert set(T.ALL_TRAP_KINDS) == {
            "pt_write", "context_switch", "shadow_fill", "dirty_sync",
            "guest_fault_exit", "host_fault", "invlpg",
        }
