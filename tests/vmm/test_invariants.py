"""Paranoid-mode invariant checker: clean runs pass, corruption raises.

Each corruption test injects one precise defect into an otherwise
healthy simulated machine and asserts the checker names the violated
invariant and carries enough walk context to debug it.
"""

from itertools import repeat

import pytest

from repro.common.config import sandy_bridge_config
from repro.core.machine import System
from repro.core.simulator import MachineAPI, Simulator
from repro.hw.tlb import TLBEntry
from repro.vmm.invariants import (
    NESTED_SUBTREES,
    SHADOW_COHERENCE,
    SWITCHING_BITS,
    TLB_COHERENCE,
    InvariantViolation,
)
from repro.vmm.shadowmgr import NODE_NESTED, NODE_SHADOW
from repro.vmm.shsp import TECH_NESTED, TECH_SHADOW
from repro.workloads.suite import DedupLike


def run_agile(ops=10_000):
    system = System(sandy_bridge_config(mode="agile", paranoid=True))
    Simulator(system).run(DedupLike(ops=ops))
    return system


def shadowed_state(system):
    """A live process with actual shadow leaves to corrupt."""
    for state in system.vmm.states.values():
        if state.manager is None or state.manager.fully_nested:
            continue
        if list(state.manager.spt.iter_leaves()):
            return state
    raise AssertionError("no process with shadow coverage")


class TestCleanRuns:
    def test_agile_run_is_coherent_and_checked(self):
        system = run_agile()
        inv = system.vmm.invariants
        assert inv.checks > 100
        assert inv.full_checks > 0
        system.check_invariants()  # explicit final sweep also passes

    @pytest.mark.parametrize("mode", ("nested", "shadow", "shsp"))
    def test_other_modes_are_coherent(self, mode):
        system = System(sandy_bridge_config(mode=mode, paranoid=True))
        Simulator(system).run(DedupLike(ops=6_000))
        assert system.vmm.invariants.checks > 0

    def test_paranoid_off_means_no_checker(self):
        system = System(sandy_bridge_config(mode="agile"))
        assert system.vmm.invariants is None
        system.check_invariants()  # no-op, no crash


class TestShadowCoherence:
    def test_corrupted_shadow_frame_is_detected_with_context(self):
        system = run_agile()
        state = shadowed_state(system)
        va, spte, _level = list(state.manager.spt.iter_leaves())[0]
        spte.frame += 1
        with pytest.raises(InvariantViolation) as excinfo:
            system.check_invariants()
        violation = excinfo.value
        assert violation.invariant == SHADOW_COHERENCE
        assert violation.context["pid"] == state.pid
        assert violation.context["va"] == va
        assert violation.context["actual"] == spte.frame
        assert "shadow_path" in violation.context
        assert "guest_path" in violation.context
        assert "0x" in str(violation)  # VAs render in hex

    def test_stale_shadow_leaf_over_unmapped_page_is_detected(self):
        system = run_agile()
        state = shadowed_state(system)
        manager = state.manager
        va, _spte, _level = list(manager.spt.iter_leaves())[0]
        # Rip the mapping out of the guest table behind the VMM's back
        # (bypassing the observer, as a simulator bug would).
        gnode = manager._guest_node(manager.root_gfn)
        from repro.common.params import LEAF_LEVEL, ROOT_LEVEL, pt_index

        for level in range(ROOT_LEVEL, LEAF_LEVEL, -1):
            gpte = gnode.get(pt_index(va, level))
            if gpte.huge:
                break
            gnode = manager._guest_node(gpte.frame)
        gnode.clear(pt_index(va, LEAF_LEVEL))
        with pytest.raises(InvariantViolation) as excinfo:
            system.check_invariants()
        assert excinfo.value.invariant in (SHADOW_COHERENCE, TLB_COHERENCE)

    def test_overbroad_write_permission_is_detected(self):
        # Write a region, make it read-only, let the policy revert its
        # subtree to shadow mode, then read it: the fills are read-only
        # shadow leaves.
        system = System(sandy_bridge_config(mode="agile", paranoid=True))
        api = MachineAPI(system)
        api.spawn()
        size = 8 * 4096
        base = api.mmap(size)
        pages = range(base, base + size, 4096)
        api.access_many(pages, repeat(True))
        api.mprotect(base, size, writable=False)
        api.settle()
        api.access_many(pages, repeat(False))
        manager = system.vmm.states[api.current.pid].manager
        read_only = [spte for va, spte, _level in manager.spt.iter_leaves()
                     if base <= va < base + size and not spte.writable]
        assert len(read_only) == 8
        system.check_invariants()
        read_only[0].writable = True
        with pytest.raises(InvariantViolation) as excinfo:
            system.check_invariants()
        assert excinfo.value.invariant == SHADOW_COHERENCE


class TestSwitchingBits:
    def test_switch_entry_to_shadow_mode_node_is_detected(self):
        system = run_agile()
        state = shadowed_state(system)
        manager = state.manager
        target = None
        for gfn, meta in manager.node_meta.items():
            if (meta.mode == NODE_SHADOW and meta.prefix is not None
                    and gfn != manager.root_gfn and meta.level >= 1):
                target = (gfn, meta)
                break
        assert target is not None
        gfn, meta = target
        manager._install_switch(meta.prefix, meta.level + 1, gfn)
        with pytest.raises(InvariantViolation) as excinfo:
            system.check_invariants()
        assert excinfo.value.invariant == SWITCHING_BITS
        assert "shadow-mode node" in excinfo.value.message


class TestNestedSubtrees:
    def test_mode_inheritance_violation_is_detected(self):
        system = run_agile()
        state = shadowed_state(system)
        manager = state.manager
        # A shadow-mode node whose parent we flip to nested: mode
        # switches must move whole subtrees, so this state is corrupt.
        for gfn, meta in manager.node_meta.items():
            parent_meta = manager.node_meta.get(meta.parent_gfn or -1)
            if (meta.mode == NODE_SHADOW and parent_meta is not None
                    and meta.parent_gfn != manager.root_gfn
                    and parent_meta.mode == NODE_SHADOW):
                parent_meta.mode = NODE_NESTED
                break
        else:
            raise AssertionError("no interior node to corrupt")
        with pytest.raises(InvariantViolation) as excinfo:
            system.check_invariants()
        assert excinfo.value.invariant == NESTED_SUBTREES


class TestTLBCoherence:
    def test_stale_tlb_frame_is_detected(self):
        system = run_agile()
        state = shadowed_state(system)
        proc = state.proc
        va = next(va for va, _pte, _level in proc.page_table.iter_leaves())
        bogus = TLBEntry(asid=proc.asid, vpn=va >> 12, frame=999_999,
                         page_shift=12, writable=False)
        system.mmu.hierarchy.hierarchies[12].l1d.insert(bogus)
        with pytest.raises(InvariantViolation) as excinfo:
            system.check_invariants()
        assert excinfo.value.invariant == TLB_COHERENCE
        assert excinfo.value.context["pid"] == state.pid


class TestSHSPRebuildRegression:
    def test_enable_shadow_coverage_drops_stale_leaves(self):
        """Guest unmaps during SHSP's nested phase must not survive in
        the shadow table after the switch back to shadow paging."""
        system = System(sandy_bridge_config(mode="shsp", paranoid=True))
        kernel = system.kernel
        proc = kernel.create_process()
        state = system.vmm.states[proc.pid]
        manager = state.manager
        page = system.config.page_size.bytes
        base = kernel.mmap(proc, 8 * page, populate=True)
        for i in range(8):
            system.access(base + i * page)  # shadow phase: fill the sPT
        assert any(va == base for va, _p, _l in manager.spt.iter_leaves())
        # Nested phase: guest PT updates go direct, no shadow sync.
        state.shsp.technique = TECH_NESTED
        manager.fully_nested = True
        kernel.munmap(proc, base, 4 * page)
        # Back to shadow: the rebuild must start from a clean table.
        state.shsp.technique = TECH_SHADOW
        manager.enable_shadow_coverage()
        manager.rebuild_full(proc.page_table)
        shadow_vas = {va for va, _p, _l in manager.spt.iter_leaves()}
        assert base not in shadow_vas
        system.check_invariants()
