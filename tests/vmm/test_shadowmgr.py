"""Unit tests for the shadow/agile page-table manager.

Exercised through a real guest kernel + process (bare platform) with a
manually attached manager, so the observer event stream is authentic.
"""

import pytest

from repro.common.params import FOUR_KB, pt_index
from repro.guest.process import GuestProcess
from repro.mem.pagetable import PageTableObserver
from repro.mem.physmem import PhysicalMemory
from repro.vmm.hostpt import HostPageTable
from repro.vmm.shadowmgr import NODE_NESTED, NODE_SHADOW, ShadowManager


class RecordingSink:
    """Stands in for the MMU's shootdown interface."""

    def __init__(self):
        self.pages = []
        self.asids = []
        self.pwc_flushes = 0

    def invalidate_page(self, asid, va):
        self.pages.append((asid, va))

    def invalidate_asid(self, asid):
        self.asids.append(asid)

    def flush_pwc(self):
        self.pwc_flushes += 1


class ManagerObserver(PageTableObserver):
    """Routes one process's PT events into a manager, recording outcomes."""

    def __init__(self):
        self.manager = None
        self.events = []

    def node_allocated(self, table, node, parent):
        self.manager.on_node_allocated(node, parent)

    def pte_written(self, table, node, index, old, new):
        self.events.append(self.manager.on_pte_written(node, index, old, new))

    def node_freed(self, table, node):
        self.manager.on_node_freed(node)


class Setup:
    def __init__(self, agile=True, ad_assist=False, start_nested=False):
        self.guest_mem = PhysicalMemory(1 << 14, "guest")
        self.host_mem = PhysicalMemory(1 << 15, "host")
        self.hostpt = HostPageTable(self.host_mem)
        self.sink = RecordingSink()
        self.observer = ManagerObserver()
        # Manager must exist before the process allocates its root node,
        # mirroring VMM.observer_for; swap in after construction.
        self.manager = None

        class _Proxy(PageTableObserver):
            def __init__(proxy):
                pass

        self.manager = ShadowManager(
            pid=1,
            host_mem=self.host_mem,
            guest_mem=self.guest_mem,
            hostpt=self.hostpt,
            page_size=FOUR_KB,
            inval=self.sink,
            agile=agile,
            start_nested=start_nested,
            ad_assist=ad_assist,
        )
        self.observer.manager = self.manager
        self.proc = GuestProcess(1, self.guest_mem, observer=self.observer)

    def map_guest(self, va, writable=True):
        gfn = self.guest_mem.alloc_data_page()
        self.proc.page_table.map(va, gfn, writable=writable)
        return gfn


VA = (1 << 39) | (2 << 30) | (3 << 21) | (4 << 12)


@pytest.fixture
def setup():
    return Setup()


class TestTracking:
    def test_root_registered(self, setup):
        meta = setup.manager.node_meta[setup.proc.gptr]
        assert meta.level == 4
        assert meta.prefix == 0
        assert meta.mode == NODE_SHADOW

    def test_nodes_get_prefixes_on_link(self, setup):
        setup.map_guest(VA)
        prefixes = {
            meta.level: meta.prefix for meta in setup.manager.node_meta.values()
        }
        assert prefixes[4] == 0
        assert prefixes[3] == (1 << 39)
        assert prefixes[2] == (1 << 39) | (2 << 30)
        assert prefixes[1] == (1 << 39) | (2 << 30) | (3 << 21)

    def test_gpt_nodes_are_host_backed(self, setup):
        setup.map_guest(VA)
        for gfn in setup.manager.node_meta:
            assert setup.hostpt.translate(gfn) is not None

    def test_writes_are_mediated_under_shadow(self, setup):
        setup.map_guest(VA)
        kinds = [kind for kind, _ in setup.observer.events]
        assert kinds and all(kind == "mediated" for kind in kinds)


class TestFill:
    def test_fill_installs_merged_leaf(self, setup):
        gfn = setup.map_guest(VA)
        assert setup.manager.fill_for(VA) == "filled"
        spte, level = setup.manager.spt.lookup(VA)
        assert spte is not None
        assert level == 1
        assert spte.frame == setup.hostpt.translate(gfn)

    def test_fill_without_guest_mapping_is_guest_fault(self, setup):
        assert setup.manager.fill_for(VA) == "guest_fault"

    def test_fill_write_enable_not_propagated(self, setup):
        setup.map_guest(VA, writable=True)
        setup.manager.fill_for(VA)
        spte, _ = setup.manager.spt.lookup(VA)
        assert not spte.writable  # dirty protocol: first write must fault

    def test_fill_sets_guest_accessed(self, setup):
        setup.map_guest(VA)
        setup.manager.fill_for(VA)
        gpte, _ = setup.proc.page_table.lookup(VA)
        assert gpte.accessed

    def test_fill_with_ad_assist_propagates_writable(self):
        setup = Setup(ad_assist=True)
        setup.map_guest(VA, writable=True)
        setup.manager.fill_for(VA)
        spte, _ = setup.manager.spt.lookup(VA)
        assert spte.writable


class TestProtectionFix:
    def test_dirty_protocol(self, setup):
        setup.map_guest(VA, writable=True)
        setup.manager.fill_for(VA)
        assert setup.manager.protection_fix(VA) == "dirty_fixed"
        spte, _ = setup.manager.spt.lookup(VA)
        gpte, _ = setup.proc.page_table.lookup(VA)
        assert spte.writable and spte.dirty
        assert gpte.dirty
        assert (1, VA) in setup.sink.pages

    def test_readonly_guest_pte_is_guest_fault(self, setup):
        setup.map_guest(VA, writable=False)
        setup.manager.fill_for(VA)
        assert setup.manager.protection_fix(VA) == "guest_fault"

    def test_missing_shadow_leaf_refills(self, setup):
        setup.map_guest(VA, writable=True)
        assert setup.manager.protection_fix(VA) == "refill"


class TestSync:
    def test_guest_unmap_zaps_shadow(self, setup):
        setup.map_guest(VA)
        setup.manager.fill_for(VA)
        setup.proc.page_table.unmap(VA)
        spte, _ = setup.manager.spt.lookup(VA)
        assert spte is None
        assert (1, VA) in setup.sink.pages

    def test_guest_protect_zaps_shadow(self, setup):
        setup.map_guest(VA)
        setup.manager.fill_for(VA)
        setup.proc.page_table.set_flags(VA, writable=False)
        spte, _ = setup.manager.spt.lookup(VA)
        assert spte is None

    def test_shadow_coherent_after_remap(self, setup):
        setup.map_guest(VA)
        setup.manager.fill_for(VA)
        new_gfn = setup.guest_mem.alloc_data_page()
        setup.proc.page_table.map(VA, new_gfn)
        assert setup.manager.fill_for(VA) == "filled"
        spte, _ = setup.manager.spt.lookup(VA)
        assert spte.frame == setup.hostpt.translate(new_gfn)


class TestModeSwitching:
    def _leaf_gfn(self, setup, va):
        """gfn of the guest leaf-level PT node covering va."""
        node = setup.proc.page_table.root
        for level in (4, 3, 2):
            node = setup.proc.page_table.node_at(node.get(pt_index(va, level)).frame)
        return node.frame

    def test_switch_leaf_node(self, setup):
        setup.map_guest(VA)
        setup.manager.fill_for(VA)
        leaf_gfn = self._leaf_gfn(setup, VA)
        assert setup.manager.switch_to_nested(leaf_gfn)
        assert setup.manager.node_meta[leaf_gfn].mode == NODE_NESTED
        # Switching bit is at level 2, pointing at the guest node.
        node = setup.manager._descend(2, VA)
        spte = node.get(pt_index(VA, 2))
        assert spte.switching
        assert spte.frame == leaf_gfn
        assert setup.sink.pwc_flushes >= 1

    def test_writes_after_switch_are_direct(self, setup):
        setup.map_guest(VA)
        leaf_gfn = self._leaf_gfn(setup, VA)
        setup.manager.switch_to_nested(leaf_gfn)
        setup.observer.events.clear()
        setup.proc.page_table.set_flags(VA, writable=False)
        assert setup.observer.events == [("direct", None)]
        assert setup.hostpt.is_dirty(leaf_gfn)

    def test_switch_root(self, setup):
        setup.map_guest(VA)
        setup.manager.fill_for(VA)
        assert setup.manager.switch_to_nested(setup.proc.gptr)
        assert setup.manager.root_switched
        for meta in setup.manager.node_meta.values():
            assert meta.mode == NODE_NESTED

    def test_switch_subtree_marks_descendants(self, setup):
        setup.map_guest(VA)
        setup.map_guest(VA + (1 << 21))  # sibling leaf node under same L2
        l2_node = setup.proc.page_table.root
        for level in (4, 3):
            l2_node = setup.proc.page_table.node_at(
                l2_node.get(pt_index(VA, level)).frame
            )
        setup.manager.switch_to_nested(l2_node.frame)
        nested = [g for g, m in setup.manager.node_meta.items()
                  if m.mode == NODE_NESTED]
        assert l2_node.frame in nested
        assert len(nested) == 3  # the L2 node + two leaf nodes

    def test_fill_across_nested_boundary_installs_switch(self, setup):
        setup.map_guest(VA)
        leaf_gfn = self._leaf_gfn(setup, VA)
        setup.manager.switch_to_nested(leaf_gfn)
        # Zap everything, then fill: must reinstall the switching entry.
        for index in list(setup.manager.spt.root.entries):
            setup.manager.spt.clear_subtree(setup.manager.spt.root, index)
        assert setup.manager.fill_for(VA) == "switch_installed"
        node = setup.manager._descend(2, VA)
        assert node.get(pt_index(VA, 2)).switching

    def test_revert_leaf(self, setup):
        setup.map_guest(VA)
        leaf_gfn = self._leaf_gfn(setup, VA)
        setup.manager.switch_to_nested(leaf_gfn)
        assert setup.manager.revert_to_shadow(leaf_gfn)
        assert setup.manager.node_meta[leaf_gfn].mode == NODE_SHADOW
        # Switch entry removed; fill works as plain shadow again.
        assert setup.manager.fill_for(VA) == "filled"

    def test_revert_under_nested_parent_rejected(self, setup):
        setup.map_guest(VA)
        setup.manager.switch_to_nested(setup.proc.gptr)
        leaf_gfn = self._leaf_gfn(setup, VA)
        with pytest.raises(Exception):
            setup.manager.revert_to_shadow(leaf_gfn)

    def test_revert_all(self, setup):
        setup.map_guest(VA)
        setup.manager.switch_to_nested(setup.proc.gptr)
        reverted = setup.manager.revert_all()
        assert reverted == len(setup.manager.node_meta)
        assert not setup.manager.root_switched
        assert setup.manager.fill_for(VA) == "filled"

    def test_switch_requires_agile(self):
        setup = Setup(agile=False)
        setup.map_guest(VA)
        with pytest.raises(Exception):
            setup.manager.switch_to_nested(setup.proc.gptr)


class TestStartNested:
    def test_fully_nested_writes_direct(self):
        setup = Setup(start_nested=True)
        setup.map_guest(VA)
        kinds = {kind for kind, _ in setup.observer.events}
        assert kinds == {"direct"}

    def test_fill_reports_root_switch(self):
        setup = Setup(start_nested=True)
        setup.map_guest(VA)
        assert setup.manager.fill_for(VA) == "root_switch"
        assert setup.manager.root_switched

    def test_enable_shadow_coverage(self):
        setup = Setup(start_nested=True)
        setup.map_guest(VA)
        setup.manager.enable_shadow_coverage()
        assert not setup.manager.fully_nested
        assert setup.manager.fill_for(VA) == "filled"
