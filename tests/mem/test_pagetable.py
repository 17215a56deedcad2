"""Unit tests for the radix page table."""

import pytest

from repro.common.params import FOUR_KB, ONE_GB, TWO_MB
from repro.mem.pagetable import PageTable, PageTableObserver
from repro.mem.physmem import PhysicalMemory


@pytest.fixture
def mem():
    return PhysicalMemory(4096)


@pytest.fixture
def table(mem):
    return PageTable(mem, "PT")


class TestMapLookup:
    def test_map_then_lookup(self, table):
        table.map(0x4000, 7)
        pte, level = table.lookup(0x4000)
        assert pte.frame == 7
        assert level == 1

    def test_unmapped_lookup(self, table):
        pte, level = table.lookup(0xDEAD000)
        assert pte is None
        assert level == 4

    def test_translate(self, table):
        table.map(0x4000, 7)
        assert table.translate(0x4000) == (7, 12)
        assert table.translate(0x4321) == (7, 12)  # same page
        assert table.translate(0x5000) is None

    def test_distinct_mappings(self, table):
        table.map(0x1000, 1)
        table.map(0x2000, 2)
        assert table.translate(0x1000)[0] == 1
        assert table.translate(0x2000)[0] == 2

    def test_remap_overwrites(self, table):
        table.map(0x1000, 1)
        table.map(0x1000, 9)
        assert table.translate(0x1000)[0] == 9

    def test_far_apart_vas(self, table):
        low, high = 0x1000, (400 << 39) | 0x1000
        table.map(low, 1)
        table.map(high, 2)
        assert table.translate(low)[0] == 1
        assert table.translate(high)[0] == 2


class TestHugePages:
    def test_2m_mapping(self, table):
        table.map(0, 512, TWO_MB)
        pte, level = table.lookup(0)
        assert level == 2
        assert pte.huge

    def test_2m_translate_offsets(self, table):
        table.map(0, 512, TWO_MB)
        frame, shift = table.translate(5 << 12)
        assert shift == 21
        assert frame == 512 + 5

    def test_1g_translate(self, table):
        table.map(0, 0, ONE_GB)
        frame, shift = table.translate(123 << 12)
        assert shift == 30
        assert frame == 123

    def test_huge_blocks_deeper_path(self, table):
        table.map(0, 512, TWO_MB)
        with pytest.raises(Exception):
            table.ensure_path(0x1000, 1)


class TestUnmapAndFlags:
    def test_unmap(self, table):
        table.map(0x1000, 3)
        old = table.unmap(0x1000)
        assert old.frame == 3
        assert table.translate(0x1000) is None

    def test_unmap_absent_returns_none(self, table):
        assert table.unmap(0x9000) is None

    def test_set_flags(self, table):
        table.map(0x1000, 3, writable=True)
        updated = table.set_flags(0x1000, writable=False, dirty=True)
        assert not updated.writable
        assert updated.dirty
        pte, _ = table.lookup(0x1000)
        assert not pte.writable

    def test_set_flags_unknown_key(self, table):
        table.map(0x1000, 3)
        with pytest.raises(ValueError):
            table.set_flags(0x1000, global_bit=True)

    def test_set_flags_absent(self, table):
        assert table.set_flags(0x9000, dirty=True) is None


class TestIteration:
    def test_iter_leaves(self, table):
        table.map(0x1000, 1)
        table.map(0x2000, 2)
        table.map(1 << 30, 3)
        leaves = {va: pte.frame for va, pte, _ in table.iter_leaves()}
        assert leaves == {0x1000: 1, 0x2000: 2, 1 << 30: 3}

    def test_iter_leaves_includes_huge(self, table):
        table.map(0, 512, TWO_MB)
        [(va, pte, level)] = list(table.iter_leaves())
        assert va == 0
        assert level == 2

    def test_iter_nodes_parents_first(self, table):
        table.map(0x1000, 1)
        nodes = list(table.iter_nodes())
        levels = [n.level for n in nodes]
        assert levels[0] == 4
        assert sorted(levels, reverse=True) == levels


class TestSubtreeManagement:
    def test_clear_subtree_frees_frames(self, mem, table):
        for i in range(4):
            table.map(i << 12, i)
        before = mem.allocator.allocated
        index = 0  # all mappings share the top-level entry 0
        table.clear_subtree(table.root, index)
        assert mem.allocator.allocated < before
        assert table.translate(0x1000) is None

    def test_destroy_frees_everything(self, mem, table):
        table.map(0x1000, 1)
        table.map(1 << 39, 2)
        table.destroy()
        assert mem.allocator.allocated == 0


class RecordingObserver(PageTableObserver):
    def __init__(self):
        self.allocs = []
        self.writes = []
        self.frees = []

    def node_allocated(self, table, node, parent):
        self.allocs.append((node.level, parent.level if parent is not None else None))

    def pte_written(self, table, node, index, old, new):
        self.writes.append((node.level, index, old, new))

    def node_freed(self, table, node):
        self.frees.append(node.level)


class TestObserver:
    def test_map_reports_writes_and_allocs(self, mem):
        observer = RecordingObserver()
        table = PageTable(mem, "gPT", observer=observer)
        table.map(0x1000, 5)
        # Root alloc + three intermediate nodes.
        assert observer.allocs == [(4, None), (3, 4), (2, 3), (1, 2)]
        # Three intermediate link writes + the leaf write.
        assert len(observer.writes) == 4
        level, index, old, new = observer.writes[-1]
        assert level == 1
        assert old is None
        assert new.frame == 5

    def test_unmap_reports_write(self, mem):
        observer = RecordingObserver()
        table = PageTable(mem, "gPT", observer=observer)
        table.map(0x1000, 5)
        observer.writes.clear()
        table.unmap(0x1000)
        [(level, _, old, new)] = observer.writes
        assert level == 1
        assert old.frame == 5
        assert new is None

    def test_free_reports_nodes(self, mem):
        observer = RecordingObserver()
        table = PageTable(mem, "gPT", observer=observer)
        table.map(0x1000, 5)
        table.destroy()
        assert sorted(observer.frees) == [1, 2, 3, 4]
