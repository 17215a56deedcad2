"""Page-walk caches (MMU caches), extended for agile paging.

Modern Intel cores keep three partial-translation tables that let a walk
skip the top one, two, or three levels of the radix tree. Section III-A
extends each entry with a single mode bit so the cached pointer may name
either a shadow page-table node (continue in shadow mode) or a guest
page-table node (continue in nested mode). This module implements that
extended design; with the mode fixed it degenerates to the stock caches
used by native and nested walks.
"""

from collections import OrderedDict

from repro.common.params import ROOT_LEVEL, level_shift

# What the cached pointer points at / which mode the walk continues in.
PWC_NATIVE = "native"  # node of a native page table (also used for sPT-as-1D)
PWC_SHADOW = "shadow"  # shadow page-table node: continue in shadow mode
PWC_GUEST = "guest"  # guest page-table node: continue in nested mode


class PageWalkCache:
    """Three skip tables: depth k caches the node reached after k levels.

    A depth-``k`` entry is tagged by the top ``k`` radix indices of the
    VA (plus the ASID) and stores the frame of the node that serves level
    ``ROOT_LEVEL - k``, together with the mode to continue in.
    """

    MAX_SKIP = 3  # never skips the leaf level

    def __init__(self, entries_per_table=32):
        self.entries_per_table = entries_per_table
        # Index 1..3 used; deeper table = more levels skipped.
        self._tables = {k: OrderedDict() for k in range(1, self.MAX_SKIP + 1)}

    @staticmethod
    def _tag(asid, va, depth):
        # The top `depth` radix indices: the VA bits above the index
        # field of the last level the cached entry lets the walk skip.
        return asid, va >> level_shift(ROOT_LEVEL - depth + 1)

    def lookup(self, asid, va):
        """Deepest available partial translation for ``va``.

        Returns ``(levels_skipped, frame, mode)`` or None. A successful
        hit means the walk may begin at level ``ROOT_LEVEL - skipped``
        inside the node at ``frame``, in ``mode``.
        """
        for depth in range(self.MAX_SKIP, 0, -1):
            table = self._tables[depth]
            key = self._tag(asid, va, depth)
            hit = table.get(key)
            if hit is not None:
                table.move_to_end(key)
                frame, mode = hit
                return depth, frame, mode
        return None

    def insert(self, asid, va, depth, frame, mode):
        """Cache the node reached after walking ``depth`` levels of ``va``."""
        if not 1 <= depth <= self.MAX_SKIP:
            return
        table = self._tables[depth]
        key = self._tag(asid, va, depth)
        if key not in table and len(table) >= self.entries_per_table:
            table.popitem(last=False)
        table[key] = (frame, mode)
        table.move_to_end(key)

    def iter_entries(self):
        """Yield ``(depth, (asid, tag), (frame, mode))`` per cached entry,
        each table in LRU-to-MRU order, leaving that order alone."""
        for depth, table in self._tables.items():
            for key, value in table.items():
                yield depth, key, value

    def invalidate_asid(self, asid):
        for table in self._tables.values():
            for key in [k for k in table if k[0] == asid]:
                del table[key]

    def invalidate_prefix(self, asid, va):
        """Drop entries covering ``va`` (called when PT structure changes)."""
        for depth, table in self._tables.items():
            table.pop(self._tag(asid, va, depth), None)

    def flush(self):
        for table in self._tables.values():
            table.clear()
