"""The nested TLB: a small cache of gPA=>hPA translations.

AMD proposed (and Intel ships, as EPT-cached entries) a structure that
caches second-stage translations so the repeated host walks inside a 2D
nested walk can be skipped [Bhargava et al. 2008]. The paper's baseline
hardware includes it; Table II / Table VI raw reference counts assume it
absent. It is therefore optional here (``nested_tlb_entries`` in the
machine config) and is an ablation axis.
"""

from collections import OrderedDict


class NestedTLBStats:
    __slots__ = ("hits", "misses")

    def __init__(self):
        self.hits = 0
        self.misses = 0


class NestedTLB:
    """Fully associative, LRU cache of guest-frame -> host-frame entries."""

    def __init__(self, entries):
        if entries <= 0:
            raise ValueError("nested TLB needs a positive entry count")
        self.capacity = entries
        self._entries = OrderedDict()  # gfn -> (hfn, writable, dirty)
        self.stats = NestedTLBStats()

    def lookup(self, gfn, is_write):
        """Cached (hfn, writable, dirty) for ``gfn`` or None.

        A write through an entry whose host dirty bit is clear must miss:
        the real walk is needed so hardware can set the host dirty bit
        (which the dirty-bit reversion policy of Section III-C reads).
        """
        hit = self._entries.get(gfn)
        if hit is None:
            self.stats.misses += 1
            return None
        hfn, writable, dirty = hit
        if is_write and (not writable or not dirty):
            self.stats.misses += 1
            return None
        self._entries.move_to_end(gfn)
        self.stats.hits += 1
        return hit

    def insert(self, gfn, hfn, writable, dirty):
        if gfn not in self._entries and len(self._entries) >= self.capacity:
            self._entries.popitem(last=False)
        self._entries[gfn] = (hfn, writable, dirty)
        self._entries.move_to_end(gfn)

    def invalidate_gfn(self, gfn):
        self._entries.pop(gfn, None)

    def flush(self):
        self._entries.clear()
