"""A data-cache model for page-table entries.

Commodity processors cache page-table entries in their ordinary data
caches [Intel optimization manual; paper Section II], so repeated walk
references to the same page-table cache line are much cheaper than
DRAM. The flat per-reference cost in :class:`CostConfig` models the
*average*; enabling this structure makes the split explicit — each walk
reference is classified hit/cheap or miss/expensive — and provides an
ablation axis for how much PTE caching matters per paging mode (nested
walks touch many more lines, so they benefit more).

Geometry: 64-byte lines hold 8 PTEs; lines are tagged by (address
space, node frame, line-within-node) and kept in a set-associative LRU
array like a small slice of an L2 cache.
"""

from collections import OrderedDict


PTES_PER_LINE = 8


class PTECacheStats:
    __slots__ = ("hits", "misses")

    def __init__(self):
        self.hits = 0
        self.misses = 0

    @property
    def hit_rate(self):
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class PTECache:
    """Set-associative cache of page-table cache lines."""

    def __init__(self, lines=256, ways=8):
        if lines <= 0 or ways <= 0 or lines % ways:
            raise ValueError("lines must be a positive multiple of ways")
        self.ways = ways
        self.num_sets = lines // ways
        self._sets = [OrderedDict() for _ in range(self.num_sets)]
        self.stats = PTECacheStats()

    def access(self, space, frame, index):
        """Touch the line holding entry ``index`` of node ``frame``.

        Returns True on a hit; on a miss the line is filled. ``space``
        distinguishes guest-physical from host-physical frames.
        """
        line = index // PTES_PER_LINE
        key = (space, frame, line)
        entries = self._sets[hash(key) % self.num_sets]
        if key in entries:
            entries.move_to_end(key)
            self.stats.hits += 1
            return True
        if len(entries) >= self.ways:
            entries.popitem(last=False)
        entries[key] = True
        self.stats.misses += 1
        return False

    def invalidate_frame(self, space, frame):
        """Drop every line of one node (the frame was freed/repurposed)."""
        for entries in self._sets:
            for key in [k for k in entries if k[0] == space and k[1] == frame]:
                del entries[key]

    def flush(self):
        for entries in self._sets:
            entries.clear()
