"""The context-switch hardware optimization of Section IV.

A small (4–8 entry) hardware cache maps a guest page-table pointer (the
value the guest writes to CR3) to the matching shadow page-table pointer.
On a hit the hardware installs the shadow root itself and the VMtrap that
shadow paging normally pays on every guest context switch is avoided.
The VMM fills and invalidates the cache.
"""

from collections import OrderedDict


class CR3Cache:
    """Fully associative, LRU cache of gCR3 -> sCR3 pairs."""

    def __init__(self, entries=8):
        if entries <= 0:
            raise ValueError("CR3 cache needs a positive entry count")
        self.capacity = entries
        self._entries = OrderedDict()

    def lookup(self, gcr3):
        """The cached shadow root for ``gcr3`` or None."""
        sptr = self._entries.get(gcr3)
        if sptr is not None:
            self._entries.move_to_end(gcr3)
        return sptr

    def insert(self, gcr3, sptr):
        """VMM fills the cache after resolving a miss."""
        if gcr3 not in self._entries and len(self._entries) >= self.capacity:
            self._entries.popitem(last=False)
        self._entries[gcr3] = sptr
        self._entries.move_to_end(gcr3)

    def iter_entries(self):
        """Yield ``(gcr3, sptr)`` pairs in LRU-to-MRU order, leaving it alone."""
        return iter(self._entries.items())

    def invalidate(self, gcr3):
        """VMM drops a pair when the shadow root changes or dies."""
        self._entries.pop(gcr3, None)

    def flush(self):
        self._entries.clear()
