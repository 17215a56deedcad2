"""Set-associative, LRU-replacement translation lookaside buffers.

Entries are tagged by (ASID, virtual page number). An entry caches the
complete gVA=>hPA (or VA=>PA when native) translation, which is what all
four techniques in the paper produce on a fill — only the *walk* that
creates the entry differs between modes.
"""

from collections import OrderedDict


class TLBEntry:
    """One cached translation."""

    __slots__ = ("asid", "vpn", "frame", "page_shift", "writable", "dirty")

    def __init__(self, asid, vpn, frame, page_shift, writable, dirty=False):
        self.asid = asid
        self.vpn = vpn
        self.frame = frame
        self.page_shift = page_shift
        self.writable = writable
        # ``dirty`` records whether the backing leaf PTE already has its
        # dirty bit set; a write through a clean entry must re-walk so the
        # hardware/VMM can set dirty bits (Section III-B).
        self.dirty = dirty

    def __repr__(self):
        return "TLBEntry(asid=%d, vpn=%#x, frame=%d, w=%s, d=%s)" % (
            self.asid,
            self.vpn,
            self.frame,
            self.writable,
            self.dirty,
        )


class TLB:
    """One set-associative TLB for a single page size."""

    def __init__(self, entries, ways, page_shift, name="TLB"):
        if entries % ways:
            raise ValueError("entries must be a multiple of ways")
        self.name = name
        self.page_shift = page_shift
        self.ways = ways
        self.num_sets = entries // ways
        self._sets = [OrderedDict() for _ in range(self.num_sets)]

    def _set_for(self, vpn):
        return self._sets[vpn % self.num_sets]

    def lookup(self, asid, va):
        """The entry translating ``va`` for ``asid``, or None on a miss.

        A hit becomes the set's most recently used entry.
        """
        vpn = va >> self.page_shift
        entries = self._sets[vpn % self.num_sets]
        key = (asid, vpn)
        entry = entries.get(key)
        if entry is not None:
            entries.move_to_end(key)
        return entry

    def insert(self, entry):
        """Install ``entry``, evicting the set's LRU victim if full."""
        entries = self._set_for(entry.vpn)
        key = (entry.asid, entry.vpn)
        if key not in entries and len(entries) >= self.ways:
            entries.popitem(last=False)
        entries[key] = entry
        entries.move_to_end(key)
        return entry

    def invalidate_page(self, asid, va):
        """Drop the entry for one page (the INVLPG analogue)."""
        vpn = va >> self.page_shift
        self._set_for(vpn).pop((asid, vpn), None)

    def invalidate_asid(self, asid):
        """Drop every entry belonging to ``asid``."""
        for entries in self._sets:
            victims = [key for key in entries if key[0] == asid]
            for key in victims:
                del entries[key]

    def flush(self):
        """Drop everything (a full TLB flush)."""
        for entries in self._sets:
            entries.clear()

    # -- non-perturbing introspection (paranoid-mode invariant checks) ------

    def peek(self, asid, va):
        """Like :meth:`lookup`, but leaves the LRU order alone.

        Invariant checking must observe the TLB without perturbing
        replacement decisions, or paranoid mode would change the very
        results it validates.
        """
        vpn = va >> self.page_shift
        return self._set_for(vpn).get((asid, vpn))

    def iter_entries(self):
        """Iterate every valid entry, each set in LRU-to-MRU order."""
        for entries in self._sets:
            yield from entries.values()
