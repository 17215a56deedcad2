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


class TLBStats:
    """Hit/miss/fill counters for one TLB structure."""

    __slots__ = ("hits", "misses", "fills", "evictions", "invalidations")

    def __init__(self):
        self.hits = 0
        self.misses = 0
        self.fills = 0
        self.evictions = 0
        self.invalidations = 0

    @property
    def accesses(self):
        return self.hits + self.misses

    @property
    def miss_rate(self):
        total = self.accesses
        return self.misses / total if total else 0.0


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
        self.stats = TLBStats()

    def _set_for(self, vpn):
        return self._sets[vpn % self.num_sets]

    def lookup(self, asid, va, update_stats=True):
        """The entry translating ``va`` for ``asid``, or None on a miss."""
        vpn = va >> self.page_shift
        entries = self._set_for(vpn)
        key = (asid, vpn)
        entry = entries.get(key)
        if entry is None:
            if update_stats:
                self.stats.misses += 1
            return None
        entries.move_to_end(key)
        if update_stats:
            self.stats.hits += 1
        return entry

    def insert(self, entry):
        """Install ``entry``, evicting the set's LRU victim if full."""
        entries = self._set_for(entry.vpn)
        key = (entry.asid, entry.vpn)
        if key not in entries and len(entries) >= self.ways:
            entries.popitem(last=False)
            self.stats.evictions += 1
        entries[key] = entry
        entries.move_to_end(key)
        self.stats.fills += 1
        return entry

    def invalidate_page(self, asid, va):
        """Drop the entry for one page (the INVLPG analogue)."""
        vpn = va >> self.page_shift
        if self._set_for(vpn).pop((asid, vpn), None) is not None:
            self.stats.invalidations += 1

    def invalidate_asid(self, asid):
        """Drop every entry belonging to ``asid``."""
        for entries in self._sets:
            victims = [key for key in entries if key[0] == asid]
            for key in victims:
                del entries[key]
            self.stats.invalidations += len(victims)

    def flush(self):
        """Drop everything (a full TLB flush)."""
        for entries in self._sets:
            self.stats.invalidations += len(entries)
            entries.clear()

    def occupancy(self):
        """Number of valid entries currently cached."""
        return sum(len(entries) for entries in self._sets)

    # -- non-perturbing introspection (paranoid-mode invariant checks) ------

    def peek(self, asid, va):
        """Like :meth:`lookup`, but touches neither stats nor LRU order.

        Invariant checking must observe the TLB without perturbing
        replacement decisions, or paranoid mode would change the very
        results it validates.
        """
        vpn = va >> self.page_shift
        return self._set_for(vpn).get((asid, vpn))

    def iter_entries(self):
        """Iterate every valid entry (no stats/LRU side effects)."""
        for entries in self._sets:
            yield from entries.values()
