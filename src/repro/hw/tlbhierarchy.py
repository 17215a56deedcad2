"""The per-core two-level TLB hierarchy of the paper's Table III.

One hierarchy instance serves one translation granule (the paper runs
each experiment with a single page size used at both translation levels,
Section VI). Lookups probe L1 then L2; fills populate both; all
invalidations are broadcast.
"""

from repro.hw.tlb import TLB, TLBEntry


class TLBHierarchy:
    """L1 data + L1 instruction + unified L2 for one page size."""

    def __init__(self, config, page_size):
        self.page_size = page_size
        name = page_size.name
        shift = page_size.shift
        if name not in config.l1d:
            raise ValueError("no L1D geometry for page size %s" % name)
        self.l1d = TLB(config.l1d[name].entries, config.l1d[name].ways, shift, "L1D")
        self.l1i = None
        if name in config.l1i:
            geometry = config.l1i[name]
            self.l1i = TLB(geometry.entries, geometry.ways, shift, "L1I")
        self.l2 = None
        if name in config.l2:
            geometry = config.l2[name]
            self.l2 = TLB(geometry.entries, geometry.ways, shift, "L2")

    def _l1_for(self, kind):
        if kind == "inst" and self.l1i is not None:
            return self.l1i
        return self.l1d

    def lookup(self, asid, va, kind="data"):
        """Probe L1 then L2. Returns (entry, level) with level in
        {"l1", "l2", None}."""
        l1 = self._l1_for(kind)
        entry = l1.lookup(asid, va)
        if entry is not None:
            return entry, "l1"
        if self.l2 is not None:
            entry = self.l2.lookup(asid, va)
            if entry is not None:
                # Promote into L1, as hardware does.
                l1.insert(entry)
                return entry, "l2"
        return None, None

    def fill(self, asid, va, frame, writable, dirty, kind="data"):
        """Install a fresh translation into L1 (+L2)."""
        entry = TLBEntry(
            asid=asid,
            vpn=va >> self.page_size.shift,
            frame=frame,
            page_shift=self.page_size.shift,
            writable=writable,
            dirty=dirty,
        )
        self._l1_for(kind).insert(entry)
        if self.l2 is not None:
            self.l2.insert(entry)
        return entry

    def _all(self):
        structures = [self.l1d]
        if self.l1i is not None:
            structures.append(self.l1i)
        if self.l2 is not None:
            structures.append(self.l2)
        return structures

    def invalidate_page(self, asid, va):
        for tlb in self._all():
            tlb.invalidate_page(asid, va)

    def invalidate_asid(self, asid):
        for tlb in self._all():
            tlb.invalidate_asid(asid)

    def flush(self):
        for tlb in self._all():
            tlb.flush()

    def iter_entries(self):
        """Every cached entry across L1D/L1I/L2, without side effects."""
        for tlb in self._all():
            yield from tlb.iter_entries()

    def peek(self, asid, va):
        """First matching entry for ``va``, leaving the LRU order alone."""
        for tlb in self._all():
            entry = tlb.peek(asid, va)
            if entry is not None:
                return entry
        return None


class MultiSizeTLB:
    """TLB front end holding one hierarchy per translation granule.

    Real cores keep separate 4K/2M(/1G) TLB arrays and probe them in
    parallel; translations enter the array matching their granule. This
    matters when the two translation stages use *different* page sizes:
    a 2 MB guest page backed by 4 KB host pages is "broken into smaller
    pages for entry into the TLB" (Section V) — the fill lands in the
    4K array automatically because the effective granule is 4K.
    """

    def __init__(self, config, page_sizes, primary):
        self.hierarchies = {}
        for page_size in page_sizes:
            if page_size.name in config.l1d:
                self.hierarchies[page_size.shift] = TLBHierarchy(config, page_size)
        if primary.shift not in self.hierarchies:
            raise ValueError("no TLB geometry for primary size %s" % primary)
        self.primary_shift = primary.shift
        # Probe order: the run's dominant granule first.
        self._order = sorted(self.hierarchies,
                             key=lambda s: (s != primary.shift, s))

    def lookup(self, asid, va, kind="data"):
        for shift in self._order:
            entry, level = self.hierarchies[shift].lookup(asid, va, kind)
            if entry is not None:
                return entry, level
        return None, None

    def fill(self, asid, va, frame, writable, dirty, page_shift, kind="data"):
        """Install at the largest supported granule <= ``page_shift``."""
        candidates = [s for s in self.hierarchies if s <= page_shift]
        shift = max(candidates) if candidates else min(self.hierarchies)
        if shift != page_shift:
            # Break the translation down to the structure's granule.
            frame_4k = frame + ((va & ((1 << page_shift) - 1)) >> 12)
            frame = frame_4k - ((va >> 12) & ((1 << (shift - 12)) - 1))
        return self.hierarchies[shift].fill(asid, va, frame, writable, dirty, kind)

    def invalidate_page(self, asid, va):
        for hierarchy in self.hierarchies.values():
            hierarchy.invalidate_page(asid, va)

    def invalidate_asid(self, asid):
        for hierarchy in self.hierarchies.values():
            hierarchy.invalidate_asid(asid)

    def flush(self):
        for hierarchy in self.hierarchies.values():
            hierarchy.flush()

    def iter_entries(self):
        """Every cached entry in every granule array (no side effects)."""
        for hierarchy in self.hierarchies.values():
            yield from hierarchy.iter_entries()

    def peek_entries(self, asid, va):
        """All entries translating ``va`` across granules, side-effect free."""
        found = []
        for hierarchy in self.hierarchies.values():
            entry = hierarchy.peek(asid, va)
            if entry is not None:
                found.append(entry)
        return found
