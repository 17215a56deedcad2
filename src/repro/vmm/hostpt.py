"""The per-VM host (nested) page table: gPA => hPA.

Under nested and agile paging the hardware walks this table, so it must
be a real architectural radix table (Section III-B: "the VMM must build
and maintain a complete host page table"). The VMM backs guest frames
on demand — an unbacked gfn produces a host page fault (EPT violation)
VMexit, which :class:`repro.vmm.vmm.VMM` resolves through this class.
"""

from repro.common.params import FOUR_KB
from repro.mem.pagetable import PageTable


class HostPageTable:
    """Maps guest frame numbers to host frames at a fixed granule."""

    def __init__(self, host_mem, page_size=FOUR_KB):
        self.host_mem = host_mem
        self.page_size = page_size
        self.table = PageTable(host_mem, "hPT")

    @property
    def root_frame(self):
        return self.table.root_frame

    @property
    def _frames_per_page(self):
        return 1 << (self.page_size.shift - 12)

    def translate(self, gfn):
        """Host frame backing ``gfn`` or None."""
        translated = self.table.translate(gfn << 12)
        return translated[0] if translated is not None else None

    def ensure_mapped(self, gfn):
        """Back ``gfn`` (and, at large granules, its whole block).

        Returns (hfn, was_fault): ``was_fault`` tells the caller whether
        this was a genuine EPT violation needing trap accounting.
        """
        hfn = self.translate(gfn)
        if hfn is not None:
            return hfn, False
        span = self._frames_per_page
        gpa_base = (gfn // span) * span << 12
        if span == 1:
            base_hfn = self.host_mem.alloc_frame()
        else:
            base_hfn = self.host_mem.alloc_contiguous(span)
        self.table.map(gpa_base, base_hfn, self.page_size)
        return self.translate(gfn), True

    def leaf_for_gfn(self, gfn):
        """The host leaf PTE covering ``gfn`` (None if unbacked)."""
        _node, _index, pte = self.table.leaf_entry(gfn << 12, self.page_size)
        return pte

    def is_dirty(self, gfn):
        """Host-PT dirty bit covering ``gfn`` (False if unbacked)."""
        pte = self.leaf_for_gfn(gfn)
        return bool(pte is not None and pte.dirty)

    def clear_dirty(self, gfn):
        """Clear the host dirty bit covering ``gfn`` (policy scan reset)."""
        pte = self.leaf_for_gfn(gfn)
        if pte is not None:
            pte.dirty = False

    def mark_dirty(self, gfn):
        """Set the host dirty bit covering ``gfn``.

        Called when the guest writes a gfn through a nested-mode path the
        functional simulator short-circuits (direct gPT updates).
        """
        pte = self.leaf_for_gfn(gfn)
        if pte is not None:
            pte.dirty = True

    def unmap(self, gfn):
        """Remove the mapping covering ``gfn`` (ballooning / host swap)."""
        span = self._frames_per_page
        gpa_base = (gfn // span) * span << 12
        return self.table.unmap(gpa_base, self.page_size)

    def iter_mapped_gfns(self):
        """All backed guest frame numbers, in deterministic (va) order.

        The balloon driver walks this to pick revocation victims; the
        order must be a pure function of mapping history so consolidated
        runs replay identically.
        """
        for va, _pte, _level in self.table.iter_leaves():
            yield va >> 12
