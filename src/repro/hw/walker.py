"""Hardware page-walk state machines.

One radix-walk loop, :meth:`PageWalker._walk_1d`, is the paper's base 1D
walk of Figure 2(a). The table it walks is a parameter, so the same loop
serves the host table (hPT), the native table (PT) and the shadow table
(sPT); its only agile branch is the switching bit. The named entry points
are thin callers of it or of the nested levels:

* ``host_walk``      — Figure 2(a) over the host table,
* ``native_walk``    — Figure 2(a) over the native table (Figure 1(a)),
* ``nested_walk``    — Figure 2(b); each guest level is Figure 2(e)'s
  nested access, one guest-PT read plus the host walk of the gPA it
  names (``_nested_levels``),
* ``shadow_walk``    — Figure 2(c): the 1D walk over the shadow table,
* ``agile_walk``     — Figure 4: the 1D walk over the shadow table that
  switches to nested mode at a shadow entry whose switching bit is set,
* ``walk``           — dispatch on the context's paging mode.

Every walk counts memory references exactly as the paper does, so the
arithmetic of Table II (4 native/shadow, 24 nested, ``4 + 4d`` for an
agile walk with ``d`` nested levels) falls out of the implementation.

Walks may raise (see :mod:`repro.common.errors`): guest faults go to the
guest OS, everything derived from ``VMExit`` goes to the VMM. A raised
fault carries the references spent so far, so partial walks are charged.
"""

from repro.common.errors import (
    GuestPageFault,
    HostPageFault,
    ShadowNotPresentFault,
    ShadowProtectionFault,
    SimulationError,
)
from repro.common.params import (
    LEAF_LEVEL,
    ROOT_LEVEL,
    level_shift,
    pt_index,
)
from repro.hw.pwc import PWC_GUEST, PWC_NATIVE, PWC_SHADOW
from repro.hw.walkstats import NESTED_FULL, WalkResult
from repro.obs.tracer import NULL_TRACER


def _frame_4k(pte, addr, level):
    """The exact 4 KB frame backing ``addr`` given a leaf at ``level``."""
    span_frames = 1 << (level_shift(level) - 12)
    return pte.frame + ((addr >> 12) & (span_frames - 1))


def _entry_base(frame_4k, va, eff_shift):
    """Base frame of the translation granule containing ``va``."""
    return frame_4k - ((va >> 12) & ((1 << (eff_shift - 12)) - 1))


# The fault a 1D walk raises, per table: ``protection`` is False for a
# hole and True for a write to a read-only leaf.

def _host_fault(va, addr, refs, level, is_write, protection):
    return HostPageFault(va, gpa=addr, refs=refs, level=level, is_write=is_write)


def _guest_fault(va, addr, refs, level, is_write, protection):
    return GuestPageFault(va, refs=refs, level=level, is_write=is_write,
                          protection=protection)


def _shadow_fault(va, addr, refs, level, is_write, protection):
    if protection:
        return ShadowProtectionFault(va, refs=refs, level=level)
    return ShadowNotPresentFault(va, refs=refs, level=level, is_write=is_write)


class PageWalker:
    """The MMU's page-walk engine.

    ``host_mem`` holds host/native page-table nodes (and shadow nodes);
    ``guest_mem`` holds guest page-table nodes. ``pwc`` and ``host_pwc``
    are optional acceleration structures. Setting :attr:`journal` to a
    list makes every memory reference append a ``(structure, level)``
    tuple, reproducing the chronological orders of Figures 1 and 3.

    Time accounting: the walker never advances a clock. It *counts*
    memory references in its :class:`~repro.hw.walkstats.WalkResult`,
    and ``System._charge_refs`` converts those counts to cycles on the
    machine's own (guest) clock, charging ``walk_cycles`` — one
    charging surface, not one per walk flavor, so
    ``System.collect_metrics``'s cycle-conservation check covers every
    walk. The only clock use here is the read-only trace timestamp in
    :meth:`_pwc_probe`.
    """

    def __init__(self, host_mem, guest_mem=None, pwc=None, host_pwc=None):
        self.host_mem = host_mem
        self.guest_mem = guest_mem
        self.pwc = pwc
        # EPT MMU-cache analogue: partial translations of the *host*
        # table, keyed by gPA. Real processors cache these too, which is
        # why a mostly-warm nested walk costs ~2 references, not 5+.
        self.host_pwc = host_pwc
        self.journal = None
        # Observability: a null tracer until System.attach_observability
        # installs one; probes of the walk-acceleration structures (the
        # PWCs) are emitted as `pwc` events.
        self.tracer = NULL_TRACER
        self.clock = None

    # -- low-level helpers -------------------------------------------------

    def _note(self, structure, level):
        if self.journal is not None:
            self.journal.append((structure, level))

    def _node(self, mem, frame, what):
        node = mem.read(frame)
        if node is None:
            raise SimulationError("%s walk reached empty frame %d" % (what, frame))
        return node

    def _pwc_probe(self, pwc, asid, addr):
        """Probe ``pwc`` (None: no cache) for ``addr``.

        Returns ``(levels_skipped, frame, mode)`` or None, and traces the
        probe as a ``pwc`` event when tracing is on.
        """
        if pwc is None:
            return None
        hit = pwc.lookup(asid, addr)
        if self.tracer.enabled:
            self.tracer.pwc(self.clock.now if self.clock else 0,
                            "pwc" if pwc is self.pwc else "host_pwc",
                            hit is not None)
        return hit

    @staticmethod
    def _pwc_fill(pwc, asid, addr, fills):
        """Cache the ``(depth, frame, mode)`` nodes a finished walk passed."""
        if pwc is not None:
            for depth, frame, mode in fills:
                pwc.insert(asid, addr, depth, frame, mode)

    # -- Figure 2(a): the 1D walk --------------------------------------------

    def _walk_1d(self, mem, root, pwc, asid, va, addr, is_write, structure,
                 fill_mode, fault, mode, ctx=None):
        """Walk the radix table at frame ``root`` of ``mem`` for ``addr``.

        ``pwc``/``asid`` name the page-walk cache the walk probes and
        fills (with ``fill_mode`` entries), ``structure`` labels journal
        entries and errors, and ``fault`` builds the fault, reported at
        ``va``, for a hole or a write to a read-only leaf. Returns a
        :class:`WalkResult` labelled ``mode``, or raises.

        ``ctx`` is set only by an agile walk of the shadow table. Its one
        extra branch is the switching bit (Figure 4): an entry with the
        bit set — or a PWC entry cached in guest mode, the same bit
        remembered — names the next *guest* level, and the walk goes on
        nested from there.
        """
        refs = 0
        fills = []
        start_level = ROOT_LEVEL
        node = self._node(mem, root, structure)
        hit = self._pwc_probe(pwc, asid, addr)
        if hit is not None:
            skipped, frame, hit_mode = hit
            start_level = ROOT_LEVEL - skipped
            if hit_mode == PWC_GUEST:
                if ctx is None:
                    raise SimulationError("%s walk got a guest PWC entry" % structure)
                return self._nested_levels(va, ctx, is_write, frame, start_level,
                                           refs, fills, nested_tag="agile")
            node = self._node(mem, frame, structure)
        for level in range(start_level, LEAF_LEVEL - 1, -1):
            refs += 1
            self._note(structure, level)
            pte = node.get(pt_index(addr, level))
            if pte is None or not pte.present:
                raise fault(va, addr, refs, level, is_write, False)
            pte.accessed = True
            if ctx is not None and pte.switching:
                return self._nested_levels(va, ctx, is_write, pte.frame, level - 1,
                                           refs, fills, nested_tag="agile")
            if pte.huge or level == LEAF_LEVEL:
                if is_write:
                    if not pte.writable:
                        raise fault(va, addr, refs, level, True, True)
                    pte.dirty = True
                self._pwc_fill(pwc, asid, addr, fills)
                # A leaf's frame is the base of the granule it maps.
                return WalkResult(pte.frame, level_shift(level), pte.writable,
                                  pte.dirty, refs, 0, mode)
            node = self._node(mem, pte.frame, structure)
            fills.append((ROOT_LEVEL - (level - 1), node.frame, fill_mode))
        raise SimulationError("%s walk fell off the table" % structure)  # pragma: no cover

    def host_walk(self, addr, hptr, is_write=False, va=None):
        """The 1D walk of the host table for the gPA ``addr``.

        Raises :class:`HostPageFault` on a hole or write-protection
        violation — with nested paging a fault in the host table is a VM
        exit (Figure 2(b) comment).
        """
        return self._walk_1d(self.host_mem, hptr, self.host_pwc, 0,
                             addr if va is None else va, addr, is_write,
                             "hPT", PWC_NATIVE, _host_fault, "host")

    def native_walk(self, va, ctx, is_write=False):
        """Base-native translation: a single 1D walk (Figure 1(a))."""
        return self._walk_1d(self.host_mem, ctx.root_frame, self.pwc, ctx.asid,
                             va, va, is_write, "PT", PWC_NATIVE, _guest_fault,
                             "native")

    # -- Figure 2(b) and 2(e): the nested walk ---------------------------------

    def _translate_gfn(self, gfn, hptr, is_write, va, refs):
        """gfn -> host 4K frame via a host walk, after ``refs`` references.

        Returns ``(hfn_4k, host_shift, refs)`` with the host walk's
        references added; a :class:`HostPageFault` carries them too.
        """
        try:
            host = self.host_walk(gfn << 12, hptr, is_write=is_write, va=va)
        except HostPageFault as fault:
            fault.refs += refs
            raise
        shift = host.page_shift
        return host.frame + (gfn & ((1 << (shift - 12)) - 1)), shift, refs + host.refs

    def nested_walk(self, va, ctx, is_write=False, translate_root=True):
        """2D nested translation (Figure 1(b)); up to 24 references."""
        refs = 0
        node_gfn = ctx.gptr
        start_level = ROOT_LEVEL
        hit = self._pwc_probe(self.pwc, ctx.asid, va)
        if hit is not None:
            skipped, frame, mode = hit
            if mode != PWC_GUEST:
                raise SimulationError("nested walk got a %s PWC entry" % mode)
            node_gfn = frame
            start_level = ROOT_LEVEL - skipped
            translate_root = False
        if translate_root:
            # The guest root pointer itself holds a gPA (Figure 2(b)):
            # translating it costs one host walk.
            _hfn, _shift, refs = self._translate_gfn(node_gfn, ctx.hptr, False, va, refs)
        return self._nested_levels(va, ctx, is_write, node_gfn, start_level,
                                   refs, [], nested_tag=NESTED_FULL)

    def _nested_levels(self, va, ctx, is_write, node_gfn, start_level, refs,
                       pwc_fills, nested_tag):
        """Walk guest levels ``start_level``..leaf in nested mode.

        Each level is Figure 2(e)'s nested access: read one guest PTE,
        then host-walk the gPA it names — the next guest node above the
        leaf, the data page at it.
        """
        nested_count = 0
        for level in range(start_level, LEAF_LEVEL - 1, -1):
            refs += 1
            nested_count += 1
            self._note("gPT", level)
            gpte = self._node(self.guest_mem, node_gfn, "gPT").get(pt_index(va, level))
            if gpte is None or not gpte.present:
                raise GuestPageFault(va, refs=refs, level=level, is_write=is_write)
            gpte.accessed = True
            if gpte.huge or level == LEAF_LEVEL:
                if is_write:
                    if not gpte.writable:
                        raise GuestPageFault(va, refs=refs, level=level,
                                             is_write=True, protection=True)
                    gpte.dirty = True
                hfn, host_shift, refs = self._translate_gfn(
                    _frame_4k(gpte, va, level), ctx.hptr, is_write, va, refs)
                eff_shift = min(level_shift(level), host_shift)
                self._pwc_fill(self.pwc, ctx.asid, va, pwc_fills)
                full = nested_tag is NESTED_FULL
                return WalkResult(
                    frame=_entry_base(hfn, va, eff_shift),
                    page_shift=eff_shift,
                    writable=gpte.writable,
                    dirty=gpte.dirty,
                    refs=refs,
                    nested_levels=nested_tag if full else nested_count,
                    mode="nested" if full else "agile",
                )
            _hfn, _shift, refs = self._translate_gfn(gpte.frame, ctx.hptr, False, va, refs)
            node_gfn = gpte.frame
            pwc_fills.append((ROOT_LEVEL - (level - 1), node_gfn, PWC_GUEST))
        raise SimulationError("nested walk fell off the table")  # pragma: no cover

    # -- Figure 2(c): shadow walk --------------------------------------------

    def shadow_walk(self, va, ctx, is_write=False):
        """1D walk of the shadow table; native-speed TLB misses."""
        return self._walk_1d(self.host_mem, ctx.sptr, self.pwc, ctx.asid, va, va,
                             is_write, "sPT", PWC_SHADOW, _shadow_fault, "shadow")

    # -- Figure 4: agile walk --------------------------------------------------

    def agile_walk(self, va, ctx, is_write=False):
        """Start in shadow mode; switch to nested at a switching bit.

        Implements Figure 4 including its ``sptr == gptr`` full-nested
        case (``ctx.sptr is None`` here) and the root switching bit.
        """
        if ctx.sptr is None:
            return self.nested_walk(va, ctx, is_write)
        if ctx.root_switch:
            # Figure 3(e): all levels nested, but sptr names the guest
            # root directly, so no initial gptr translation is needed.
            return self._nested_levels(va, ctx, is_write, ctx.gptr, ROOT_LEVEL,
                                       refs=0, pwc_fills=[], nested_tag="agile")
        return self._walk_1d(self.host_mem, ctx.sptr, self.pwc, ctx.asid, va, va,
                             is_write, "sPT", PWC_SHADOW, _shadow_fault, "agile",
                             ctx)

    # -- dispatch ---------------------------------------------------------------

    def walk(self, va, ctx, is_write=False):
        """Dispatch on the context's paging mode."""
        if ctx.mode == "native":
            return self.native_walk(va, ctx, is_write)
        if ctx.mode == "nested":
            return self.nested_walk(va, ctx, is_write)
        if ctx.mode == "shadow":
            return self.shadow_walk(va, ctx, is_write)
        if ctx.mode == "agile":
            return self.agile_walk(va, ctx, is_write)
        raise SimulationError("unknown paging mode %r" % (ctx.mode,))
