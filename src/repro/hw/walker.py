"""Hardware page-walk state machines.

This module is a function-for-function port of the paper's pseudocode:

* ``host_walk``      — Figure 2(a): the base native / host 1D walk,
* ``_nested_pt_access`` — Figure 2(e): one guest-PT access plus the host
  walk that translates the gPA it produces,
* ``nested_walk``    — Figure 2(b),
* ``shadow_walk``    — Figure 2(c): a 1D walk over the shadow table,
* ``agile_walk``     — Figure 4: starts in shadow mode and switches to
  nested mode when it reads a shadow entry whose switching bit is set.

Every method counts memory references exactly as the paper does, so the
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


class PageWalker:
    """The MMU's page-walk engine.

    ``host_mem`` holds host/native page-table nodes (and shadow nodes);
    ``guest_mem`` holds guest page-table nodes. ``pwc`` and ``host_pwc``
    are optional acceleration structures. Setting :attr:`journal` to a
    list makes every memory reference append a ``(structure, level)``
    tuple, reproducing the chronological orders of Figures 1 and 3.

    Time accounting: the walker never advances a clock. It *counts*
    memory references in its :class:`~repro.hw.walkstats.WalkResult`,
    and ``System._charge_refs``/``_charge_translation`` convert those
    counts to cycles on the machine's own (guest) clock, charging
    ``walk_cycles`` — one charging surface, not one per walk flavor, so
    ``System.collect_metrics``'s cycle-conservation check covers every
    walk. The only clock use here is the read-only trace timestamp in
    :meth:`_probe`.
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

    def _probe(self, structure, hit):
        """Trace one walk-accelerator probe (called only when tracing)."""
        self.tracer.pwc(self.clock.now if self.clock else 0, structure, hit)

    def _node(self, mem, frame, what):
        node = mem.read(frame)
        if node is None:
            raise SimulationError("%s walk reached empty frame %d" % (what, frame))
        return node

    # -- Figure 2(a): 1D host / native walk ---------------------------------

    def host_walk(self, addr, hptr, is_write=False, va=None, structure="hPT"):
        """Walk the host (or native) table for ``addr``.

        Returns ``(frame_4k, leaf_level, leaf_pte, refs)``. Raises
        :class:`HostPageFault` on a hole or write-protection violation —
        with nested paging a fault in the host table is a VM exit
        (Figure 2(b) comment).
        """
        refs = 0
        node = self._node(self.host_mem, hptr, structure)
        start_level = ROOT_LEVEL
        pwc_fills = []
        if self.host_pwc is not None:
            hit = self.host_pwc.lookup(0, addr)
            if self.tracer.enabled:
                self._probe("host_pwc", hit is not None)
            if hit is not None:
                skipped, frame, _mode = hit
                node = self._node(self.host_mem, frame, structure)
                start_level = ROOT_LEVEL - skipped
        for level in range(start_level, LEAF_LEVEL - 1, -1):
            refs += 1
            self._note(structure, level)
            pte = node.get(pt_index(addr, level))
            if pte is None or not pte.present:
                raise HostPageFault(va if va is not None else addr, gpa=addr,
                                    refs=refs, level=level, is_write=is_write)
            pte.accessed = True
            if pte.huge or level == LEAF_LEVEL:
                if is_write:
                    if not pte.writable:
                        raise HostPageFault(va if va is not None else addr, gpa=addr,
                                            refs=refs, level=level, is_write=True)
                    pte.dirty = True
                if self.host_pwc is not None:
                    for depth, frame, mode in pwc_fills:
                        self.host_pwc.insert(0, addr, depth, frame, mode)
                return _frame_4k(pte, addr, level), level, pte, refs
            node = self._node(self.host_mem, pte.frame, structure)
            pwc_fills.append((ROOT_LEVEL - (level - 1), node.frame, PWC_NATIVE))
        raise SimulationError("host walk fell off the table")  # pragma: no cover

    def native_walk(self, va, ctx, is_write=False):
        """Base-native translation: a single 1D walk (Figure 1(a))."""
        refs = 0
        node = self._node(self.host_mem, ctx.root_frame, "PT")
        start_level = ROOT_LEVEL
        pwc_fills = []
        if self.pwc is not None:
            hit = self.pwc.lookup(ctx.asid, va)
            if self.tracer.enabled:
                self._probe("pwc", hit is not None)
            if hit is not None:
                skipped, frame, _mode = hit
                node = self._node(self.host_mem, frame, "PT")
                start_level = ROOT_LEVEL - skipped
        for level in range(start_level, LEAF_LEVEL - 1, -1):
            refs += 1
            self._note("PT", level)
            pte = node.get(pt_index(va, level))
            if pte is None or not pte.present:
                raise GuestPageFault(va, refs=refs, level=level, is_write=is_write)
            pte.accessed = True
            if pte.huge or level == LEAF_LEVEL:
                if is_write and not pte.writable:
                    raise GuestPageFault(va, refs=refs, level=level,
                                         is_write=True, protection=True)
                if is_write:
                    pte.dirty = True
                shift = level_shift(level)
                frame_4k = _frame_4k(pte, va, level)
                self._pwc_commit(ctx.asid, va, pwc_fills)
                return WalkResult(
                    frame=_entry_base(frame_4k, va, shift),
                    page_shift=shift,
                    writable=pte.writable,
                    dirty=pte.dirty,
                    refs=refs,
                    nested_levels=0,
                    mode="native",
                )
            node = self._node(self.host_mem, pte.frame, "PT")
            pwc_fills.append((ROOT_LEVEL - (level - 1), node.frame, PWC_NATIVE))
        raise SimulationError("native walk fell off the table")  # pragma: no cover

    def _pwc_commit(self, asid, va, fills):
        if self.pwc is None:
            return
        for depth, frame, mode in fills:
            self.pwc.insert(asid, va, depth, frame, mode)

    # -- Figure 2(e): one nested page-table access ---------------------------

    def _translate_gfn(self, gfn, hptr, is_write, va):
        """gfn -> host 4K frame via a host walk.

        Returns ``(hfn_4k, host_shift, refs)``.
        """
        hfn, level, _pte, refs = self.host_walk(gfn << 12, hptr, is_write=is_write, va=va)
        return hfn, level_shift(level), refs

    def _nested_pt_access(self, node_gfn, va, level, hptr, is_write):
        """Read one guest PTE, then host-walk the gPA it names.

        Returns ``(gpte, at_leaf, next_gfn_or_hfn, host_shift, refs)``:
        at the leaf, the third element is the host 4K frame of the data
        page; above it, the gfn of the next guest node.
        """
        refs = 1
        self._note("gPT", level)
        node = self._node(self.guest_mem, node_gfn, "gPT")
        gpte = node.get(pt_index(va, level))
        if gpte is None or not gpte.present:
            raise GuestPageFault(va, refs=refs, level=level, is_write=is_write)
        gpte.accessed = True
        at_leaf = gpte.huge or level == LEAF_LEVEL
        if at_leaf:
            if is_write and not gpte.writable:
                raise GuestPageFault(va, refs=refs, level=level,
                                     is_write=True, protection=True)
            if is_write:
                gpte.dirty = True
            gfn_4k = _frame_4k(gpte, va, level)
            try:
                hfn, host_shift, host_refs = self._translate_gfn(gfn_4k, hptr, is_write, va)
            except HostPageFault as fault:
                fault.refs += refs
                raise
            return gpte, True, hfn, host_shift, refs + host_refs
        try:
            _hfn, host_shift, host_refs = self._translate_gfn(gpte.frame, hptr, False, va)
        except HostPageFault as fault:
            fault.refs += refs
            raise
        return gpte, False, gpte.frame, host_shift, refs + host_refs

    # -- Figure 2(b): full nested walk ---------------------------------------

    def nested_walk(self, va, ctx, is_write=False, translate_root=True):
        """2D nested translation (Figure 1(b)); up to 24 references."""
        refs = 0
        node_gfn = ctx.gptr
        start_level = ROOT_LEVEL
        pwc_fills = []
        if self.pwc is not None:
            hit = self.pwc.lookup(ctx.asid, va)
            if self.tracer.enabled:
                self._probe("pwc", hit is not None)
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
            _hfn, _shift, root_refs = self._translate_gfn(node_gfn, ctx.hptr, False, va)
            refs += root_refs
        return self._nested_levels(va, ctx, is_write, node_gfn, start_level,
                                   refs, pwc_fills, nested_tag=NESTED_FULL)

    def _nested_levels(self, va, ctx, is_write, node_gfn, start_level, refs,
                       pwc_fills, nested_tag):
        """Walk guest levels ``start_level``..leaf in nested mode."""
        nested_count = 0
        for level in range(start_level, LEAF_LEVEL - 1, -1):
            try:
                gpte, at_leaf, nxt, host_shift, step_refs = self._nested_pt_access(
                    node_gfn, va, level, ctx.hptr, is_write
                )
            except (GuestPageFault, HostPageFault) as fault:
                fault.refs += refs
                raise
            refs += step_refs
            nested_count += 1
            if at_leaf:
                guest_shift = level_shift(level)
                eff_shift = min(guest_shift, host_shift)
                nested_levels = nested_tag
                if nested_tag is not NESTED_FULL:
                    nested_levels = nested_count
                self._pwc_commit(ctx.asid, va, pwc_fills)
                return WalkResult(
                    frame=_entry_base(nxt, va, eff_shift),
                    page_shift=eff_shift,
                    writable=gpte.writable,
                    dirty=gpte.dirty,
                    refs=refs,
                    nested_levels=nested_levels,
                    mode="nested" if nested_tag is NESTED_FULL else "agile",
                )
            node_gfn = nxt
            pwc_fills.append((ROOT_LEVEL - (level - 1), node_gfn, PWC_GUEST))
        raise SimulationError("nested walk fell off the table")  # pragma: no cover

    # -- Figure 2(c): shadow walk --------------------------------------------

    def shadow_walk(self, va, ctx, is_write=False):
        """1D walk of the shadow table; native-speed TLB misses."""
        return self._shadow_levels(va, ctx, is_write, allow_switching=False)

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
        return self._shadow_levels(va, ctx, is_write, allow_switching=True)

    def _shadow_levels(self, va, ctx, is_write, allow_switching):
        refs = 0
        node = self._node(self.host_mem, ctx.sptr, "sPT")
        start_level = ROOT_LEVEL
        pwc_fills = []
        if self.pwc is not None:
            hit = self.pwc.lookup(ctx.asid, va)
            if self.tracer.enabled:
                self._probe("pwc", hit is not None)
            if hit is not None:
                skipped, frame, mode = hit
                start_level = ROOT_LEVEL - skipped
                if mode == PWC_GUEST:
                    if not allow_switching:
                        raise SimulationError("shadow walk got a guest PWC entry")
                    return self._nested_levels(
                        va, ctx, is_write, frame, start_level, refs, [],
                        nested_tag="agile",
                    )
                node = self._node(self.host_mem, frame, "sPT")
        for level in range(start_level, LEAF_LEVEL - 1, -1):
            refs += 1
            self._note("sPT", level)
            spte = node.get(pt_index(va, level))
            if spte is None or not spte.present:
                raise ShadowNotPresentFault(va, refs=refs, level=level, is_write=is_write)
            spte.accessed = True
            if allow_switching and spte.switching:
                # The switching bit: this entry holds the frame of the
                # next *guest* level; the walk continues nested.
                return self._nested_levels(
                    va, ctx, is_write, spte.frame, level - 1, refs, pwc_fills,
                    nested_tag="agile",
                )
            if spte.huge or level == LEAF_LEVEL:
                if is_write and not spte.writable:
                    raise ShadowProtectionFault(va, refs=refs, level=level)
                if is_write:
                    spte.dirty = True
                shift = level_shift(level)
                frame_4k = _frame_4k(spte, va, level)
                self._pwc_commit(ctx.asid, va, pwc_fills)
                return WalkResult(
                    frame=_entry_base(frame_4k, va, shift),
                    page_shift=shift,
                    writable=spte.writable,
                    dirty=spte.dirty,
                    refs=refs,
                    nested_levels=0,
                    mode="shadow" if not allow_switching else "agile",
                )
            node = self._node(self.host_mem, spte.frame, "sPT")
            pwc_fills.append((ROOT_LEVEL - (level - 1), node.frame, PWC_SHADOW))
        raise SimulationError("shadow walk fell off the table")  # pragma: no cover

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
