"""Per-process shadow page-table management, including agile mode.

The manager owns the shadow table (gVA=>hPA) for one guest process and
keeps it coherent with the guest and host tables, exactly as Section
III-B describes:

* guest-PT pages covered by the shadow table are write-protected: the
  VMM observes every write (a VMtrap) and invalidates/updates the
  affected shadow entries,
* under agile paging only *part* of the guest table is shadow-covered;
  a per-node mode map tracks the rest, the shadow table carries
  switching-bit entries at the boundary, and writes to nested-mode
  guest-PT pages go straight through (setting the host-PT dirty bit the
  reversion policy reads),
* the accessed/dirty protocol: fresh shadow leaves never get the
  write-enable bit, so the first write faults and the VMM sets dirty
  bits in both tables (unless the Section IV hardware assist is on).

Pure shadow paging is the degenerate case: every node stays in shadow
mode and no switching bit is ever installed.
"""

from repro.common.addrspace import returns, takes
from repro.common.effects import mutates
from repro.common.errors import SimulationError
from repro.common.params import LEAF_LEVEL, ROOT_LEVEL, level_shift, pt_index
from repro.mem.pagetable import PageTable
from repro.mem.pte import PTE

NODE_SHADOW = "shadow"
NODE_NESTED = "nested"


class NodeMeta:
    """Placement and mode of one guest page-table node."""

    __slots__ = ("level", "prefix", "parent_gfn", "mode")

    def __init__(self, level, prefix, parent_gfn, mode):
        self.level = level
        self.prefix = prefix  # VA bits above this node's index field
        self.parent_gfn = parent_gfn
        self.mode = mode

    def __repr__(self):
        return "NodeMeta(level=%d, prefix=%#x, mode=%s)" % (
            self.level,
            -1 if self.prefix is None else self.prefix,
            self.mode,
        )


class InvalidationSink:
    """TLB/PWC shootdown interface the manager calls into (the MMU)."""

    @takes(va="gva")
    def invalidate_page(self, asid, va):
        pass

    def invalidate_asid(self, asid):
        pass

    def flush_pwc(self):
        pass


class ShadowManager:
    """Shadow (and agile) page-table state for one guest process."""

    def __init__(self, pid, host_mem, guest_mem, hostpt, page_size, inval,
                 agile=False, start_nested=False, ad_assist=False):
        self.pid = pid
        self.asid = pid
        self.host_mem = host_mem
        self.guest_mem = guest_mem
        self.hostpt = hostpt
        self.page_size = page_size
        self.inval = inval
        self.agile = agile
        self.ad_assist = ad_assist
        self.spt = PageTable(host_mem, "sPT[%d]" % pid)
        self.node_meta = {}
        self.root_gfn = None
        self.root_switched = False
        # Start-in-nested (short-lived process policy, Section III-C):
        # no shadow coverage at all until enabled.
        self.fully_nested = bool(start_nested and agile)

    # -- guest PT structure tracking (observer events) -----------------------

    @mutates("shadow_pt")
    def on_node_allocated(self, node, parent):
        if parent is None:
            mode = NODE_NESTED if self.fully_nested else NODE_SHADOW
            self.node_meta[node.frame] = NodeMeta(node.level, 0, None, mode)
            self.root_gfn = node.frame
        else:
            parent_meta = self.node_meta[parent.frame]
            mode = NODE_NESTED if self.fully_nested else parent_meta.mode
            self.node_meta[node.frame] = NodeMeta(node.level, None, parent.frame, mode)
        # The hardware may walk this node's frame: back it in the host PT.
        self.hostpt.ensure_mapped(node.frame)

    @mutates("shadow_pt")
    def on_node_freed(self, node):
        self.node_meta.pop(node.frame, None)

    @mutates("shadow_pt")
    def on_pte_written(self, node, index, old, new):
        """A guest write to its page table landed at ``node[index]``.

        Returns ``("mediated", leaf_va_or_None)`` when the write hit
        shadow-covered state (a VMtrap happened and the shadow table was
        synced) or ``("direct", None)`` when it hit nested-covered state
        (no trap; host dirty bit recorded for the reversion policy).
        """
        meta = self.node_meta.get(node.frame)
        if meta is None:
            raise SimulationError("write to untracked guest PT node %d" % node.frame)
        self._track_link(meta, node, index, old, new)
        if self.fully_nested or meta.mode == NODE_NESTED:
            self.hostpt.mark_dirty(node.frame)
            return "direct", None
        leaf_va = self._sync_shadow(meta, node, index, old, new)
        return "mediated", leaf_va

    @mutates("shadow_pt")
    def _track_link(self, meta, node, index, old, new):
        """Maintain child metadata when an entry links a guest node."""
        if new is None or not new.present or new.huge or node.level == LEAF_LEVEL:
            return
        child_meta = self.node_meta.get(new.frame)
        if child_meta is None:
            return
        if meta.prefix is None:
            raise SimulationError("linking under a node with unknown prefix")
        child_meta.prefix = meta.prefix | (index << level_shift(node.level))
        child_meta.parent_gfn = node.frame

    @mutates("shadow_pt")
    def _sync_shadow(self, meta, node, index, old, new):
        """Invalidate shadow state affected by one mediated guest write."""
        if meta.prefix is None:
            raise SimulationError("write into a node with unknown prefix")
        va = meta.prefix | (index << level_shift(node.level))
        is_leaf_entry = node.level == LEAF_LEVEL or (
            (new is not None and new.huge) or (old is not None and old.huge)
        )
        removed = self._zap_position(node.level, va)
        if is_leaf_entry:
            if removed:
                self.inval.invalidate_page(self.asid, va)
            return va
        # Structural change above the leaves: drop everything under it.
        if removed:
            self.inval.invalidate_asid(self.asid)
            self.inval.flush_pwc()
        return None

    # -- shadow-table position arithmetic ------------------------------------

    @takes(va="gva")
    def _descend(self, level, va):
        """Shadow node holding the entry at (level, va), or None."""
        node = self.spt.root
        for current in range(ROOT_LEVEL, level, -1):
            pte = node.get(pt_index(va, current))
            if pte is None or not pte.present or pte.huge or pte.switching:
                return None
            node = self.spt.node_at(pte.frame)
        return node

    @mutates("shadow_pt")
    @takes(va="gva")
    def _zap_position(self, level, va):
        """Clear the shadow entry at (level, va); True if one existed."""
        node = self._descend(level, va)
        if node is None:
            return False
        index = pt_index(va, level)
        if node.get(index) is None:
            return False
        self.spt.clear_subtree(node, index)
        return True

    # -- shadow fills (ShadowNotPresentFault handling) -------------------------

    @mutates("shadow_pt")
    @takes(va="gva")
    def fill_for(self, va):
        """Resolve a shadow not-present fault for ``va``.

        Returns one of:
        * ``"filled"`` — a merged leaf entry was installed,
        * ``"switch_installed"`` — the walk crossed into a nested-mode
          subtree; the switching-bit entry is now in place,
        * ``"root_switch"`` — the whole table is nested from the root,
        * ``"guest_fault"`` — the guest table has no mapping; the VMM
          injects a page fault into the guest.
        """
        if self.root_gfn is None:
            raise SimulationError("fill before guest root exists")
        root_meta = self.node_meta[self.root_gfn]
        if root_meta.mode == NODE_NESTED:
            self.root_switched = True
            return "root_switch"
        gnode = self._guest_node(self.root_gfn)
        for level in range(ROOT_LEVEL, LEAF_LEVEL - 1, -1):
            gpte = gnode.get(pt_index(va, level))
            if gpte is None or not gpte.present:
                return "guest_fault"
            if gpte.huge or level == LEAF_LEVEL:
                self._install_leaf(va, level, gpte)
                return "filled"
            child_meta = self.node_meta.get(gpte.frame)
            if child_meta is None:
                raise SimulationError("guest link to untracked node %d" % gpte.frame)
            if child_meta.mode == NODE_NESTED:
                self._install_switch(va, level, gpte.frame)
                return "switch_installed"
            gnode = self._guest_node(gpte.frame)
        raise SimulationError("fill walk fell off the guest table")  # pragma: no cover

    @takes(gfn="gfn")
    def _guest_node(self, gfn):
        node = self.guest_mem.read(gfn)
        if node is None:
            raise SimulationError("guest PT node %d vanished" % gfn)
        return node

    @mutates("shadow_pt")
    @takes(va="gva")
    def _install_leaf(self, va, level, gpte):
        """Merge one guest leaf with the host table into the shadow table.

        Section III-B accessed/dirty protocol: the VMM sets the accessed
        bit in the guest PTE and the new shadow PTE, but does *not*
        propagate write-enable unless the dirty bit is already set (or
        the Section IV hardware assist maintains A/D bits for us).

        When the host granule is smaller than the guest page (Section V
        mixed-size case), the shadow leaf is installed at the host
        granule — the large page is "broken into smaller pages".
        """
        gfn, leaf_level = self._leaf_backing_gfn(va, level, gpte)
        hfn, _faulted = self.hostpt.ensure_mapped(gfn)
        host_pte = self.hostpt.leaf_for_gfn(gfn)
        gpte.accessed = True
        if self.ad_assist:
            writable = gpte.writable and host_pte.writable
        else:
            writable = gpte.writable and host_pte.writable and gpte.dirty
        snode = self.spt.ensure_path(va, leaf_level)
        spte = PTE(
            frame=hfn,
            writable=writable,
            accessed=True,
            dirty=gpte.dirty,
            huge=leaf_level > LEAF_LEVEL,
        )
        snode.set(pt_index(va, leaf_level), spte)

    @takes(va="gva")
    @returns("gfn", None)
    def _leaf_backing_gfn(self, va, level, gpte):
        """The guest frame (and shadow leaf level) backing ``va``.

        Equal granules: the guest leaf's own frame. Mixed granules
        (guest page larger than the host granule): the host-granule
        piece containing ``va`` — the Section V break-down.
        """
        leaf_level = min(level, self.hostpt.page_size.leaf_level)
        if leaf_level < level:
            gfn_4k = gpte.frame + ((va & ((1 << level_shift(level)) - 1)) >> 12)
            span = 1 << (level_shift(leaf_level) - 12)
            return gfn_4k - ((va >> 12) & (span - 1)), leaf_level
        return gpte.frame, leaf_level

    @mutates("shadow_pt")
    @takes(va="gva", child_gfn="gfn")
    def _install_switch(self, va, level, child_gfn):
        """Install the switching-bit entry at (level, va) -> guest node."""
        snode = self.spt.ensure_path(va, level)
        index = pt_index(va, level)
        existing = snode.get(index)
        if existing is not None and not existing.switching:
            self.spt.clear_subtree(snode, index)
        snode.set(index, PTE(frame=child_gfn, switching=True, guest_node=True))

    # -- dirty-bit protocol (ShadowProtectionFault handling) ----------------------

    @mutates("shadow_pt")
    @takes(va="gva")
    def protection_fix(self, va):
        """Resolve a write to a read-only shadow leaf.

        Returns ``"dirty_fixed"`` (A/D protocol completed), ``"refill"``
        (the shadow leaf vanished; fill again), or ``"guest_fault"``
        (the guest PTE is genuinely read-only: inject into the guest —
        e.g., a COW break).
        """
        found = self._guest_leaf(va)
        if found is None:
            return "refill"
        gpte, guest_level = found
        if not gpte.writable:
            return "guest_fault"
        gfn, _leaf_level = self._leaf_backing_gfn(va, guest_level, gpte)
        host_pte = self.hostpt.leaf_for_gfn(gfn)
        if host_pte is None:
            return "refill"  # host mapping vanished: re-merge from scratch
        if not host_pte.writable:
            # Host-side COW (e.g., inter-VM page sharing): the VMM makes
            # a private copy and write-enables the host mapping.
            self.hostpt.set_writable(gfn, True)
        gpte.dirty = True
        spte, _level = self.spt.lookup(va)
        if spte is None or not spte.present:
            return "refill"
        spte.writable = True
        spte.dirty = True
        self.inval.invalidate_page(self.asid, va)
        return "dirty_fixed"

    @takes(va="gva")
    def _guest_leaf(self, va):
        """The guest leaf PTE and its level for ``va``, or None."""
        gnode = self._guest_node(self.root_gfn)
        for level in range(ROOT_LEVEL, LEAF_LEVEL - 1, -1):
            gpte = gnode.get(pt_index(va, level))
            if gpte is None or not gpte.present:
                return None
            if gpte.huge or level == LEAF_LEVEL:
                return gpte, level
            gnode = self._guest_node(gpte.frame)
        return None

    # -- agile mode transitions -------------------------------------------------

    @mutates("shadow_pt")
    @takes(node_gfn="gfn")
    def switch_to_nested(self, node_gfn):
        """Move one guest PT node (and its whole subtree) to nested mode.

        Installs the switching bit in the shadow parent entry and drops
        the shadow subtree it replaces (Section III-C, shadow=>nested).
        """
        if not self.agile:
            raise SimulationError("mode switching requires agile paging")
        meta = self.node_meta.get(node_gfn)
        if meta is None or meta.mode == NODE_NESTED:
            return False
        for gfn in self._subtree_gfns(node_gfn):
            self.node_meta[gfn].mode = NODE_NESTED
        if node_gfn == self.root_gfn:
            self.root_switched = True
            # Everything below the root is now walked nested; the old
            # shadow contents are garbage.
            for index in list(self.spt.root.entries):
                self.spt.clear_subtree(self.spt.root, index)
        elif meta.prefix is not None:
            self._install_switch(meta.prefix, meta.level + 1, node_gfn)
        # No TLB shootdown: cached gVA=>hPA translations stay valid when
        # only the *walk mode* changes; just the PWC mode bits go stale.
        self.inval.flush_pwc()
        return True

    @mutates("shadow_pt")
    @takes(node_gfn="gfn")
    def revert_to_shadow(self, node_gfn):
        """Move one node back to shadow mode (nested=>shadow).

        Parents must revert before children (Section III-C); the policy
        layer guarantees the ordering, this method enforces it. The
        node's shadow entries are rebuilt eagerly — the VMM already
        decided the node is stable, and rebuilding during the policy
        scan avoids a fill-fault storm afterwards (KVM resyncs whole
        shadow pages the same way).
        """
        if not self.agile:
            raise SimulationError("mode switching requires agile paging")
        meta = self.node_meta.get(node_gfn)
        if meta is None or meta.mode == NODE_SHADOW:
            return False
        if node_gfn != self.root_gfn:
            parent_meta = self.node_meta.get(meta.parent_gfn)
            if parent_meta is None or parent_meta.mode == NODE_NESTED:
                raise SimulationError("revert of node under a nested parent")
        meta.mode = NODE_SHADOW
        if node_gfn == self.root_gfn:
            self.root_switched = False
        elif meta.prefix is not None:
            # Remove the switching entry before rebuilding in place.
            self._zap_position(meta.level + 1, meta.prefix)
        self._rebuild_node(node_gfn, meta)
        self.inval.flush_pwc()
        return True

    @mutates("shadow_pt")
    @takes(node_gfn="gfn")
    def _rebuild_node(self, node_gfn, meta):
        """Eagerly re-merge one guest node's entries into the shadow table.

        Leaf-entry nodes get merged leaves; interior nodes get switching
        bits for children that remain nested (they revert later, parents
        first). Returns the number of entries rebuilt.
        """
        if meta.prefix is None:
            return 0
        node = self._guest_node(node_gfn)
        rebuilt = 0
        for index, gpte in node.present_items():
            va = meta.prefix | (index << level_shift(node.level))
            at_leaf = gpte.huge or node.level == LEAF_LEVEL
            if at_leaf:
                # Only prefill leaves the guest has actually accessed:
                # _install_leaf stamps the guest accessed bit (the III-B
                # protocol assumes demand fills, where the fault proves
                # an access), so eagerly merging a never-accessed gPTE
                # would invent an A bit the guest never earned. Skipped
                # entries refill on demand like any other miss.
                if not gpte.accessed:
                    continue
                self._install_leaf(va, node.level, gpte)
                rebuilt += 1
            else:
                child_meta = self.node_meta.get(gpte.frame)
                if child_meta is not None and child_meta.mode == NODE_NESTED:
                    self._install_switch(va, node.level, gpte.frame)
                    rebuilt += 1
        return rebuilt

    @mutates("shadow_pt")
    def revert_all(self):
        """The simple reversion policy: everything back to shadow mode."""
        reverted = 0
        for gfn in self._gfns_top_down():
            meta = self.node_meta[gfn]
            if meta.mode == NODE_NESTED:
                self.revert_to_shadow(gfn)
                reverted += 1
        return reverted

    def nested_node_gfns(self):
        """Nested-mode nodes, top (root) level first."""
        return [g for g in self._gfns_top_down() if self.node_meta[g].mode == NODE_NESTED]

    def _gfns_top_down(self):
        return sorted(self.node_meta, key=lambda g: -self.node_meta[g].level)

    @takes(node_gfn="gfn")
    def _subtree_gfns(self, node_gfn):
        """``node_gfn`` and every guest PT node beneath it."""
        result = []
        stack = [node_gfn]
        while stack:
            gfn = stack.pop()
            result.append(gfn)
            node = self._guest_node(gfn)
            if node.level == LEAF_LEVEL:
                continue
            for _index, pte in node.present_items():
                if not pte.huge and pte.frame in self.node_meta:
                    stack.append(pte.frame)
        return result

    @mutates("shadow_pt")
    def rebuild_full(self, page_table):
        """Merge *every* guest mapping into the shadow table.

        This is the whole-table rebuild SHSP pays when switching a
        process from nested to shadow paging — the cost that motivates
        agile paging's partial shadowing (Section I). Returns the number
        of mappings merged.
        """
        rebuilt = 0
        for va, gpte, level in page_table.iter_leaves():
            if not gpte.accessed:
                continue  # never-accessed gPTEs demand-fill later (A-bit protocol)
            self._install_leaf(va, level, gpte)
            rebuilt += 1
        return rebuilt

    # -- start-in-nested (short-lived process) policy -----------------------------

    @mutates("shadow_pt")
    def enable_shadow_coverage(self):
        """Leave fully-nested mode: agile paging proper begins.

        All nodes start in shadow mode; the write policy will push the
        dynamic ones back to nested.
        """
        if not self.fully_nested:
            return
        self.fully_nested = False
        # Guest PT updates during the fully-nested phase went direct, so
        # any shadow entries from before it are stale (e.g., leaves for
        # since-unmapped pages) — drop the whole table before rebuilding.
        for index in list(self.spt.root.entries):
            self.spt.clear_subtree(self.spt.root, index)
        for meta in self.node_meta.values():
            meta.mode = NODE_SHADOW
        self.root_switched = False
        self.inval.invalidate_asid(self.asid)
        self.inval.flush_pwc()

    # -- teardown ---------------------------------------------------------------------

    def destroy(self):
        self.spt.destroy()
        self.node_meta.clear()
