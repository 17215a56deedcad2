"""A multi-level radix page table stored in a simulated physical memory.

This class provides the *software* view of a page table: the operations
an OS or VMM performs (map, unmap, protect, scan). Hardware walks — the
ones that cost memory references — live in :mod:`repro.hw.walker` and
read the same nodes through physical memory.

Guest page tables take an ``observer``: the VMM registers one to mediate
guest writes (the write-protection mechanism of Section III-B). Every
mutation of an entry funnels through :meth:`_write_entry`, so an observer
sees the complete update stream, exactly like KVM's write-protect traps.
"""

from repro.common.errors import SimulationError
from repro.common.params import (
    FOUR_KB,
    LEAF_LEVEL,
    ROOT_LEVEL,
    level_shift,
    pt_index,
)
from repro.mem.pte import PTE, PageTableNode


class PageTableObserver:
    """Callbacks a page table invokes around mutations.

    The default implementation does nothing; the VMM subclasses it.
    """

    def node_allocated(self, table, node, parent):
        """A new page-table node was linked under ``parent``."""

    def pte_written(self, table, node, index, old, new):
        """The entry ``node.entries[index]`` changed from ``old`` to ``new``.

        ``old`` and ``new`` are PTEs or None (None means not-present and
        never installed). Called *after* the write takes effect.
        """

    def node_freed(self, table, node):
        """A page-table node is about to be freed."""


class PageTable:
    """A radix page table rooted in one node.

    ``physmem`` supplies frames for nodes; ``name`` labels the table in
    diagnostics ("gPT", "hPT", "sPT", "PT").
    """

    def __init__(self, physmem, name="PT", observer=None):
        self.physmem = physmem
        self.name = name
        self.observer = observer
        self.root = self._new_node(ROOT_LEVEL, parent=None)

    @property
    def root_frame(self):
        return self.root.frame

    # -- node management -------------------------------------------------

    def _new_node(self, level, parent):
        frame = self.physmem.alloc_frame()
        node = PageTableNode(level, frame)
        self.physmem.install(frame, node)
        if self.observer is not None:
            self.observer.node_allocated(self, node, parent)
        return node

    def node_at(self, frame):
        """The :class:`PageTableNode` stored in ``frame``."""
        node = self.physmem.read(frame)
        if not isinstance(node, PageTableNode):
            raise SimulationError("%s: frame %d is not a page-table node" % (self.name, frame))
        return node

    def _write_entry(self, node, index, new):
        old = node.entries.get(index)
        if new is None:
            node.clear(index)
        else:
            node.set(index, new)
        if self.observer is not None:
            self.observer.pte_written(self, node, index, old, new)

    # -- traversal --------------------------------------------------------

    def ensure_path(self, va, leaf_level):
        """Walk (allocating as needed) down to ``leaf_level``; return node.

        Intermediate entries are created present/writable/user as real
        OSes do; the leaf entry itself is *not* touched.
        """
        node = self.root
        for level in range(ROOT_LEVEL, leaf_level, -1):
            index = pt_index(va, level)
            pte = node.get(index)
            if pte is not None and pte.present:
                if pte.huge:
                    raise SimulationError(
                        "%s: huge mapping at level %d blocks path to level %d"
                        % (self.name, level, leaf_level)
                    )
                node = self.node_at(pte.frame)
                continue
            child = self._new_node(level - 1, parent=node)
            self._write_entry(node, index, PTE(frame=child.frame))
            node = child
        return node

    def lookup(self, va):
        """Software walk: returns (pte, level) of the mapping or (None, level).

        ``level`` on a miss is the level at which the walk stopped.
        """
        node = self.root
        for level in range(ROOT_LEVEL, LEAF_LEVEL - 1, -1):
            index = pt_index(va, level)
            pte = node.get(index)
            if pte is None or not pte.present:
                return None, level
            if pte.huge or level == LEAF_LEVEL:
                return pte, level
            node = self.node_at(pte.frame)
        raise SimulationError("unreachable walk state")  # pragma: no cover

    def leaf_entry(self, va, page_size=FOUR_KB):
        """The (node, index, pte) triple for ``va`` at ``page_size``.

        Returns (None, None, None) if the path is absent.
        """
        node = self.root
        for level in range(ROOT_LEVEL, page_size.leaf_level, -1):
            pte = node.get(pt_index(va, level))
            if pte is None or not pte.present or pte.huge:
                return None, None, None
            node = self.node_at(pte.frame)
        index = pt_index(va, page_size.leaf_level)
        return node, index, node.get(index)

    def translate(self, va):
        """Frame and page shift backing ``va``, or None if unmapped."""
        pte, level = self.lookup(va)
        if pte is None:
            return None
        shift = level_shift(level)
        base_frame = pte.frame
        # A huge mapping covers many 4K frames; pick the right one.
        offset_frames = (va & ((1 << shift) - 1)) >> 12
        return base_frame + offset_frames, shift

    # -- mutation ---------------------------------------------------------

    def map(self, va, frame, page_size=FOUR_KB, writable=True, user=True,
            accessed=False, dirty=False):
        """Install a leaf mapping va -> frame at ``page_size``."""
        leaf_level = page_size.leaf_level
        node = self.ensure_path(va, leaf_level)
        pte = PTE(
            frame=frame,
            writable=writable,
            user=user,
            accessed=accessed,
            dirty=dirty,
            huge=leaf_level > LEAF_LEVEL,
        )
        self._write_entry(node, pt_index(va, leaf_level), pte)
        return pte

    def unmap(self, va, page_size=FOUR_KB):
        """Remove the leaf mapping for ``va``; returns the old PTE or None."""
        node, index, pte = self.leaf_entry(va, page_size)
        if node is None or pte is None:
            return None
        self._write_entry(node, index, None)
        return pte

    def set_flags(self, va, page_size=FOUR_KB, **flags):
        """Update flag fields on the leaf PTE for ``va``.

        Recognized keys: writable, user, accessed, dirty, present.
        Returns the updated PTE, or None if there is no mapping.
        """
        node, index, pte = self.leaf_entry(va, page_size)
        if pte is None:
            return None
        new = pte.copy()
        for key, value in flags.items():
            if key not in ("writable", "user", "accessed", "dirty", "present"):
                raise ValueError("unknown PTE flag: %r" % (key,))
            setattr(new, key, value)
        self._write_entry(node, index, new)
        return new

    @staticmethod
    def _links_child_node(node, pte):
        """True when ``pte`` (inside ``node``) points at a child PT node
        rather than at a data page."""
        return (
            node.level > LEAF_LEVEL
            and pte.present
            and not pte.huge
            and not pte.switching
            and not pte.guest_node
        )

    def clear_subtree(self, node, index):
        """Unlink and free the whole subtree under ``node[index]``."""
        pte = node.get(index)
        if pte is None:
            return
        if self._links_child_node(node, pte):
            self._free_subtree(self.node_at(pte.frame))
        self._write_entry(node, index, None)

    def _free_subtree(self, node):
        for _, pte in list(node.present_items()):
            if self._links_child_node(node, pte):
                self._free_subtree(self.node_at(pte.frame))
        if self.observer is not None:
            self.observer.node_freed(self, node)
        self.physmem.free_frame(node.frame)

    def destroy(self):
        """Free every node including the root."""
        self._free_subtree(self.root)
        self.root = None

    # -- iteration ---------------------------------------------------------

    def iter_nodes(self):
        """Yield every node, parents before children."""
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            for _, pte in node.present_items():
                if self._links_child_node(node, pte):
                    stack.append(self.node_at(pte.frame))

    def iter_leaves(self):
        """Yield (va, pte, level) for every installed leaf mapping."""
        def recurse(node, va_prefix):
            for index, pte in sorted(node.entries.items()):
                if not pte.present:
                    continue
                va = va_prefix | (index << level_shift(node.level))
                if pte.huge or node.level == LEAF_LEVEL:
                    yield va, pte, node.level
                elif not pte.switching:
                    child = self.node_at(pte.frame)
                    yield from recurse(child, va)

        yield from recurse(self.root, 0)
