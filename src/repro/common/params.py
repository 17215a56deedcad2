"""Address-space geometry for an x86-64-style four-level radix page table.

The paper (and this reproduction) uses the standard x86-64 layout:

* 48-bit canonical virtual addresses,
* a 4 KB base page (12 offset bits),
* four radix levels of 9 bits each (512 entries per node),
* large pages that terminate the walk early: 2 MB leaves at level 2 and
  1 GB leaves at level 3.

Levels are numbered as in the paper's Table II: level 4 is the root
(the PML4 in Intel terms) and level 1 holds the leaf PTEs.

The address-carrying helpers are annotated with the space-generic
:mod:`repro.common.addrspace` domains (``addr``/``frame``/``offset``)
because they serve gVA, gPA and hPA alike; the domain analyzer
(REPRO602/604/605) specializes them at each call site.
"""

from repro.common.addrspace import returns, takes

PAGE_SHIFT = 12
PAGE_SIZE = 1 << PAGE_SHIFT

LEVEL_BITS = 9
ENTRIES_PER_NODE = 1 << LEVEL_BITS
NUM_LEVELS = 4
ROOT_LEVEL = NUM_LEVELS
LEAF_LEVEL = 1

VA_BITS = PAGE_SHIFT + NUM_LEVELS * LEVEL_BITS  # 48
VA_LIMIT = 1 << VA_BITS

SIZE_4K = 1 << 12
SIZE_2M = 1 << 21
SIZE_1G = 1 << 30


class PageSize:
    """A supported translation granule.

    Instances are singletons (:data:`FOUR_KB`, :data:`TWO_MB`,
    :data:`ONE_GB`); compare them with ``is`` or ``==``.
    """

    __slots__ = ("name", "shift", "bytes", "leaf_level")

    def __init__(self, name, shift, leaf_level):
        self.name = name
        self.shift = shift
        self.bytes = 1 << shift
        self.leaf_level = leaf_level

    def __repr__(self):
        return "PageSize(%s)" % self.name

    def __str__(self):
        return self.name


FOUR_KB = PageSize("4K", 12, 1)
TWO_MB = PageSize("2M", 21, 2)
ONE_GB = PageSize("1G", 30, 3)

PAGE_SIZES = {ps.name: ps for ps in (FOUR_KB, TWO_MB, ONE_GB)}


def level_shift(level):
    """Bit position of the index field for ``level`` within a VA."""
    if not LEAF_LEVEL <= level <= ROOT_LEVEL:
        raise ValueError("page table level out of range: %r" % (level,))
    return PAGE_SHIFT + LEVEL_BITS * (level - 1)


@takes(va="addr")
@returns("offset")
def pt_index(va, level):
    """The 9-bit index used to select an entry at ``level`` for ``va``.

    Mirrors the ``index(VA, i)`` helper in the paper's Figure 2 pseudocode.
    """
    return (va >> level_shift(level)) & (ENTRIES_PER_NODE - 1)


@takes(va="addr")
@returns("frame")
def page_number(va, page_shift=PAGE_SHIFT):
    """Virtual (or physical) page number of ``va`` at a given granule."""
    return va >> page_shift


@takes(va="addr")
@returns("offset")
def page_offset(va, page_shift=PAGE_SHIFT):
    """Offset of ``va`` within its page at a given granule."""
    return va & ((1 << page_shift) - 1)


@takes(va="addr")
@returns("addr")
def page_base(va, page_shift=PAGE_SHIFT):
    """The address of the start of the page containing ``va``."""
    return va & ~((1 << page_shift) - 1)


def align_up(value, alignment):
    """Round ``value`` up to the next multiple of ``alignment``."""
    return (value + alignment - 1) & ~(alignment - 1)


def is_canonical(va):
    """True if ``va`` fits in the simulated 48-bit address space."""
    return 0 <= va < VA_LIMIT


def level_span(level):
    """Bytes of virtual address space covered by one entry at ``level``."""
    return 1 << level_shift(level)


def walk_levels(leaf_level=LEAF_LEVEL):
    """Levels visited by a walk, root first: 4, 3, ... down to the leaf."""
    return range(ROOT_LEVEL, leaf_level - 1, -1)
