"""Results and context objects for hardware page walks."""

# Sentinel for a walk handled entirely by nested paging with the guest
# root pointer itself translated through the host table (24 refs in the
# 4 KB case) — distinct from an agile walk with all four levels nested
# (20 refs, Figure 3(e)).
NESTED_FULL = "full"


class WalkResult:
    """What a completed hardware page walk produced.

    ``frame``/``page_shift`` name the final (host-)physical page;
    ``refs`` counts memory references performed, matching the paper's
    Table II arithmetic; ``nested_levels`` is the degree of nesting: 0
    for a 1D walk (host, native, shadow, or agile without a switch), 1–4
    for agile walks that switched, and :data:`NESTED_FULL` for a complete
    nested walk; ``mode`` names the walk that produced the result.
    """

    __slots__ = (
        "frame",
        "page_shift",
        "writable",
        "dirty",
        "refs",
        "nested_levels",
        "mode",
    )

    def __init__(self, frame, page_shift, writable, dirty, refs, nested_levels, mode):
        self.frame = frame
        self.page_shift = page_shift
        self.writable = writable
        self.dirty = dirty
        self.refs = refs
        self.nested_levels = nested_levels
        self.mode = mode

    def __repr__(self):
        return "WalkResult(frame=%d, shift=%d, refs=%d, nested=%r, mode=%s)" % (
            self.frame,
            self.page_shift,
            self.refs,
            self.nested_levels,
            self.mode,
        )


class TranslationContext:
    """Hardware-visible translation state for the running guest process.

    This models the architectural page-table pointers of Section III-A:
    up to three of them live simultaneously (shadow, guest, host), plus
    the root switching bit that lets the very first level run nested.

    * native:  ``root_frame``
    * nested:  ``gptr`` (guest root gfn) and ``hptr`` (host root frame)
    * shadow:  ``sptr`` (shadow root frame); gptr/hptr exist but unused
      by hardware
    * agile:   all three; ``sptr is None`` means the process is fully
      nested (the Figure 4 ``sptr == gptr`` case); ``root_switch`` set
      means the walk starts nested at the guest root (Figure 3(e)).
    """

    __slots__ = ("asid", "mode", "root_frame", "gptr", "hptr", "sptr", "root_switch")

    def __init__(self, asid, mode, root_frame=None, gptr=None, hptr=None,
                 sptr=None, root_switch=False):
        self.asid = asid
        self.mode = mode
        self.root_frame = root_frame
        self.gptr = gptr
        self.hptr = hptr
        self.sptr = sptr
        self.root_switch = root_switch
