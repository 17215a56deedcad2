"""Address-space annotations: the vocabulary of the domain analyzer.

Agile paging's entire subject is the gVA→gPA→hPA pipeline, and the
simulator's native bug class is mixing those domains — comparing a
guest-physical frame against a host-physical one, indexing host RAM
with a gfn, shifting an already-shifted value. These annotations give
every address-carrying parameter and return value a declared *domain*
so ``repro.lint.domains`` can typecheck the pipeline statically (rules
REPRO602, REPRO604 and REPRO605; see ``docs/static_analysis.md``).

Like ``repro.common.effects``, the decorators are runtime no-ops: they
tag the function object and return it unchanged (no wrapper, no call
overhead). The analyzer never imports annotated modules — it reads the
decorator *syntax* from the AST.

The domains (every one aliases ``int``; the aliases are documentation
plus grep bait, never enforced at runtime):

=========  ======================  =====================================
name       space                   unit
=========  ======================  =====================================
``gva``    guest-virtual           byte address
``vpn``    guest-virtual           page/frame number (``gva >> 12``)
``gpa``    guest-physical          byte address
``gfn``    guest-physical          frame number (``gpa >> 12``)
``hpa``    host-physical           byte address
``hfn``    host-physical           frame number (``hpa >> 12``)
``offset`` —                       intra-page offset / table index
``addr``   any (space-generic)     byte address
``frame``  any (space-generic)     frame number
=========  ======================  =====================================

``addr`` and ``frame`` exist because the radix-table machinery
(:class:`repro.mem.pagetable.PageTable`,
:class:`repro.mem.physmem.PhysicalMemory`) is deliberately generic —
one class serves the guest, host, and shadow tables — so only the
*unit* is fixed there; the space is the caller's.

Vocabulary:

``@takes(va="gva", frame="hfn")``
    Declares the domain of named parameters. Call sites passing a value
    the analyzer has inferred into a *different* space are REPRO602;
    a same-space frame/byte mix-up is REPRO604.
``@returns("hfn")`` / ``@returns("hfn", None, None)``
    Declares the domain of the return value; the tuple form types each
    element of a returned tuple (``None`` = undeclared).
``@translates("gfn", "hfn")``
    Declares a pipeline edge: the function consumes a ``src``-domain
    value (its first data parameter, unless ``@takes`` says otherwise)
    and produces a ``dst``-domain value. Every declared pair must be a
    real paper-model edge (gVA→gPA, gPA→hPA, or the shadow-composed
    gVA→hPA, in byte or frame form) and be reachable from the hardware
    walker — REPRO605.
"""

# NewType-style aliases for signatures and docstrings. Zero runtime
# cost: they *are* int, so arithmetic and numpy interop are untouched.
GVA = int
GPA = int
HPA = int
GFN = int
HFN = int
VPN = int
Offset = int

#: Every domain name the decorators accept.
DOMAINS = ("gva", "gpa", "hpa", "gfn", "hfn", "vpn", "offset",
           "addr", "frame")

#: The translation edges of the paper's model (Figure 1): the guest
#: table's gVA→gPA, the host table's gPA→hPA, and the shadow-composed
#: gVA→hPA — each in byte-address or frame-number form.
PAPER_EDGES = (
    ("gva", "gpa"), ("vpn", "gfn"),
    ("gpa", "hpa"), ("gfn", "hfn"),
    ("gva", "hpa"), ("vpn", "hfn"),
)


def _check_domain(name):
    if name not in DOMAINS:
        raise ValueError(
            "unknown address domain %r (known: %s)"
            % (name, ", ".join(DOMAINS)))


def takes(**param_domains):
    """Declare the address domain of each named parameter."""
    for name in param_domains.values():
        _check_domain(name)

    def annotate(fn):
        merged = dict(getattr(fn, "__repro_takes__", ()))
        merged.update(param_domains)
        fn.__repro_takes__ = tuple(sorted(merged.items()))
        return fn

    return annotate


def returns(*domains):
    """Declare the domain of the return value (tuple-positional form
    types each element; ``None`` leaves one undeclared)."""
    for name in domains:
        if name is not None:
            _check_domain(name)

    def annotate(fn):
        fn.__repro_returns__ = tuple(domains)
        return fn

    return annotate


def translates(src, dst):
    """Declare that this function is a translation-pipeline edge
    ``src`` → ``dst`` (consumes src, produces dst)."""
    _check_domain(src)
    _check_domain(dst)

    def annotate(fn):
        fn.__repro_translates__ = (src, dst)
        return fn

    return annotate


__all__ = ["GVA", "GPA", "HPA", "GFN", "HFN", "VPN", "Offset",
           "DOMAINS", "PAPER_EDGES", "takes", "returns", "translates"]
