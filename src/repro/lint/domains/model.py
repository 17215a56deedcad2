"""The domain lattice and the declared-signature reader.

A lattice value is either *unknown* (``None`` — no information, the
quiet default everywhere annotations don't reach) or a :class:`Value`
with a ``space`` (guest-virtual / guest-physical / host-physical, or
``None`` for the space-generic ``addr``/``frame``/``offset`` domains)
and a ``unit`` (byte ``addr``, ``frame`` number, or intra-page
``offset``). Conflicts are reported at the *operation* that mixes two
known values and the result drops back to unknown — there is no
sticky ⊥ element, so one mix-up yields one finding, not a cascade.

Signatures are read from decorator *syntax* (``@takes``/``@returns``/
``@translates``, see :mod:`repro.common.addrspace`) — the analyzer
never imports the annotated modules.
"""

import ast

from repro.lint.rules import tail_name

#: space of each declarable domain name (None = space-generic).
SPACE = {
    "gva": "guest-virtual", "vpn": "guest-virtual",
    "gpa": "guest-physical", "gfn": "guest-physical",
    "hpa": "host-physical", "hfn": "host-physical",
    "offset": None, "addr": None, "frame": None,
}

#: unit of each declarable domain name.
UNIT = {
    "gva": "addr", "gpa": "addr", "hpa": "addr", "addr": "addr",
    "vpn": "frame", "gfn": "frame", "hfn": "frame", "frame": "frame",
    "offset": "offset",
}

#: (space, unit) -> canonical domain name, for messages.
_NAME = {(SPACE[name], UNIT[name]): name for name in SPACE}

#: Right-shifting an address by one of these moves addr -> frame.
PAGE_SHIFT_CONSTANTS = (12, 21, 30)


class Value:
    """One known lattice point: a space/unit pair plus its provenance."""

    __slots__ = ("space", "unit", "origin")

    def __init__(self, space, unit, origin):
        self.space = space
        self.unit = unit
        self.origin = origin

    @property
    def domain(self):
        """The canonical domain name of this (space, unit) point."""
        return _NAME.get((self.space, self.unit), "?")

    def same_point(self, other):
        return (other is not None and self.space == other.space
                and self.unit == other.unit)

    def __repr__(self):
        return "Value(%s via %s)" % (self.domain, self.origin)


def from_name(name, origin):
    """The lattice value of a declared domain name (None if unknown)."""
    if name not in SPACE:
        return None
    return Value(SPACE[name], UNIT[name], origin)


def spaces_conflict(a, b):
    """Two *concrete* spaces that differ — the REPRO602 core."""
    return (a is not None and b is not None
            and a.space is not None and b.space is not None
            and a.space != b.space)


def units_conflict(a, b):
    """addr/frame/offset confusion between two known values whose
    spaces are compatible — the REPRO604 core."""
    if a is None or b is None:
        return False
    if a.space is not None and b.space is not None and a.space != b.space:
        return False  # that is a space conflict, not a unit one
    return a.unit != b.unit


# -- declared signatures ------------------------------------------------------


class Signature:
    """The addrspace declarations on one function definition."""

    __slots__ = ("takes", "returns", "translates")

    def __init__(self, takes, returns, translates):
        self.takes = takes            # {param name: domain name}
        self.returns = returns        # tuple of domain-name-or-None, or None
        self.translates = translates  # (src, dst) or None

    def return_domains(self):
        """The declared return-domain tuple (translators return dst)."""
        if self.returns is not None:
            return self.returns
        if self.translates is not None:
            return (self.translates[1],)
        return None

    def param_domains(self, node):
        """{param name: domain name} including the translator's implied
        source domain on the first data parameter."""
        domains = dict(self.takes)
        if self.translates is not None:
            for arg in node.args.args:
                if arg.arg in ("self", "cls"):
                    continue
                domains.setdefault(arg.arg, self.translates[0])
                break
        return domains


def read_signature(node):
    """Read @takes/@returns/@translates syntax off one function def."""
    takes = {}
    returns = None
    translates = None
    for decorator in node.decorator_list:
        if not isinstance(decorator, ast.Call):
            continue
        tail = tail_name(decorator.func)
        if tail == "takes":
            for keyword in decorator.keywords:
                if (keyword.arg is not None
                        and isinstance(keyword.value, ast.Constant)
                        and isinstance(keyword.value.value, str)):
                    takes[keyword.arg] = keyword.value.value
        elif tail == "returns":
            domains = []
            for arg in decorator.args:
                if isinstance(arg, ast.Constant) and (
                        arg.value is None or isinstance(arg.value, str)):
                    domains.append(arg.value)
            returns = tuple(domains)
        elif tail == "translates":
            if (len(decorator.args) == 2
                    and all(isinstance(a, ast.Constant)
                            and isinstance(a.value, str)
                            for a in decorator.args)):
                translates = (decorator.args[0].value,
                              decorator.args[1].value)
    return Signature(takes, returns, translates)


# -- idiom recognition --------------------------------------------------------


def is_page_shift(node):
    """Does this expression look like a page-shift amount?

    ``12``/``21``/``30``, ``PAGE_SHIFT``, anything whose tail name
    mentions ``shift`` (``page_shift``, ``eff_shift``,
    ``level_shift(level)``, ``self.page_size.shift``).
    """
    if isinstance(node, ast.Constant):
        return node.value in PAGE_SHIFT_CONSTANTS
    if isinstance(node, ast.Call):
        node = node.func
    tail = tail_name(node)
    return tail is not None and "shift" in tail.lower()


def is_offset_mask(node):
    """Does this expression look like an intra-page / low-bits mask?

    ``OFFSET_MASK``-style names, ``(1 << n) - 1`` / ``span - 1``
    subtractions, and 2**n - 1 integer literals.
    """
    if isinstance(node, ast.Constant):
        value = node.value
        return (isinstance(value, int) and value > 0
                and (value + 1) & value == 0)
    if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)
            and isinstance(node.right, ast.Constant)
            and node.right.value == 1):
        return True
    tail = tail_name(node)
    return tail is not None and "mask" in tail.lower()


def is_inverted_mask(node):
    """``~mask``: keeps the left operand's domain (page_base idiom)."""
    return (isinstance(node, ast.UnaryOp)
            and isinstance(node.op, ast.Invert)
            and is_offset_mask(node.operand))
