"""The time lattice and the declared-signature reader.

A lattice value is *unknown* (``None`` — the quiet default everywhere
annotations and clock idioms don't reach), a :class:`TimeValue` (an
*instant* pinned to a clock, or an epoch-free *duration*), or a
:class:`ClockRef` (a reference to a clock object itself, so
``clock = self.system.clock`` followed by ``clock.now`` still infers).
Conflicts are reported at the *operation* that mixes two known values
and the result drops back to unknown — no sticky ⊥, so one mix-up
yields one finding, not a cascade.

The clock-compatibility relation is deliberately asymmetric-friendly:
``vm_virtual`` (a VM's virtual time as the host names it) and
``guest_sim`` (the same time base as guest-side code sees it) are
compatible; ``host_wall`` conflicts with both. That encodes the PR 9
isolation invariant — host wall time includes every other tenant's
cycles and must never leak into a guest's windows or metrics.

Signatures are read from decorator *syntax* (``@cycles`` /
``@advances`` / ``@charges``, see :mod:`repro.common.timedomain`) —
the analyzer never imports the annotated modules.
"""

import ast

from repro.common.timedomain import (
    CLOCKS,
    CYCLE_COUNTERS,
    HOST_CYCLE_COUNTERS,
    SINK_PREFIX,
    TIME_DOMAINS,
)
from repro.lint.absint import module_tail
from repro.lint.rules import tail_name

#: Instant domains and the clock side each one reads.
INSTANT_CLOCKS = {
    "host_wall": "host_wall",
    "vm_virtual": "guest",
    "guest_sim": "guest",
}

#: Modules (by their last two dotted components) on the *host* side of
#: the clock split: a bare ``self.clock`` there is the shared host
#: clock. Everywhere else it is the machine's own (virtual) clock.
HOST_SIDE_TAILS = (
    ("host", "scheduler"),
    ("host", "host"),
    ("host", "balloon"),
    ("host", "memory"),
)

#: The only classes allowed to advance the host clock (REPRO702): the
#: vCPU scheduler charges world switches between quanta, and the Host
#: assembles the clock it hands out.
HOST_ADVANCE_AUTHORITY = (
    ("host", "scheduler", "VCpuScheduler"),
    ("host", "host", "Host"),
)

#: Modules exempt from the clock rules: the clock implementation itself
#: (whose ``VirtualClock.advance`` pass-through is the one legitimate
#: ``.host.advance``) and the vocabulary that defines the domains.
EXEMPT_TAILS = (
    ("common", "clock"),
    ("common", "timedomain"),
)


def is_host_side(module):
    return module_tail(module) in HOST_SIDE_TAILS


def is_exempt(module):
    return module_tail(module) in EXEMPT_TAILS


def module_clock_side(module):
    """The clock side of a bare ``self.clock`` in this module."""
    return "host_wall" if is_host_side(module) else "guest"


def may_advance_host(module, cls):
    return (module_tail(module) + (cls,)) in HOST_ADVANCE_AUTHORITY


class TimeValue:
    """One known lattice point: an instant on a clock, or a duration."""

    __slots__ = ("kind", "clock", "origin")

    def __init__(self, kind, clock, origin):
        self.kind = kind    # "instant" | "duration"
        self.clock = clock  # "host_wall" | "guest" | None (durations)
        self.origin = origin

    @property
    def domain(self):
        if self.kind == "duration":
            return "duration"
        return "host_wall" if self.clock == "host_wall" else "guest_sim"

    def same_point(self, other):
        return (isinstance(other, TimeValue) and self.kind == other.kind
                and self.clock == other.clock)

    def __repr__(self):
        return "TimeValue(%s via %s)" % (self.domain, self.origin)


def instant(clock, origin):
    return TimeValue("instant", clock, origin)


def duration(origin):
    return TimeValue("duration", None, origin)


def from_name(name, origin):
    """The lattice value of a declared domain name (None if unknown)."""
    if name == "duration":
        return duration(origin)
    clock = INSTANT_CLOCKS.get(name)
    if clock is None:
        return None
    return instant(clock, origin)


class ClockRef:
    """A reference to a clock object (not a cycle value)."""

    __slots__ = ("clock", "via_host", "origin")

    def __init__(self, clock, origin, via_host=False):
        self.clock = clock        # "host_wall" | "guest"
        self.via_host = via_host  # reached through VirtualClock.host
        self.origin = origin

    def same_point(self, other):
        return (isinstance(other, ClockRef) and self.clock == other.clock
                and self.via_host == other.via_host)

    def __repr__(self):
        return "ClockRef(%s via %s)" % (self.clock, self.origin)


def clocks_conflict(a, b):
    """Two known instants on different time bases — the REPRO701 core.

    ``host_wall`` vs anything guest-side conflicts; ``vm_virtual`` and
    ``guest_sim`` share a base and are compatible.
    """
    return (isinstance(a, TimeValue) and isinstance(b, TimeValue)
            and a.kind == "instant" and b.kind == "instant"
            and a.clock is not None and b.clock is not None
            and a.clock != b.clock)


def kinds_conflict(a, b):
    """Instant-vs-duration confusion between two known values whose
    clocks are compatible (comparing an epoch to an interval)."""
    if not isinstance(a, TimeValue) or not isinstance(b, TimeValue):
        return False
    if clocks_conflict(a, b):
        return False  # that is a clock conflict, not a kind one
    return a.kind != b.kind


# -- declared signatures ------------------------------------------------------


class Signature:
    """The timedomain declarations on one function definition."""

    __slots__ = ("params", "returns", "advances", "charges")

    def __init__(self, params, returns, advances, charges):
        self.params = params      # {param name: domain name}
        self.returns = returns    # domain name or None
        self.advances = advances  # tuple of clock names
        self.charges = charges    # tuple of counter names

def _valid_counter(name):
    if name.startswith(SINK_PREFIX):
        return len(name) > len(SINK_PREFIX)
    return name in CYCLE_COUNTERS or name in HOST_CYCLE_COUNTERS


def read_signature(node):
    """Read @cycles/@advances/@charges syntax off one function def.

    Unknown domain/clock/counter *names* are kept (not dropped): the
    rules report them rather than silently treating the function as
    unannotated. Returns (signature, [(node, decorator tail, message)]
    syntax errors).
    """
    params = {}
    returns = None
    advance_clocks = []
    charge_counters = []
    errors = []
    for decorator in node.decorator_list:
        if not isinstance(decorator, ast.Call):
            continue
        tail = tail_name(decorator.func)
        if tail == "cycles":
            for arg in decorator.args:
                if isinstance(arg, ast.Constant) and isinstance(arg.value,
                                                                str):
                    returns = arg.value
                    if arg.value not in TIME_DOMAINS:
                        errors.append((decorator, tail,
                                       "unknown time domain %r in @cycles "
                                       "on `%s`" % (arg.value, node.name)))
            for keyword in decorator.keywords:
                if (keyword.arg is not None
                        and isinstance(keyword.value, ast.Constant)
                        and isinstance(keyword.value.value, str)):
                    params[keyword.arg] = keyword.value.value
                    if keyword.value.value not in TIME_DOMAINS:
                        errors.append((decorator, tail,
                                       "unknown time domain %r in @cycles "
                                       "on `%s`" % (keyword.value.value,
                                                    node.name)))
        elif tail == "advances":
            for arg in decorator.args:
                if isinstance(arg, ast.Constant) and isinstance(arg.value,
                                                                str):
                    advance_clocks.append(arg.value)
                    if arg.value not in CLOCKS:
                        errors.append((decorator, tail,
                                       "unknown clock %r in @advances on "
                                       "`%s` (advanceable: %s)"
                                       % (arg.value, node.name,
                                          ", ".join(CLOCKS))))
        elif tail == "charges":
            for arg in decorator.args:
                if isinstance(arg, ast.Constant) and isinstance(arg.value,
                                                                str):
                    charge_counters.append(arg.value)
                    if not _valid_counter(arg.value):
                        errors.append((decorator, tail,
                                       "unknown cycle counter %r in "
                                       "@charges on `%s` (declare a "
                                       "RunMetrics/host counter or a "
                                       "%r-prefixed sink)"
                                       % (arg.value, node.name,
                                          SINK_PREFIX)))
    signature = Signature(params, returns, tuple(advance_clocks),
                          tuple(charge_counters))
    return signature, errors
