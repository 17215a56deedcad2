"""Time-domain annotations: the vocabulary of the time analyzer.

The consolidated host (PR 9) gave the simulator a second time base:
every VM runs on a :class:`repro.common.clock.VirtualClock` view of the
shared host :class:`~repro.common.clock.Clock`, so "now" means three
different things depending on where you stand. The PR 9 bug class —
clock-windowed policies reading host wall time instead of guest virtual
time — broke bit-identical solo≡consolidated replay and could only be
caught dynamically by the isolation fuzz oracle. These annotations give
every cycle-carrying parameter, return value, and clock mutation a
declared *time domain* so ``repro.lint.time`` can typecheck the
accounting statically (rules REPRO701–REPRO703; see
``docs/static_analysis.md``).

Like ``repro.common.effects`` and ``repro.common.addrspace``, the
decorators are runtime no-ops: they tag the function object and return
it unchanged (no wrapper, no call overhead). The analyzer never imports
annotated modules — it reads the decorator *syntax* from the AST.

The domains:

==============  ======================================================
name            meaning
==============  ======================================================
``host_wall``   an instant on the shared host clock (``Clock.now``):
                the sum of every tenant's work plus world switches
``vm_virtual``  an instant on one VM's ``VirtualClock.now``: that VM's
                own cycles, as the *host* sees them
``guest_sim``   an instant on "my clock" as guest-side code sees it —
                a solo machine's ``Clock`` or a consolidated VM's
                ``VirtualClock``; same time base as ``vm_virtual``,
                viewed from inside
``duration``    a cycle *count* with no epoch (an interval, a cost, a
                quantum) — safe to move between clocks
==============  ======================================================

``vm_virtual`` and ``guest_sim`` are two names for the same time base
(one VM's virtual time) and are mutually compatible; ``host_wall``
conflicts with both. Instants subtract to durations; instants never
add; a duration shifts an instant along its own clock only.

Vocabulary:

``@cycles("duration")`` / ``@cycles(now="guest_sim")``
    Declares the time domain of the return value (positional string)
    and/or of named parameters (keywords). Call sites passing a value
    the analyzer has inferred onto a *different* clock are REPRO701.
``@advances("host_wall")`` / ``@advances("guest_sim")``
    Declares that this function advances that clock. Only
    ``VCpuScheduler``/``Host`` may declare (or perform) a host-clock
    advance — anything else is REPRO702. VM-side code advances its own
    view (``guest_sim``); the pass-through to host wall time happens
    inside ``VirtualClock``, the one module exempt from the rule.
``@charges("walk_cycles", "sink:warmup")``
    Declares which :class:`repro.core.metrics.RunMetrics` counters (or
    host-side counters, or explicitly named ``sink:`` drains) the clock
    advances inside this function are attributed to. A clock-advance
    site in a function with no ``@charges`` is REPRO703 — every cycle
    on the clock must be accounted for somewhere ``total_cycles`` can
    be decomposed into.
"""

#: Every declarable time domain.
TIME_DOMAINS = ("host_wall", "vm_virtual", "guest_sim", "duration")

#: The two advanceable clock sides (``vm_virtual`` is the host's name
#: for a guest-side view; advances through it are ``guest_sim``).
CLOCKS = ("host_wall", "guest_sim")

#: Every RunMetrics cycle counter an advance may be charged to:
#: ``tests/core/test_metrics.py`` pins this tuple to exactly the
#: RunMetrics cycle fields.
CYCLE_COUNTERS = (
    "total_cycles",
    "ideal_cycles",
    "walk_cycles",
    "tlb_l2_cycles",
    "vmm_cycles",
    "guest_fault_cycles",
    "trap_cycles",
)

#: Host-side counters (never part of a guest's RunMetrics): the
#: scheduler's world-switch bill and per-VM vCPU time.
HOST_CYCLE_COUNTERS = ("world_switch_cycles", "cpu_cycles")

#: Prefix naming an explicitly-acknowledged drain: cycles charged to
#: the clock that no reported counter decomposes (e.g. warmup idling).
SINK_PREFIX = "sink:"


def _check_domain(name):
    if name not in TIME_DOMAINS:
        raise ValueError(
            "unknown time domain %r (known: %s)"
            % (name, ", ".join(TIME_DOMAINS)))


def _check_counter(name):
    if name.startswith(SINK_PREFIX):
        if len(name) <= len(SINK_PREFIX):
            raise ValueError("empty sink name in %r" % (name,))
        return
    if name not in CYCLE_COUNTERS and name not in HOST_CYCLE_COUNTERS:
        raise ValueError(
            "unknown cycle counter %r (RunMetrics counters: %s; host "
            "counters: %s; or a %r-prefixed sink)"
            % (name, ", ".join(CYCLE_COUNTERS),
               ", ".join(HOST_CYCLE_COUNTERS), SINK_PREFIX))


def cycles(*return_domain, **param_domains):
    """Declare the time domain of the return value and/or parameters.

    ``@cycles("duration")`` types the return value;
    ``@cycles(now="guest_sim")`` types the named parameter; both forms
    compose in one decorator.
    """
    if len(return_domain) > 1:
        raise ValueError("at most one positional return domain, got %r"
                         % (return_domain,))
    for name in return_domain:
        _check_domain(name)
    for name in param_domains.values():
        _check_domain(name)

    def annotate(fn):
        if return_domain:
            fn.__repro_cycles_returns__ = return_domain[0]
        merged = dict(getattr(fn, "__repro_cycles_params__", ()))
        merged.update(param_domains)
        fn.__repro_cycles_params__ = tuple(sorted(merged.items()))
        return fn

    return annotate


def advances(clock):
    """Declare that this function advances the named clock side."""
    if clock not in CLOCKS:
        raise ValueError("unknown clock %r (advanceable clocks: %s)"
                         % (clock, ", ".join(CLOCKS)))

    def annotate(fn):
        declared = getattr(fn, "__repro_advances__", ())
        fn.__repro_advances__ = declared + (clock,)
        return fn

    return annotate


def charges(*counters):
    """Declare the counters this function's clock advances flow into."""
    if not counters:
        raise ValueError("@charges needs at least one counter name")
    for name in counters:
        _check_counter(name)

    def annotate(fn):
        declared = getattr(fn, "__repro_charges__", ())
        fn.__repro_charges__ = declared + tuple(counters)
        return fn

    return annotate


__all__ = ["TIME_DOMAINS", "CLOCKS", "CYCLE_COUNTERS",
           "HOST_CYCLE_COUNTERS", "SINK_PREFIX", "cycles", "advances",
           "charges"]
