"""The typed event taxonomy of the tracing subsystem.

Every instrumentation point in the simulator emits one of these kinds.
An :class:`Event` is deliberately tiny and JSON-safe: a kind, a begin
timestamp in simulated cycles, a duration in cycles (0 for instants),
and a flat ``data`` dict of scalars. Timestamps come exclusively from
the simulated :class:`repro.common.clock.Clock`, never from wall time,
so two runs of the same seeded workload produce byte-identical streams
(the trace-determinism contract the differential harness asserts).

Taxonomy (mirrors the paper's cost accounting):

=================  =========================================================
kind               emitted by / meaning
=================  =========================================================
``vmtrap``         every :meth:`TrapStats.record` — VMexits *and* the
                   hardware-assist / background-work kinds, with the trap
                   kind and its attributed cycles as the duration
``walk``           every completed hardware page walk (= every TLB miss):
                   mode, memory references, degree of nesting, page shift
``tlb_hit``        an L1/L2 TLB hit (the fast path the walk events skip)
``pwc``            a guest- or host-side PWC probe: structure, hit
``policy``         a Section III-C policy decision: shadow→nested switch,
                   nested→shadow reversion, short-lived promotion, SHSP
                   technique switch — with the subtree level where known
``ctx_switch``     a guest context switch (CR3 write), old/new pid
``guest_fault``    a guest page fault resolved by the guest OS
``vm_switch``      a cross-VM world switch on a consolidated host
                   (``repro.host``): old/new vm id, with the charged
                   world-switch cycles as the duration
``balloon``        a balloon/reclaim episode: the victim VM, frames
                   revoked, and the requesting VM under pressure
``mark``           a named point in the run; ``measurement_start`` is
                   emitted by ``System.reset_counters`` and separates
                   warmup from the measured window
=================  =========================================================
"""

import json

EV_VMTRAP = "vmtrap"
EV_WALK = "walk"
EV_TLB_HIT = "tlb_hit"
EV_PWC = "pwc"
EV_POLICY = "policy"
EV_CTX_SWITCH = "ctx_switch"
EV_GUEST_FAULT = "guest_fault"
EV_VM_SWITCH = "vm_switch"
EV_BALLOON = "balloon"
EV_MARK = "mark"

ALL_EVENT_KINDS = (
    EV_VMTRAP,
    EV_WALK,
    EV_TLB_HIT,
    EV_PWC,
    EV_POLICY,
    EV_CTX_SWITCH,
    EV_GUEST_FAULT,
    EV_VM_SWITCH,
    EV_BALLOON,
    EV_MARK,
)

#: The mark name System.reset_counters emits; events after the last such
#: mark belong to the measured window that RunMetrics reports.
MARK_MEASUREMENT_START = "measurement_start"

#: Policy-decision directions (the ``data["direction"]`` values).
POLICY_TO_NESTED = "shadow_to_nested"
POLICY_TO_SHADOW = "nested_to_shadow"
POLICY_PROMOTE = "enable_shadow"
POLICY_SHSP_SWITCH = "shsp_switch"


class Event:
    """One traced occurrence: ``(kind, ts, dur, data)``.

    ``ts`` is the simulated-cycle begin time; ``dur`` the attributed
    cycles (0 for instantaneous events); ``data`` a flat dict of JSON
    scalars specific to the kind.
    """

    __slots__ = ("kind", "ts", "dur", "data")

    def __init__(self, kind, ts, dur=0, data=None):
        self.kind = kind
        self.ts = ts
        self.dur = dur
        self.data = data if data is not None else {}

    def as_dict(self):
        """A JSON-safe dict with a stable shape (all four keys, always)."""
        return {"kind": self.kind, "ts": self.ts, "dur": self.dur,
                "data": self.data}

    @classmethod
    def from_dict(cls, payload):
        return cls(payload["kind"], payload["ts"], payload.get("dur", 0),
                   payload.get("data") or {})

    def to_json(self):
        """One canonical JSONL line (sorted keys, no whitespace)."""
        return json.dumps(self.as_dict(), sort_keys=True,
                          separators=(",", ":"))

    def __repr__(self):
        return "Event(%s, ts=%d, dur=%d, %r)" % (self.kind, self.ts,
                                                 self.dur, self.data)


def measured_events(events):
    """The sub-stream after the last ``measurement_start`` mark.

    When no such mark exists (a workload that never called
    ``start_measurement``) the whole stream is returned, matching how
    ``RunMetrics`` then covers the whole run.
    """
    start = 0
    for index, event in enumerate(events):
        if (event.kind == EV_MARK
                and event.data.get("name") == MARK_MEASUREMENT_START):
            start = index + 1
    return events[start:]


def vmtrap_counts(events, measured_only=True):
    """Per-kind VMtrap event counts, mirroring ``RunMetrics.trap_counts``.

    With ``measured_only`` (the default) only events after the last
    measurement mark are counted — exactly the window ``TrapStats``
    describes after ``reset_counters`` — so for any run the returned
    dict equals the run's ``RunMetrics.trap_counts``.
    """
    stream = measured_events(events) if measured_only else events
    counts = {}
    for event in stream:
        if event.kind == EV_VMTRAP:
            trap_kind = event.data["trap"]
            counts[trap_kind] = counts.get(trap_kind, 0) + 1
    return counts
