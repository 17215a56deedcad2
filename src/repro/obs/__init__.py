"""repro.obs: structured event tracing, interval time-series, exporters.

The simulator's telemetry layer. Aggregates (``RunMetrics``, the one
counter store) say what a run cost; this subsystem says *when* and
*why* — every VMtrap, page walk, TLB/PWC probe, policy decision, context
switch and guest fault as a typed, timestamped event, plus those same
counters sampled over time.

Quickstart::

    from repro import System, Simulator, sandy_bridge_config
    from repro.obs import IntervalRecorder, Tracer
    from repro.obs.exporters import render_cycle_flame, write_jsonl

    system = System(sandy_bridge_config(mode="agile"))
    tracer, recorder = Tracer(), IntervalRecorder(every=1024)
    system.attach_observability(tracer, recorder)
    metrics = Simulator(system).run(workload)

    with open("run.jsonl", "w") as handle:
        write_jsonl(tracer.events, handle)
    print(render_cycle_flame(metrics))

Or from the command line: ``repro trace <workload> --events out.jsonl``
and ``repro profile <workload> --perfetto out.json``; sweeps take
``--trace-dir`` to capture per-cell telemetry. See docs/observability.md.
"""

from repro.obs.events import (
    ALL_EVENT_KINDS,
    EV_CTX_SWITCH,
    EV_GUEST_FAULT,
    EV_MARK,
    EV_POLICY,
    EV_PWC,
    EV_TLB_HIT,
    EV_VMTRAP,
    EV_WALK,
    MARK_MEASUREMENT_START,
    Event,
    measured_events,
    vmtrap_counts,
)
from repro.obs.interval import IntervalRecorder
from repro.obs.tracer import NULL_TRACER, NullTracer, Tracer

__all__ = [
    "ALL_EVENT_KINDS",
    "EV_CTX_SWITCH",
    "EV_GUEST_FAULT",
    "EV_MARK",
    "EV_POLICY",
    "EV_PWC",
    "EV_TLB_HIT",
    "EV_VMTRAP",
    "EV_WALK",
    "MARK_MEASUREMENT_START",
    "Event",
    "measured_events",
    "vmtrap_counts",
    "IntervalRecorder",
    "NULL_TRACER",
    "NullTracer",
    "Tracer",
]
