"""Observability overhead: tracing off must be (nearly) free.

The null-object contract says an instrumented simulator with
``NULL_TRACER`` attached costs one attribute load and a branch per
would-be event. This harness times the same seeded dedup/agile
``Simulator`` run under three observability configurations —

* **baseline**     — plain construction, no observability arguments;
* **tracing off**  — explicit ``attach_observability()`` with the
  defaults (``NULL_TRACER``, no recorder), i.e. the instrumented hot
  paths with every guard false;
* **tracing on**   — a full ``Tracer`` + ``IntervalRecorder``;

and enforces the acceptance bound: tracing-off wall time within 2 % of
baseline (with a small absolute floor so sub-millisecond timing jitter
on tiny ``--ops`` runs cannot flake the target). Full tracing is
reported for scale but has no bound — materializing events is the price
of the data. Every configuration must leave ``RunMetrics`` identical.
"""

import time

from repro.analysis.experiments import DEFAULT_OPS
from repro.bench import bench_target
from repro.common.config import sandy_bridge_config
from repro.core.machine import System
from repro.core.simulator import Simulator
from repro.obs import IntervalRecorder, Tracer
from repro.workloads.suite import DedupLike
from repro.analysis.tables import format_table

from _util import emit, pct

#: Acceptance bound for observability-off overhead (ISSUE: <= 2%).
MAX_OFF_OVERHEAD = 0.02
#: Jitter floor: differences under this many seconds are noise.
ABS_FLOOR_SECONDS = 0.05
#: Best-of-N timing to shed scheduler noise.
TIMING_ROUNDS = 3

#: The configurations under test. Each attach callable receives the
#: freshly built system (None = baseline); every call builds fresh
#: observability objects, so no round inherits another's events.
def _configs():
    tracer, recorder = Tracer(), IntervalRecorder(every=1024)
    return (
        ("baseline", None),
        ("tracing_off", lambda s: s.attach_observability()),
        ("tracing_on",
         lambda s: s.attach_observability(tracer=tracer, recorder=recorder)),
    )


def _timed(ops, attach=None):
    """Wall time and metrics of one seeded dedup/agile Simulator run."""
    system = System(sandy_bridge_config(mode="agile"))
    if attach is not None:
        attach(system)
    workload = DedupLike(seed=7, ops=ops)
    begin = time.perf_counter()
    metrics = Simulator(system).run(workload)
    return time.perf_counter() - begin, metrics


def _check(timings):
    """The invariants ``repro bench obs_overhead`` asserts."""
    baseline_s, baseline = timings["baseline"]
    # Instrumentation must never perturb results, on or off.
    for label, (_s, metrics) in timings.items():
        assert metrics.to_dict() == baseline.to_dict(), label
    # The acceptance bound, with an absolute jitter floor.
    seconds, _metrics = timings["tracing_off"]
    overhead = (seconds - baseline_s) / baseline_s
    assert (seconds - baseline_s <= ABS_FLOOR_SECONDS
            or overhead <= MAX_OFF_OVERHEAD), (
        "tracing_off overhead %s exceeds %s"
        % (pct(overhead), pct(MAX_OFF_OVERHEAD)))


def _rows(timings):
    baseline_s, _ = timings["baseline"]
    rows = [("baseline", "%.3f" % baseline_s, "—")]
    for label, (seconds, _metrics) in timings.items():
        if label == "baseline":
            continue
        rows.append((label.replace("_", " "), "%.3f" % seconds,
                     pct((seconds - baseline_s) / baseline_s)))
    return rows


def _run(ops):
    """Time and check every configuration; returns ``{label: (s, m)}``.

    Best-of-``TIMING_ROUNDS``, interleaved: each round times every
    configuration once, the order rotating by one per round, so no
    configuration always runs first and absorbs the process's
    first-run costs.
    """
    timings = {}
    for round_index in range(TIMING_ROUNDS):
        configs = _configs()
        shift = round_index % len(configs)
        for label, attach in configs[shift:] + configs[:shift]:
            seconds, metrics = _timed(ops, attach)
            if label not in timings or seconds < timings[label][0]:
                timings[label] = (seconds, metrics)
    _check(timings)
    return timings


@bench_target("obs_overhead", output="BENCH_obs_overhead.json")
def bench(ctx):
    """Per-configuration overheads against the 2% bound."""
    ops = ctx.ops(DEFAULT_OPS)
    timings = _run(ops)
    emit("obs_overhead", format_table(
        ("Configuration", "best-of-%d s" % TIMING_ROUNDS, "vs baseline"),
        _rows(timings),
        title=("Observability overhead — dedup/agile, "
               "%d ops (acceptance: off <= %s)"
               % (ops, pct(MAX_OFF_OVERHEAD))),
    ))
    baseline_s, _ = timings["baseline"]
    return {
        "ops": ops,
        "bound": MAX_OFF_OVERHEAD,
        "baseline_seconds": baseline_s,
        "overheads": {
            label: (seconds - baseline_s) / baseline_s
            for label, (seconds, _m) in timings.items()
            if label != "baseline"},
    }
