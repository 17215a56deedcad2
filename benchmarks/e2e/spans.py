"""Outside-in span tracing for the end-to-end benchmark.

The simulator is not instrumented for host time, so the benchmark times
each layer from outside: :meth:`SpanTracer.span` returns a wrapper that
records one span per call, and :mod:`cells` installs such wrappers on the
public entry points of a built ``System`` (instance attributes) or, for
page tables created while the run goes on, on the class itself.

A span's *self time* is its duration minus the time covered by the spans
it called. Spans are aggregated in memory per (name, phase) and read once
at the end; nothing is written while the simulation runs. The phase
flips from ``setup`` to ``measure`` when :meth:`mark_measurement` is
called, which the benchmark does from ``System.reset_counters``.

Each wrapper costs host time of its own. :meth:`calibrate` measures that
cost once and splits it into the part that falls inside the span's timed
interval (subtracted from the span's self time) and the part outside it
(charged to the parent as child time), so self times estimate what the
layer costs without tracing.
"""

import time

#: Offsets into a span's stats record: a ``[calls, self_s]`` pair per
#: phase, then the number of calls that raised.
SETUP = 0
MEASURE = 2
RAISED = 4

#: Wrapped calls per calibration loop, and loops timed (best one kept).
CALIBRATION_CALLS = 50_000
CALIBRATION_REPEATS = 5

_clock = time.perf_counter


class SpanTracer:
    """Span stack plus per-(name, phase) aggregates for one process."""

    def __init__(self, names=()):
        """``names`` are reported even if they record no call."""
        self.stats = {}
        for name in names:
            self._record(name)
        self.phase = [SETUP]
        # Open spans, innermost last: [child_s, start, record].
        self._stack = []
        # Calibrated wrapper cost in seconds: [inside, outside] the
        # interval a span times. Zero until calibrate() runs.
        self._cost = [0.0, 0.0]

    # -- recording -------------------------------------------------------

    def _record(self, name):
        record = self.stats.get(name)
        if record is None:
            record = self.stats[name] = [0, 0.0, 0, 0.0, 0]
        return record

    def span(self, name, func):
        """``func`` wrapped so that every call records one span ``name``."""
        record = self._record(name)
        stack = self._stack
        phase = self.phase
        cost = self._cost
        clock = _clock

        def close(frame):
            duration = clock() - frame[1]
            stack.pop()
            offset = phase[0]
            record[offset] += 1
            record[offset + 1] += duration - frame[0] - cost[0]
            if stack:
                stack[-1][0] += duration + cost[1]

        def wrapper(*args, **kwargs):
            frame = [0.0, clock(), record]
            stack.append(frame)
            try:
                result = func(*args, **kwargs)
            except BaseException:
                record[RAISED] += 1
                close(frame)
                raise
            # close(frame), inlined: this path runs once per traced call.
            duration = clock() - frame[1]
            stack.pop()
            offset = phase[0]
            record[offset] += 1
            record[offset + 1] += duration - frame[0] - cost[0]
            if stack:
                stack[-1][0] += duration + cost[1]
            return result

        return wrapper

    def enter_setup(self):
        """Start a new cell: spans count as setup until the next mark."""
        self.phase[0] = SETUP

    def mark_measurement(self):
        """Switch to the measure phase, splitting every open span.

        Open spans bank their self time so far into the setup phase and
        restart their clock; their calls count in the phase they end in.
        Frames are flushed innermost first so each parent sees the
        elapsed time of the child it is waiting on.
        """
        now = _clock()
        child = 0.0
        for frame in reversed(self._stack):
            elapsed = now - frame[1]
            record = frame[2]
            record[SETUP + 1] += elapsed - frame[0] - child
            child = elapsed
            frame[0] = 0.0
            frame[1] = now
        self.phase[0] = MEASURE

    # -- calibration -----------------------------------------------------

    def calibrate(self):
        """Measure the wrapper's own cost per call.

        Times an empty loop, a loop of plain calls and a loop of wrapped
        calls (the best of several each), and reads the mean duration the
        wrapped calls recorded. The wrapper's cost is wrapped minus plain;
        the part inside the timed interval is that mean duration minus
        the bare call.
        """
        def target(a, b, c):
            return None

        wrapped = self.span("_calibration", target)
        record = self.stats["_calibration"]
        loops = range(CALIBRATION_CALLS)

        def best(body):
            times = []
            for _ in range(CALIBRATION_REPEATS):
                start = _clock()
                body()
                times.append(_clock() - start)
            return min(times) / CALIBRATION_CALLS

        def empty():
            for _ in loops:
                pass

        def plain():
            for _ in loops:
                target(1, 2, 3)

        def traced():
            for _ in loops:
                wrapped(1, 2, 3)

        self._stack.append([0.0, _clock(), [0] * 5])
        try:
            loop_s = best(empty)
            plain_s = best(plain)
            traced_s = best(traced)
            inside = record[SETUP + 1] / record[SETUP] - (plain_s - loop_s)
        finally:
            self._stack.pop()
            del self.stats["_calibration"]
        total = max(0.0, traced_s - plain_s)
        inside = min(max(0.0, inside), total)
        self._cost[0] = inside
        self._cost[1] = total - inside

    @property
    def span_cost_s(self):
        """Calibrated wrapper cost per span, in seconds."""
        return self._cost[0] + self._cost[1]

    # -- installation ----------------------------------------------------

    def wrap_instance(self, obj, attr, name):
        """Replace the bound method ``obj.attr`` by a span wrapper."""
        setattr(obj, attr, self.span(name, getattr(obj, attr)))

    def wrap_class(self, cls, attrs, name):
        """Wrap methods on ``cls`` itself; returns an undo callable.

        For objects created while the run goes on (page tables), which
        no instance-level wrapper can reach in advance.
        """
        originals = {attr: cls.__dict__[attr] for attr in attrs}
        for attr, func in originals.items():
            setattr(cls, attr, self.span(name, func))

        def undo():
            for attr, func in originals.items():
                setattr(cls, attr, func)

        return undo

    # -- results ---------------------------------------------------------

    def snapshot(self):
        """Per span name: calls and self seconds, per phase and in total,
        and the calls that raised. No span may be open."""
        if self._stack:
            raise RuntimeError("snapshot with %d open spans" % len(self._stack))
        result = {}
        for name, record in sorted(self.stats.items()):
            entry = {"raised": record[RAISED]}
            for phase, offset in (("setup", SETUP), ("measure", MEASURE)):
                entry[phase + "_calls"] = record[offset]
                entry[phase + "_self_s"] = record[offset + 1]
            for field in ("calls", "self_s"):
                entry[field] = entry["setup_" + field] + entry["measure_" + field]
            result[name] = entry
        return result
