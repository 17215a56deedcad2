"""Interval time-series: the RunMetrics counts sampled over time.

``RunMetrics`` answers *how much* a run cost; the interval recorder
answers *when*. Every ``every`` operations (rounded up to the policy
epoch the simulator already runs, so sampling adds no per-op work) it
takes a ``System.snapshot`` and keeps its scalar counts as one row.
Figure-5-style overheads then become plottable over time: the agile
policy's convergence, the short-lived-process grace period, and trap
storms all show up as slope changes instead of disappearing into
end-of-run aggregates.

Rows store *cumulative* values; :meth:`IntervalRecorder.deltas` derives
per-interval rates. Both forms are JSON-safe lists of dicts.
"""


class IntervalRecorder:
    """Samples the live system's counters into a time-series.

    ``every`` is the nominal sampling period in operations; actual
    samples land on the first policy epoch at or past each multiple
    (the simulator's epoch is 256 ops), so the series is deterministic
    for a given run regardless of host conditions.
    """

    def __init__(self, every=1024):
        if every <= 0:
            raise ValueError("sampling interval must be positive")
        self.every = every
        self.rows = []
        self._last_op = 0

    def __len__(self):
        return len(self.rows)

    def note_reset(self, system):
        """Counters were zeroed (measurement start): restart the deltas.

        A boundary row is recorded so the series marks where the
        measured window begins.
        """
        self._last_op = 0
        self.sample(system, boundary=True)

    def maybe_sample(self, system):
        """Sample iff ``every`` ops have elapsed since the last sample."""
        if system.ops - self._last_op >= self.every:
            self.sample(system)

    def sample(self, system, boundary=False):
        """Record one row of cumulative counters from the live system.

        A row is ``op``, ``cycle`` (the clock's reading), ``vmtraps``, and
        every scalar count of ``system.snapshot()``.
        """
        self._last_op = system.ops
        metrics = system.snapshot()
        row = {"op": system.ops, "cycle": system.clock.now,
               "vmtraps": metrics.vmtraps}
        row.update(metrics.counts())
        if boundary:
            row["boundary"] = True
        self.rows.append(row)

    def deltas(self):
        """Per-interval rows: the difference between adjacent samples.

        Rows following a boundary (counter reset) restart from zero, so
        deltas never go negative across ``start_measurement``.
        """
        out = []
        prev = None
        for row in self.rows:
            if row.get("boundary") or prev is None:
                prev = row
                continue
            delta = {"op": row["op"], "cycle": row["cycle"]}
            for key, value in row.items():
                if key in ("op", "cycle", "boundary"):
                    continue
                delta[key] = value - prev.get(key, 0)
            out.append(delta)
            prev = row
        return out

    def to_rows(self):
        """The raw cumulative rows (JSON-safe; stable key order on dump)."""
        return list(self.rows)
