"""The metrics registry: typed counters, gauges, and histograms.

``RunMetrics`` is the simulator's *result* — what one measured run
cost, bit-identical across execution paths. This module is the *meta*
layer: cheap instrumentation of the harness and the hot paths themselves
(walker refs histograms, TLB/PWC occupancy, runner throughput), feeding
dashboards and the ``repro bench`` regression harness rather than the
paper's tables.

The design mirrors the tracer's null-object contract exactly:

* :class:`NullMetrics` — the default wired into every component. Its
  :attr:`enabled` class attribute is False and every recording method
  is a no-op, so hot paths guard with one attribute load + branch::

      m = self.metrics
      if m.enabled:
          m.observe("walker.refs", refs)

  That guard is the entire cost when metrics are off
  (``benchmarks/bench_obs_overhead.py`` enforces the ≤2% bound).

* :class:`MetricsRegistry` — the live implementation: a flat namespace
  of named instruments created on first use.

Snapshots (:class:`MetricsSnapshot`) are the unit of transport: a
JSON-safe, schema-versioned, *mergeable* summary of a registry. Sweep
shards and fuzz-campaign shards each produce one; ``merge`` folds any
number of them into fleet totals. Merge semantics:

* counters add,
* histograms add bucket-wise (bucket bounds must match exactly),
* gauges keep the maximum observed value (a high-water mark — the only
  order-independent choice for last-sampled values).

All three are associative and commutative, so ``merge(merge(a, b), c)``
equals ``merge(a, merge(b, c))`` — shard arrival order never matters
(``tests/obs/test_metrics.py`` proves it).

This module sits at layer 0 (see ``repro.lint.flow.layers``): pure
stdlib, no repro imports, so ``hw``/``core``/``runner`` may all hold a
registry without inverting the architecture.
"""

#: Version of the snapshot wire format. Bump on any change to its keys
#: or value encodings; ``from_dict`` refuses other versions so stale
#: BENCH baselines and mixed-version shard pools fail loudly.
METRICS_SNAPSHOT_SCHEMA_VERSION = 1

#: Default histogram bucket upper bounds (a final +inf bucket is
#: implicit). Tuned for walk-reference counts: native walks cost 4,
#: full nested walks 24.
DEFAULT_BUCKETS = (1, 2, 4, 8, 16, 24, 32)


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name):
        self.name = name
        self.value = 0

    def inc(self, amount=1):
        self.value += amount

    def __repr__(self):
        return "Counter(%s=%r)" % (self.name, self.value)


class Gauge:
    """A last-sampled level (occupancy, rate); merges as a high-water mark."""

    __slots__ = ("name", "value")

    def __init__(self, name):
        self.name = name
        self.value = 0

    def set(self, value):
        self.value = value

    def __repr__(self):
        return "Gauge(%s=%r)" % (self.name, self.value)


class Histogram:
    """A fixed-bucket distribution; bucket ``i`` counts values <= bounds[i].

    The final (implicit) bucket counts values above the last bound.
    Fixed bounds are what make histograms mergeable across processes:
    two histograms with identical bounds add bucket-wise with no loss.
    """

    __slots__ = ("name", "bounds", "counts", "count", "total", "min", "max")

    def __init__(self, name, bounds=DEFAULT_BUCKETS):
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError("histogram bounds must be a sorted, non-empty "
                             "sequence, got %r" % (bounds,))
        self.name = name
        self.bounds = tuple(bounds)
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0
        self.min = None
        self.max = None

    def observe(self, value):
        i = 0
        for bound in self.bounds:
            if value <= bound:
                break
            i += 1
        self.counts[i] += 1
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self):
        return self.total / self.count if self.count else 0.0

    def __repr__(self):
        return "Histogram(%s, n=%d, mean=%.2f)" % (
            self.name, self.count, self.mean)


class _NullInstrument:
    """Accepts every instrument method as a no-op (the off path)."""

    __slots__ = ()

    def inc(self, amount=1):
        pass

    def set(self, value):
        pass

    def observe(self, value):
        pass


#: Shared no-op instrument; stateless, so one instance serves everyone.
NULL_INSTRUMENT = _NullInstrument()


class NullMetrics:
    """The do-nothing registry every component holds by default.

    Also the interface definition: :class:`MetricsRegistry` overrides
    every method, so code may call any of them unconditionally — but hot
    paths should guard on :attr:`enabled` to skip name lookups and
    argument construction entirely.
    """

    enabled = False

    def counter(self, name):
        return NULL_INSTRUMENT

    def gauge(self, name):
        return NULL_INSTRUMENT

    def histogram(self, name, bounds=DEFAULT_BUCKETS):
        return NULL_INSTRUMENT

    def inc(self, name, amount=1):
        """Increment the counter ``name``."""

    def set_gauge(self, name, value):
        """Set the gauge ``name``."""

    def observe(self, name, value, bounds=DEFAULT_BUCKETS):
        """Record ``value`` into the histogram ``name``."""

    def snapshot(self):
        return MetricsSnapshot()


#: The shared null instance; safe to share because it has no state.
NULL_METRICS = NullMetrics()


class MetricsRegistry(NullMetrics):
    """A live, typed namespace of instruments, created on first use.

    One registry per measurement scope (a system, a sweep, a bench run).
    A name is permanently typed by its first use; re-registering it as a
    different instrument kind raises, so ``runner.sim_ops`` can
    never silently be a counter in one shard and a gauge in another.
    """

    enabled = True

    def __init__(self):
        self._counters = {}
        self._gauges = {}
        self._histograms = {}

    # -- instrument access (get-or-create) --------------------------------

    def counter(self, name):
        counter = self._counters.get(name)
        if counter is None:
            self._check_untyped(name)
            counter = self._counters[name] = Counter(name)
        return counter

    def gauge(self, name):
        gauge = self._gauges.get(name)
        if gauge is None:
            self._check_untyped(name)
            gauge = self._gauges[name] = Gauge(name)
        return gauge

    def histogram(self, name, bounds=DEFAULT_BUCKETS):
        histogram = self._histograms.get(name)
        if histogram is None:
            self._check_untyped(name)
            histogram = self._histograms[name] = Histogram(name, bounds)
        elif histogram.bounds != tuple(bounds):
            raise ValueError(
                "histogram %r already registered with bounds %r, got %r"
                % (name, histogram.bounds, tuple(bounds)))
        return histogram

    def _check_untyped(self, name):
        for kind, table in (("counter", self._counters),
                            ("gauge", self._gauges),
                            ("histogram", self._histograms)):
            if name in table:
                raise ValueError("metric %r is already registered as a %s"
                                 % (name, kind))

    # -- convenience recording --------------------------------------------

    def inc(self, name, amount=1):
        self.counter(name).inc(amount)

    def set_gauge(self, name, value):
        self.gauge(name).set(value)

    def observe(self, name, value, bounds=DEFAULT_BUCKETS):
        self.histogram(name, bounds).observe(value)

    # -- snapshot / merge ---------------------------------------------------

    def snapshot(self):
        """A JSON-safe, mergeable :class:`MetricsSnapshot` of this registry."""
        snap = MetricsSnapshot()
        for name, counter in self._counters.items():
            snap.counters[name] = counter.value
        for name, gauge in self._gauges.items():
            snap.gauges[name] = gauge.value
        for name, histogram in self._histograms.items():
            snap.histograms[name] = {
                "bounds": list(histogram.bounds),
                "counts": list(histogram.counts),
                "count": histogram.count,
                "total": histogram.total,
                "min": histogram.min,
                "max": histogram.max,
            }
        return snap

    def merge_snapshot(self, snap):
        """Fold a shipped :class:`MetricsSnapshot` into this registry.

        The inverse of :meth:`snapshot`: a worker records locally, ships
        its snapshot over the process boundary, and the parent folds it
        in. Same semantics as :meth:`MetricsSnapshot.merge`.
        """
        for name, value in snap.counters.items():
            self.counter(name).inc(value)
        for name, value in snap.gauges.items():
            gauge = self.gauge(name)
            if value > gauge.value:
                gauge.set(value)
        for name, data in snap.histograms.items():
            histogram = self.histogram(name, tuple(data["bounds"]))
            if list(histogram.bounds) != list(data["bounds"]):
                raise ValueError(
                    "histogram %r bounds mismatch: %r vs %r"
                    % (name, histogram.bounds, data["bounds"]))
            for i, count in enumerate(data["counts"]):
                histogram.counts[i] += count
            histogram.count += data["count"]
            histogram.total += data["total"]
            if data["min"] is not None and (histogram.min is None
                                            or data["min"] < histogram.min):
                histogram.min = data["min"]
            if data["max"] is not None and (histogram.max is None
                                            or data["max"] > histogram.max):
                histogram.max = data["max"]

    def reset(self):
        """Zero every instrument (names and types are kept)."""
        for counter in self._counters.values():
            counter.value = 0
        for gauge in self._gauges.values():
            gauge.value = 0
        for histogram in self._histograms.values():
            histogram.counts = [0] * (len(histogram.bounds) + 1)
            histogram.count = 0
            histogram.total = 0
            histogram.min = None
            histogram.max = None


class MetricsSnapshot:
    """The transport form of a registry: JSON-safe, versioned, mergeable."""

    __slots__ = ("counters", "gauges", "histograms")

    def __init__(self, counters=None, gauges=None, histograms=None):
        self.counters = dict(counters or {})
        self.gauges = dict(gauges or {})
        self.histograms = dict(histograms or {})

    def merge(self, other):
        """A new snapshot combining both operands (self is unchanged).

        Counters add; histograms add bucket-wise (bounds must match);
        gauges keep the maximum. Associative and commutative, so shards
        may be folded in any order.
        """
        merged = MetricsSnapshot(self.counters, self.gauges,
                                 {name: dict(data)
                                  for name, data in self.histograms.items()})
        for name, value in other.counters.items():
            merged.counters[name] = merged.counters.get(name, 0) + value
        for name, value in other.gauges.items():
            merged.gauges[name] = max(merged.gauges.get(name, value), value)
        for name, data in other.histograms.items():
            mine = merged.histograms.get(name)
            if mine is None:
                merged.histograms[name] = dict(data)
                continue
            if list(mine["bounds"]) != list(data["bounds"]):
                raise ValueError(
                    "cannot merge histogram %r: bounds %r vs %r"
                    % (name, mine["bounds"], data["bounds"]))
            mine["counts"] = [a + b
                              for a, b in zip(mine["counts"], data["counts"])]
            mine["count"] = mine["count"] + data["count"]
            mine["total"] = mine["total"] + data["total"]
            mins = [v for v in (mine["min"], data["min"]) if v is not None]
            maxes = [v for v in (mine["max"], data["max"]) if v is not None]
            mine["min"] = min(mins) if mins else None
            mine["max"] = max(maxes) if maxes else None
        return merged

    # -- serialization (bench reports / shard summaries) --------------------

    def to_dict(self):
        """Full-fidelity JSON form; ``from_dict`` round-trips it exactly."""
        return {
            "schema_version": METRICS_SNAPSHOT_SCHEMA_VERSION,
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {name: dict(data)
                           for name, data in self.histograms.items()},
        }

    @classmethod
    def from_dict(cls, data):
        """Rebuild a snapshot; raises ``ValueError`` on a foreign schema."""
        version = data.get("schema_version", 1)
        if version != METRICS_SNAPSHOT_SCHEMA_VERSION:
            raise ValueError(
                "metrics snapshot has schema_version %r but this build reads "
                "version %d; regenerate the snapshot and retry"
                % (version, METRICS_SNAPSHOT_SCHEMA_VERSION))
        return cls(counters=data["counters"], gauges=data["gauges"],
                   histograms=data["histograms"])

    def __eq__(self, other):
        if not isinstance(other, MetricsSnapshot):
            return NotImplemented
        return (self.counters == other.counters
                and self.gauges == other.gauges
                and self.histograms == other.histograms)

    def __repr__(self):
        return ("MetricsSnapshot(%d counters, %d gauges, %d histograms)"
                % (len(self.counters), len(self.gauges),
                   len(self.histograms)))
