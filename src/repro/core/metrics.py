"""Run metrics: the simulator's answer to `perf` + the Table IV model.

``RunMetrics`` carries raw counts plus the derived quantities the paper
reports: execution-time overheads split into page-walk and VMM
components (Figure 5), the degree-of-nesting mix and average memory
references per TLB miss (Table VI).
"""

from repro.hw.walkstats import NESTED_FULL
from repro.vmm import traps as T

# Table VI column order: full shadow, switch after 3/2/1/0 shadow levels,
# full nested. Keys into MMUCounters.walks_by_depth.
TABLE6_COLUMNS = (
    ("Shadow", 0),
    ("L4", 1),
    ("L3", 2),
    ("L2", 3),
    ("L1", 4),
    ("Nested", NESTED_FULL),
)


#: Version of the ``to_dict`` wire format. Bump on any change to its
#: keys or value encodings; ``from_dict`` refuses payloads from other
#: versions so a stale result cache or mixed-version worker pool fails
#: loudly instead of silently misreading counters. Version 2 dropped
#: ``cow_faults``, which no run ever wrote.
METRICS_SCHEMA_VERSION = 2

#: Every scalar count of one run, in wire order: the operation stream,
#: cycles by component, the MMU's hardware counters, and guest faults.
#: The live stores (``System`` itself and ``MMUCounters``) keep these
#: under the same names; ``System.snapshot``, ``System.reset_counters``,
#: the interval rows and the wire format all loop over this one tuple.
COUNTS = (
    "ops",
    "reads",
    "writes",
    "total_cycles",
    "ideal_cycles",
    "walk_cycles",
    "tlb_l2_cycles",
    "vmm_cycles",
    "guest_fault_cycles",
    "tlb_hits_l1",
    "tlb_hits_l2",
    "tlb_misses",
    "walk_refs",
    "fault_refs",
    "guest_faults",
)

#: The per-key tables: walks per degree of nesting (Table VI), and
#: VMtrap counts and attributed cycles per trap kind.
TABLES = ("walks_by_depth", "trap_counts", "trap_cycles")


class RunMetrics:
    """Everything measured during one simulated run.

    Keyword arguments name entries of :data:`COUNTS` and :data:`TABLES`;
    the rest start at zero (or empty). A table may be given as a mapping
    or as ``(key, value)`` pairs.
    """

    def __init__(self, label, mode, page_size, **values):
        unknown = set(values).difference(COUNTS, TABLES)
        if unknown:
            raise TypeError("unknown RunMetrics counters: %s"
                            % ", ".join(sorted(unknown)))
        self.label = label
        self.mode = mode
        self.page_size = page_size
        for name in COUNTS:
            setattr(self, name, values.get(name, 0))
        for name in TABLES:
            setattr(self, name, dict(values.get(name, ())))

    def counts(self):
        """The scalar counts by name, in :data:`COUNTS` order."""
        return {name: getattr(self, name) for name in COUNTS}

    # -- derived quantities (the paper's reporting) --------------------------

    @property
    def vmtraps(self):
        return sum(self.trap_counts.get(k, 0) for k in T.ALL_TRAP_KINDS)

    @property
    def page_walk_overhead(self):
        """Figure 5 bottom bar: page-walk cycles / ideal cycles.

        L2-TLB hit latency is excluded, matching the paper's use of the
        WALK_DURATION performance counters (STLB hits are part of the
        memory-system baseline, not of walk overhead).
        """
        if not self.ideal_cycles:
            return 0.0
        return self.walk_cycles / self.ideal_cycles

    @property
    def vmm_overhead(self):
        """Figure 5 top bar: VMM intervention cycles / ideal cycles."""
        if not self.ideal_cycles:
            return 0.0
        return self.vmm_cycles / self.ideal_cycles

    @property
    def total_overhead(self):
        if not self.ideal_cycles:
            return 0.0
        return (self.total_cycles - self.ideal_cycles) / self.ideal_cycles

    @property
    def avg_refs_per_miss(self):
        """Table VI right column: average memory accesses per TLB miss."""
        if not self.tlb_misses:
            return 0.0
        return self.walk_refs / self.tlb_misses

    @property
    def miss_rate_per_kop(self):
        if not self.ops:
            return 0.0
        return 1000.0 * self.tlb_misses / self.ops

    def mode_mix(self):
        """Fraction of TLB misses served at each degree of nesting.

        Only meaningful for agile-mode runs (Table VI); other modes
        return an empty dict.
        """
        total = sum(self.walks_by_depth.values())
        if not total:
            return {}
        return {
            name: self.walks_by_depth.get(key, 0) / total
            for name, key in TABLE6_COLUMNS
        }

    # -- serialization (result cache / pool workers) --------------------------

    def to_dict(self):
        """Full-fidelity, JSON-safe form: every raw counter, no rounding.

        ``from_dict(to_dict(m))`` reproduces ``m`` exactly (ints and
        floats bit-identical), which is what lets the sweep runner treat
        cached, serial, and pool-worker results interchangeably.
        ``walks_by_depth`` is stored as sorted pairs because its keys mix
        ints with the :data:`NESTED_FULL` sentinel string.
        """
        payload = {
            "schema_version": METRICS_SCHEMA_VERSION,
            "label": self.label,
            "mode": self.mode,
            "page_size": str(self.page_size),
        }
        payload.update(self.counts())
        for name in TABLES:
            payload[name] = dict(getattr(self, name))
        payload["walks_by_depth"] = sorted(
            ([key, count] for key, count in self.walks_by_depth.items()),
            key=lambda pair: str(pair[0]))
        return payload

    @classmethod
    def from_dict(cls, data):
        """Rebuild a :class:`RunMetrics` from its :meth:`to_dict` form.

        Raises ``ValueError`` on any other ``schema_version`` — payloads
        written before versioning (no key) are version 1.
        """
        from repro.common.params import PAGE_SIZES

        version = data.get("schema_version", 1)
        if version != METRICS_SCHEMA_VERSION:
            raise ValueError(
                "RunMetrics payload has schema_version %r but this build "
                "reads version %d; clear the result cache (or regenerate "
                "the payload) and retry" % (version, METRICS_SCHEMA_VERSION))
        return cls(data["label"], data["mode"], PAGE_SIZES[data["page_size"]],
                   **{name: data[name] for name in COUNTS + TABLES})

    def summary(self):
        """A compact dict for reports and benchmarks."""
        return {
            "label": self.label,
            "mode": self.mode,
            "page_size": str(self.page_size),
            "ops": self.ops,
            "tlb_misses": self.tlb_misses,
            "avg_refs_per_miss": round(self.avg_refs_per_miss, 2),
            "vmtraps": self.vmtraps,
            "page_walk_overhead": round(self.page_walk_overhead, 4),
            "vmm_overhead": round(self.vmm_overhead, 4),
            "total_overhead": round(self.total_overhead, 4),
        }

    def __repr__(self):
        return "RunMetrics(%r)" % (self.summary(),)
