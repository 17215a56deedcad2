"""The Table V workload suite, scaled for a functional simulator.

Eight synthetic workloads reproduce the *qualitative* profile of the
paper's suite — the ratio of TLB-miss traffic to page-table-update
traffic that determines which paging technique wins:

===========  ==========  =====================================================
Workload     Paper size  Scaled behaviour reproduced here
===========  ==========  =====================================================
memcached    75 GB       Zipf key lookups + slab churn + eviction pressure
canneal      780 MB      uniform random swap traffic, almost no PT updates
astar        350 MB      pointer chasing with a hot core, few updates
gcc          885 MB      allocation churn and short-lived child processes
graph500     73 GB       read-mostly BFS sweeps over a big footprint
mcf          1.7 GB      cold pointer chasing, the worst TLB behaviour
tigr         610 MB      long sequential scans + random index probes
dedup        1.4 GB      pipeline stages + content-based sharing: dedup
                         passes then COW-breaking writes (PT-update storm)
===========  ==========  =====================================================

Methodology notes (also in DESIGN.md):

* Footprints are scaled from GBs to MBs while keeping the Table III TLB
  geometry; each workload mixes a TLB-resident hot set with a calibrated
  cold fraction so steady-state miss rates land in the realistic
  0.2%–2.5%-of-accesses range the paper's native overheads imply.
* Each workload populates its memory (and lets the agile policies
  settle) before ``start_measurement``, mirroring how multi-minute runs
  amortize their setup phase.
* OS churn (mmap/munmap, forks, dedup passes, reclaim) is sparse per
  operation — as it is in reality, where VMtraps cost thousands of
  cycles yet shadow-paging overhead tops out around 57% (dedup).
"""

from itertools import repeat

import numpy as np

from repro.workloads.base import Workload
from repro.workloads.generators import (
    MixtureSampler,
    PointerChase,
    SequentialScanner,
    UniformSampler,
    ZipfSampler,
)

MB = 1 << 20
BATCH = 512


class SuiteWorkload(Workload):
    """Common skeleton: setup + warm + settle, then a measured loop."""

    footprint_mb = 16
    hot_pages = 384
    cold_fraction = 0.01
    write_fraction = 0.1
    hot_alpha = 1.0
    settle_passes = 2
    # Background OS noise: a daemon process scheduled every cs_period
    # ops. Each guest context switch is free under nested paging but a
    # VMtrap under shadow paging (Section III-B); agile paging's CR3
    # cache removes it again (Section IV).
    cs_period = 10_000

    def execute(self, api):
        self.reset()
        state = self.setup(api)
        main_proc = api.current
        daemon = api.spawn(code_pages=2)
        api.switch_to(daemon)
        daemon_heap = api.mmap(4 * self.granule)
        self.warm_region(api, daemon_heap, 4, write=True)
        api.switch_to(main_proc)
        self.warm_and_settle(api, state)
        api.start_measurement()
        done = 0
        while done < self.ops:
            n = min(BATCH, self.ops - done)
            self.batch(api, state, n, done)
            done += n
            if self.cs_period and done % self.cs_period < BATCH:
                # Timer tick: the daemon runs briefly.
                current = api.current
                api.switch_to(daemon)
                for i in range(4):
                    api.read(daemon_heap + i * self.granule)
                done += 4
                api.switch_to(current)

    # -- hooks ---------------------------------------------------------------

    def setup(self, api):
        """Spawn, map and return per-run state (a dict)."""
        api.spawn()
        npages = self.pages_for(self.footprint_mb * MB)
        base = api.mmap(npages * self.granule, kind="heap")
        return {"base": base, "npages": npages,
                "sampler": self.make_sampler(npages)}

    def make_sampler(self, npages):
        """Hot set (TLB-resident) + a calibrated cold tail."""
        hot = min(self.hot_pages, npages)
        return MixtureSampler(
            [ZipfSampler(hot, self.rng, alpha=self.hot_alpha),
             UniformSampler(npages, self.rng)],
            weights=[1.0 - self.cold_fraction, self.cold_fraction],
            rng=self.rng,
        )

    def warm_and_settle(self, api, state):
        """Fault everything in, then settle the VMM policies.

        Read passes give the policies steady-state evidence (misses, no
        page-table updates); the idle settles between them let interval
        timers fire, so one-time transitions happen before measurement.
        """
        self.warm_region(api, state["base"], state["npages"], write=True)
        for _pass in range(self.settle_passes):
            self.warm_region(api, state["base"], state["npages"], write=False)
            api.settle()

    def batch(self, api, state, n, done):
        indices = state["sampler"].sample(n)
        writes = self.rng.random(n) < self.write_fraction
        self.region_access(api, state["base"], indices, writes)


class MemcachedLike(SuiteWorkload):
    """Zipf key-value lookups with slab churn and eviction pressure."""

    name = "memcached"
    description = "in-memory key-value cache (75 GB in the paper)"
    footprint_mb = 48
    hot_pages = 384
    cold_fraction = 0.008
    write_fraction = 0.10

    def __init__(self, ops=100_000, seed=42, churn_period=40_000,
                 slab_pages=3, **kw):
        super().__init__(ops=ops, seed=seed, **kw)
        self.churn_period = churn_period
        self.slab_pages = slab_pages

    def setup(self, api):
        state = super().setup(api)
        state["slabs"] = []
        return state

    def batch(self, api, state, n, done):
        super().batch(api, state, n, done)
        if done % self.churn_period < BATCH and done:
            # Slab churn: retire the oldest slab, fill a fresh one (SET
            # traffic into new memory), and let the guest evict a little
            # under memory pressure (Section V).
            slabs = state["slabs"]
            if len(slabs) >= 4:
                api.munmap(slabs.pop(0), self.slab_pages * self.granule)
            slab = api.mmap(self.slab_pages * self.granule, kind="slab")
            slabs.append(slab)
            self.warm_region(api, slab, self.slab_pages, write=True)
            api.reclaim(1)


class CannealLike(SuiteWorkload):
    """Uniform random element swaps: TLB stress, static page tables."""

    name = "canneal"
    description = "simulated-annealing netlist swaps (PARSEC)"
    footprint_mb = 24
    hot_pages = 384
    cold_fraction = 0.005
    write_fraction = 0.5

    def __init__(self, ops=100_000, seed=43, **kw):
        super().__init__(ops=ops, seed=seed, **kw)

    def make_sampler(self, npages):
        hot = min(self.hot_pages, npages)
        return MixtureSampler(
            [UniformSampler(hot, self.rng), UniformSampler(npages, self.rng)],
            weights=[1.0 - self.cold_fraction, self.cold_fraction],
            rng=self.rng,
        )


class AstarLike(SuiteWorkload):
    """Path-finding: pointer chasing through a graph with a hot core."""

    name = "astar"
    description = "SPEC 2006 astar (350 MB in the paper)"
    footprint_mb = 12
    hot_pages = 320
    cold_fraction = 0.005
    write_fraction = 0.05
    hot_alpha = 1.2

    def __init__(self, ops=100_000, seed=44, **kw):
        super().__init__(ops=ops, seed=seed, **kw)

    def make_sampler(self, npages):
        hot = min(self.hot_pages, npages)
        return MixtureSampler(
            [ZipfSampler(hot, self.rng, alpha=self.hot_alpha),
             PointerChase(npages, self.rng)],
            weights=[1.0 - self.cold_fraction, self.cold_fraction],
            rng=self.rng,
        )


class GccLike(SuiteWorkload):
    """Compiler: allocation churn and short-lived helper processes.

    Page-table update traffic — not TLB misses — is what makes gcc
    expensive under shadow paging (Figure 5).
    """

    name = "gcc"
    description = "SPEC 2006 gcc (885 MB in the paper)"
    footprint_mb = 16
    hot_pages = 320
    cold_fraction = 0.003
    write_fraction = 0.3
    hot_alpha = 1.1

    def __init__(self, ops=100_000, seed=45, buffer_period=30_000,
                 buffer_pages=2, child_period=100_000, **kw):
        super().__init__(ops=ops, seed=seed, **kw)
        self.buffer_period = buffer_period
        self.buffer_pages = buffer_pages
        self.child_period = child_period

    def setup(self, api):
        state = super().setup(api)
        state["parent"] = api.current
        return state

    def batch(self, api, state, n, done):
        super().batch(api, state, n, done)
        if done and done % self.buffer_period < BATCH:
            # A compilation phase: allocate, fill, discard a work buffer.
            work = api.mmap(self.buffer_pages * self.granule, kind="work")
            self.warm_region(api, work, self.buffer_pages, write=True)
            api.munmap(work, self.buffer_pages * self.granule)
        if done and done % self.child_period < BATCH:
            # A short-lived helper process (cpp/as in a real build).
            child = api.spawn(code_pages=2)
            api.switch_to(child)
            scratch = api.mmap(2 * self.granule)
            api.write(scratch)
            api.write(scratch + self.granule)
            api.switch_to(state["parent"])
            api.exit(child)


class Graph500Like(SuiteWorkload):
    """Read-mostly BFS sweeps over a large graph."""

    name = "graph500"
    description = "generation, compression and search of graphs (73 GB in the paper)"
    footprint_mb = 48
    hot_pages = 384
    cold_fraction = 0.014
    write_fraction = 0.02
    hot_alpha = 0.9


class McfLike(SuiteWorkload):
    """Cold pointer chasing over a large arena: the worst TLB case."""

    name = "mcf"
    description = "SPEC 2006 mcf (1.7 GB in the paper)"
    footprint_mb = 32
    hot_pages = 352
    cold_fraction = 0.018
    write_fraction = 0.2

    def __init__(self, ops=100_000, seed=47, **kw):
        super().__init__(ops=ops, seed=seed, **kw)

    def make_sampler(self, npages):
        hot = min(self.hot_pages, npages)
        return MixtureSampler(
            [ZipfSampler(hot, self.rng, alpha=self.hot_alpha),
             PointerChase(npages, self.rng)],
            weights=[1.0 - self.cold_fraction, self.cold_fraction],
            rng=self.rng,
        )


class TigrLike(SuiteWorkload):
    """Sequence assembly: streaming scans plus random index probes."""

    name = "tigr"
    description = "BioBench tigr (610 MB in the paper)"
    footprint_mb = 20
    hot_pages = 384
    cold_fraction = 0.016
    write_fraction = 0.05

    def __init__(self, ops=100_000, seed=48, accesses_per_page=64, **kw):
        super().__init__(ops=ops, seed=seed, **kw)
        self.accesses_per_page = accesses_per_page

    def setup(self, api):
        state = super().setup(api)
        state["scan"] = SequentialScanner(state["npages"])
        state["scan_left"] = 0
        state["scan_page"] = 0
        return state

    def batch(self, api, state, n, done):
        """Interleave a streaming scan (reads) with hot-set probes.

        The scan touches each database page ``accesses_per_page`` times
        before moving on, like scoring a sequence window.
        """
        base = state["base"]
        sampler = state["sampler"]
        half = n // 2
        scan = []
        for _i in range(half):
            if state["scan_left"] == 0:
                state["scan_page"] = int(state["scan"].sample(1)[0])
                state["scan_left"] = self.accesses_per_page
            state["scan_left"] -= 1
            scan.append(base + state["scan_page"] * self.granule)
        api.access_many(scan, repeat(False))
        indices = sampler.sample(n - half)
        writes = self.rng.random(n - half) < self.write_fraction
        self.region_access(api, base, indices, writes)


class DedupLike(SuiteWorkload):
    """Pipeline compression with content-based page sharing.

    Dedup passes write-protect shared pages; subsequent writes break
    COW — the update storm behind dedup's 57% shadow-paging VMM
    overhead in Figure 5.
    """

    name = "dedup"
    description = "PARSEC dedup (1.4 GB in the paper)"
    footprint_mb = 16
    hot_pages = 320
    cold_fraction = 0.004
    write_fraction = 0.5

    def __init__(self, ops=100_000, seed=49, chunk_pages=4,
                 chunk_period=35_000, **kw):
        super().__init__(ops=ops, seed=seed, **kw)
        self.chunk_pages = chunk_pages
        self.chunk_period = chunk_period

    def setup(self, api):
        producer = api.spawn()
        consumer = api.spawn()
        api.switch_to(consumer)
        out = api.mmap(64 * self.granule, kind="out")
        api.switch_to(producer)
        npages = self.pages_for(self.footprint_mb * MB)
        base = api.mmap(npages * self.granule, kind="pool")
        return {
            "base": base,
            "npages": npages,
            "sampler": self.make_sampler(npages),
            "producer": producer,
            "consumer": consumer,
            "out": out,
            "out_scan": SequentialScanner(64),
            "chunk_index": 0,
        }

    def warm_and_settle(self, api, state):
        api.switch_to(state["consumer"])
        self.warm_region(api, state["out"], 64, write=True)
        api.switch_to(state["producer"])
        super().warm_and_settle(api, state)

    def batch(self, api, state, n, done):
        super().batch(api, state, n, done)
        if done and done % self.chunk_period < BATCH:
            self._chunk_cycle(api, state)

    def _chunk_cycle(self, api, state):
        """Fill a chunk, dedup it, emit output, rewrite (COW breaks)."""
        npages = state["npages"]
        offset = (state["chunk_index"] * self.chunk_pages) % max(
            1, npages - self.chunk_pages
        )
        state["chunk_index"] += 1
        chunk = state["base"] + offset * self.granule
        self.warm_region(api, chunk, self.chunk_pages, write=True)
        api.dedup(chunk, self.chunk_pages * self.granule, group=2)
        # Consumer emits compressed output (a context-switch pair).
        api.switch_to(state["consumer"])
        out = state["out"] + self.granule * state["out_scan"].sample(4)
        api.access_many(out.tolist(), repeat(True))
        api.switch_to(state["producer"])
        # Rewrites break the sharing the scanner just created.
        self.warm_region(api, chunk, self.chunk_pages, write=True)


SUITE = (
    MemcachedLike,
    CannealLike,
    AstarLike,
    GccLike,
    Graph500Like,
    McfLike,
    TigrLike,
    DedupLike,
)

# Table V: paper-reported memory footprints.
PAPER_FOOTPRINTS = {
    "astar": "350 MB",
    "gcc": "885 MB",
    "mcf": "1.7 GB",
    "canneal": "780 MB",
    "dedup": "1.4 GB",
    "tigr": "610 MB",
    "graph500": "73 GB",
    "memcached": "75 GB",
}


def make_suite(ops=100_000, page_size=None, names=None):
    """Instantiate the suite (optionally a subset, or another granule)."""
    selected = []
    for cls in SUITE:
        if names is not None and cls.name not in names:
            continue
        kwargs = {"ops": ops}
        if page_size is not None:
            kwargs["page_size"] = page_size
        selected.append(cls(**kwargs))
    return selected
