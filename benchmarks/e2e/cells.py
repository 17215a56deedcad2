"""The benchmark's workloads as cells, and one round of one workload.

A cell is a :class:`repro.runner.spec.CellSpec` (workload class, its
constructor kwargs, mode, page size, ops, seed) on the default
``sandy_bridge_config``. :func:`run_round` runs every cell of a workload
the way ``repro.runner.spec.execute_cell`` does, ``System(config)`` and
then ``Simulator(system).run(workload)``, and times set-up (construction
up to ``reset_counters``, which ``start_measurement`` calls) apart from
the measured window. With tracing on it wraps each layer's entry points
on the built system (see :mod:`spans`).

Importing this module imports the simulator; the benchmark times that
import as part of set-up.
"""

import time
import traceback

from repro.common.params import FOUR_KB, TWO_MB
from repro.core.machine import System
from repro.core.simulator import Simulator
from repro.mem.pagetable import PageTable
from repro.runner.spec import CellSpec
from repro.workloads.consolidation import ContextSwitchStorm
from repro.workloads.suite import (
    AstarLike,
    CannealLike,
    DedupLike,
    GccLike,
    Graph500Like,
    TigrLike,
)

from spans import SpanTracer

ALL_MODES = ("native", "nested", "shadow", "agile")


class WalkStorm(Graph500Like):
    """graph500's 48 MB read-mostly footprint with half its accesses cold.

    Most accesses miss the TLB, so page walks and the memory reads they
    make do the measured work, and no hit-path shortcut applies.
    """

    name = "walk_storm"
    cold_fraction = 0.5


#: name -> (rows, modes, page sizes, ops per cell); a row is a workload
#: class and its constructor kwargs. Ops are sized so one round takes
#: 5-9 s on a 2-core x86 VM, so a 25 s run holds three or four rounds.
WORKLOADS = {
    # The Figure 5 grid (both page sizes x four modes) over the four
    # suite workloads with the smallest footprints. Like the full
    # 64-cell grid, set-up (demand-faulting the footprint in, then
    # settling the policies) takes about 70% of the wall time.
    "fig5": (((AstarLike, {}), (GccLike, {}), (TigrLike, {}),
              (DedupLike, {})),
             ALL_MODES, (FOUR_KB, TWO_MB), 30_000),
    # Long measured windows with >=98% TLB hits and no page-table
    # updates: the per-op hit path does the work.
    "steady_hits": (((AstarLike, {}), (TigrLike, {}), (CannealLike, {})),
                    ("native", "agile"), (FOUR_KB,), 200_000),
    # Most ops miss: the walker and the memory reads behind it.
    "walk_storm": (((WalkStorm, {}),), ("nested", "agile"), (FOUR_KB,),
                   150_000),
    # Page-table-update storms (COW breaks, mmap/munmap, fork, CR3
    # switches): the VMM and guest kernel do the work.
    "pt_churn": (((GccLike, {"buffer_period": 1024, "buffer_pages": 8,
                             "child_period": 4096}),
                  (DedupLike, {"chunk_period": 1024, "chunk_pages": 16}),
                  (ContextSwitchStorm, {"switch_every": 8})),
                 ("shadow", "agile"), (FOUR_KB,), 100_000),
}

# Span names group entry points so that every span is called in every
# workload: a span that never runs would report a constant 0 s.
GUEST_SPANS = (
    ("handle_page_fault", "guest.page_fault"),
    # The system calls a workload makes through MachineAPI.
    ("mmap", "guest.syscall"),
    ("munmap", "guest.syscall"),
    ("mprotect", "guest.syscall"),
    ("fork", "guest.syscall"),
    ("dedup_region", "guest.syscall"),
    ("reclaim", "guest.syscall"),
    ("context_switch", "guest.syscall"),
    ("create_process", "guest.syscall"),
    ("destroy_process", "guest.syscall"),
)

VMM_SPANS = (
    # Shadow not-present and write-protection exits.
    ("handle_shadow_fault", "vmm.shadow_fault"),
    ("handle_shadow_protection", "vmm.shadow_fault"),
    ("handle_host_fault", "vmm.host_fault"),
    ("context_switch", "vmm.context_switch"),
    ("policy_tick", "vmm.policy_tick"),
    # The VMM's side of guest page-table and TLB maintenance: the guest
    # page table's observer calls the _on_gpt_* hooks on every write, so
    # without this span shadow upkeep would count as mem time.
    ("_on_gpt_write", "vmm.pt_update"),
    ("_on_gpt_node_allocated", "vmm.pt_update"),
    ("_on_gpt_node_freed", "vmm.pt_update"),
    ("invlpg", "vmm.pt_update"),
    ("flush_tlb", "vmm.pt_update"),
)

PAGETABLE_METHODS = ("map", "unmap", "set_flags", "lookup", "leaf_entry")

#: Every span name a traced round can record.
SPAN_NAMES = (("workloads.run", "core.build", "core.access", "hw.translate",
               "hw.tlb_lookup", "hw.tlb_fill", "hw.walk", "mem.read",
               "mem.pagetable")
              + tuple(dict.fromkeys(name for _attr, name in GUEST_SPANS))
              + tuple(dict.fromkeys(name for _attr, name in VMM_SPANS)))

_clock = time.perf_counter


def build_cells(workload, seed, scale=1.0):
    """The cells of ``workload``; ``scale`` multiplies the ops per cell."""
    rows, modes, page_sizes, ops = WORKLOADS[workload]
    ops = max(1, int(ops * scale))
    return [CellSpec.make(cls, mode=mode, page_size=page_size, ops=ops,
                          seed=seed, **kwargs)
            for cls, kwargs in rows
            for page_size in page_sizes
            for mode in modes]


def _install_spans(tracer, system):
    """Wrap each layer's entry points on one built system."""
    wrap = tracer.wrap_instance
    wrap(system, "access", "core.access")
    mmu = system.mmu
    wrap(mmu, "translate", "hw.translate")
    wrap(mmu.hierarchy, "lookup", "hw.tlb_lookup")
    wrap(mmu.hierarchy, "fill", "hw.tlb_fill")
    wrap(mmu.walker, "walk", "hw.walk")
    wrap(system.guest_mem, "read", "mem.read")
    if system.host_mem is not system.guest_mem:  # one RAM when native
        wrap(system.host_mem, "read", "mem.read")
    for attr, name in GUEST_SPANS:
        wrap(system.kernel, attr, name)
    if system.vmm is not None:
        for attr, name in VMM_SPANS:
            wrap(system.vmm, attr, name)


def run_cell(spec, tracer=None):
    """Run one cell; returns ``(RunMetrics, setup_s, measure_s)``."""
    config = spec.build_config()
    workload = spec.build_workload(config)
    build = System
    if tracer is not None:
        tracer.enter_setup()
        build = tracer.span("core.build", System)
    start = _clock()
    system = build(config)
    stamps = []
    reset_counters = system.reset_counters

    def stamped_reset_counters():
        stamps.append(_clock())
        if tracer is not None:
            tracer.mark_measurement()
        reset_counters()

    system.reset_counters = stamped_reset_counters
    run = Simulator(system).run
    if tracer is not None:
        _install_spans(tracer, system)
        run = tracer.span("workloads.run", run)
    metrics = run(workload)
    end = _clock()
    if not stamps:
        raise RuntimeError("%s never started its measured window"
                           % spec.describe())
    return metrics, stamps[-1] - start, end - stamps[-1]


def run_round(workload, seed, trace=False, scale=1.0):
    """Run every cell of ``workload`` once, in this process.

    Returns a JSON-safe dict: per cell its label, set-up and measured
    seconds, ``RunMetrics.to_dict()`` and the paper's derived overheads,
    or the traceback if it raised; with ``trace`` also the span
    aggregates and the calibrated cost of one span.
    """
    tracer = undo = None
    if trace:
        tracer = SpanTracer(SPAN_NAMES)
        tracer.calibrate()
        undo = tracer.wrap_class(PageTable, PAGETABLE_METHODS,
                                 "mem.pagetable")
    cells = []
    try:
        for spec in build_cells(workload, seed, scale):
            cell = {"label": spec.describe(), "ops": spec.ops}
            try:
                metrics, setup_s, measure_s = run_cell(spec, tracer)
            except Exception:  # a failed cell is reported, not fatal
                # The wrappers unwound the span stack on the way out.
                cell["error"] = traceback.format_exc()
            else:
                cell.update(
                    setup_s=setup_s,
                    measure_s=measure_s,
                    metrics=metrics.to_dict(),
                    derived={
                        "page_walk_overhead": metrics.page_walk_overhead,
                        "vmm_overhead": metrics.vmm_overhead,
                        "vmtraps": metrics.vmtraps,
                    })
            cells.append(cell)
    finally:
        if undo is not None:
            undo()
    result = {"trace": trace, "cells": cells}
    if tracer is not None:
        result["spans"] = tracer.snapshot()
        result["span_cost_s"] = tracer.span_cost_s
    return result

