"""Experiment runners: one function per table/figure in the paper.

Each returns structured data; the ``repro bench`` targets print it in
the paper's row format, :mod:`repro.analysis.claims` checks the paper's
claims on it, and EXPERIMENTS.md records paper-vs-measured. Bench
targets and tier-1 call the same functions, at different op budgets.

The grid-shaped experiments (Tables IV/V/VI, Figure 5, the SHSP
comparison, the ablations and the two-step comparison's direct runs)
are built on :mod:`repro.runner`: they enumerate frozen
:class:`CellSpec` cells and execute them through a :class:`SweepRunner`
— pass ``runner=SweepRunner(workers=N, cache=ResultCache(...))`` to fan
the sweep across processes and/or reuse cached cells; the default runs
serially in-process. The hand-instrumented micro-measurements (Tables
I/II, Figure 3, the Section V feature runs) poke the machine mid-run and
stay direct.
"""

from dataclasses import replace

from repro.common.config import (
    ALL_MODES,
    MODE_AGILE,
    MODE_NATIVE,
    MODE_NESTED,
    MODE_SHADOW,
    MODE_SHSP,
    HostConfig,
    sandy_bridge_config,
)
from repro.common.effects import policy_decision
from repro.common.params import FOUR_KB, TWO_MB
from repro.core.machine import System
from repro.core.simulator import Simulator
from repro.runner import CellSpec, SweepRunner
from repro.workloads.suite import SUITE

DEFAULT_OPS = 60_000


def translation_overhead(metrics):
    """Figure 5's bar height: page-walk plus VMM overhead."""
    return metrics.page_walk_overhead + metrics.vmm_overhead


def _sweep(cells, runner):
    """Run cells through the given (or a default serial) runner."""
    if runner is None:
        runner = SweepRunner(workers=1)
    return runner.run(cells).raise_on_failure()


def _run_keyed(cells, runner):
    """Run ``{key: CellSpec}`` through the runner: ``{key: RunMetrics}``."""
    sweep = _sweep(list(cells.values()), runner)
    return {key: sweep.metrics_for(cell) for key, cell in cells.items()}


def _nest(runs):
    """``{(outer, inner): value}`` as ``{outer: {inner: value}}``."""
    nested = {}
    for (outer, inner), value in runs.items():
        nested.setdefault(outer, {})[inner] = value
    return nested


def _suite_classes(workload_names):
    return [cls for cls in SUITE
            if workload_names is None or cls.name in workload_names]


# -- Table I ---------------------------------------------------------------------


def table1_measurements(ops=2_000):
    """Micro-measurements behind the Table I trade-off grid.

    Measures, per mode: worst-case memory references for one TLB miss
    (PWC disabled, cold caches) and whether a guest PT update traps.
    """
    measurements = {}
    for mode in ALL_MODES:
        config = sandy_bridge_config(mode=mode)
        config = replace(config, pwc=replace(config.pwc, enabled=False))
        system = System(config)
        simulator = Simulator(system)
        api = simulator.api
        api.spawn()
        base = api.mmap(4 << 12)
        for i in range(4):
            api.write(base + i * 4096)
        if mode == MODE_AGILE:
            # Force the worst case: fully nested (sptr == gptr, 24 refs).
            proc = system.kernel.current
            manager = system.vmm.states[proc.pid].manager
            manager.fully_nested = True
        system.mmu.flush_all()
        before_refs = system.mmu.counters.walk_refs
        before_misses = system.mmu.counters.tlb_misses
        api.read(base)
        max_refs = system.mmu.counters.walk_refs - before_refs
        assert system.mmu.counters.tlb_misses == before_misses + 1
        # Does a page-table update trap to the VMM? (Agile's steady
        # state: the dynamic leaf is nested, so updates go direct.)
        before = system.vmm.traps.count("pt_write") if system.vmm else 0
        system.kernel.current.page_table.set_flags(base, writable=False)
        pt_update_traps = (system.vmm.traps.count("pt_write") - before
                           if system.vmm else 0)
        measurements[mode] = {"max_refs": max_refs,
                              "pt_update_traps": pt_update_traps}
    return measurements


# -- Table II / Figure 3 ------------------------------------------------------------


#: Figure 3's label for each degree of nesting (nested guest levels).
DEGREE_LABELS = {0: "shadow-only", 1: "switch@4th", 2: "switch@3rd",
                 3: "switch@2nd", 4: "switch@1st", "nested": "nested-only"}


@policy_decision
def _at_each_degree(measure):
    """``{degree: measure(system, api, base)}`` for one mapped page of an
    agile system (PWCs off), with the switching point moved to each
    degree of nesting in turn; ``"nested"`` forces the full-nested path
    (sptr == gptr) a separate nested-mode system would take."""
    from repro.common.params import pt_index

    config = sandy_bridge_config(mode=MODE_AGILE)
    system = System(replace(config, pwc=replace(config.pwc, enabled=False)))
    api = Simulator(system).api
    api.spawn()
    base = api.mmap(1 << 12)
    api.write(base)
    proc = system.kernel.current
    manager = system.vmm.states[proc.pid].manager
    # The guest PT node at each level along base's path.
    node = proc.page_table.root
    nodes_by_level = {4: node}
    for level in (4, 3, 2):
        node = proc.page_table.node_at(node.get(pt_index(base, level)).frame)
        nodes_by_level[level - 1] = node
    results = {}
    for degree in DEGREE_LABELS:
        manager.revert_all()
        if degree == "nested":
            manager.fully_nested = True
        elif degree:
            manager.switch_to_nested(nodes_by_level[degree].frame)
        results[degree] = measure(system, api, base)
    manager.fully_nested = False
    return results


def _walk_refs(system, api, base):
    system.mmu.flush_all()
    before = system.mmu.counters.walk_refs
    api.read(base)
    return system.mmu.counters.walk_refs - before


def _journal(system, api, base):
    # Prime with a real walk (not a TLB hit) so the VMM refills any
    # shadow entries zapped by the preceding mode change; then journal
    # one clean walk.
    system.mmu.flush_all()
    api.read(base)
    system.mmu.flush_all()
    system.mmu.walker.journal = []
    api.read(base)
    journal = list(system.mmu.walker.journal)
    system.mmu.walker.journal = None
    return journal


def table2_measurements():
    """Measured total walk references at every degree of nesting.

    Returns {0: 4, 1: 8, 2: 12, 3: 16, 4: 20, "nested": 24}.
    """
    return _at_each_degree(_walk_refs)


def figure3_journals():
    """Chronological access orders per degree of nesting (Figure 3)."""
    return {DEGREE_LABELS[degree]: journal
            for degree, journal in _at_each_degree(_journal).items()}


# -- Figure 5 -----------------------------------------------------------------------------


def figure5_cells(ops=DEFAULT_OPS, workload_names=None,
                  page_sizes=(FOUR_KB, TWO_MB), modes=ALL_MODES, **overrides):
    """The Figure 5 grid as cells: workloads x page sizes x modes."""
    cells = []
    for cls in _suite_classes(workload_names):
        for page_size in page_sizes:
            for mode in modes:
                cells.append(CellSpec.make(
                    cls.name, mode=mode, page_size=page_size, ops=ops,
                    overrides=overrides or None))
    return cells


def figure5(ops=DEFAULT_OPS, workload_names=None, page_sizes=(FOUR_KB, TWO_MB),
            modes=ALL_MODES, runner=None, **overrides):
    """The headline experiment: the full grid of Figure 5.

    Returns {workload_name: {(page_size_name, mode): RunMetrics}}.
    """
    cells = figure5_cells(ops=ops, workload_names=workload_names,
                          page_sizes=page_sizes, modes=modes, **overrides)
    return _nest(_run_keyed(
        {(cell.workload, (cell.page_size, cell.mode)): cell for cell in cells},
        runner))


def headline_summary(fig5_results, page_size_name="4K"):
    """Section VII-A: agile vs best-of-constituents and vs native.

    Returns per-workload dicts plus geometric means, using total
    (pw + vmm) overhead as the comparison metric.
    """
    import math

    rows = []
    for name, configs in fig5_results.items():
        native, nested, shadow, agile = (
            translation_overhead(configs[(page_size_name, mode)])
            for mode in (MODE_NATIVE, MODE_NESTED, MODE_SHADOW, MODE_AGILE))
        best = min(nested, shadow)
        # Execution time ratio: (1 + overhead_a) / (1 + overhead_b).
        vs_best = (1 + best) / (1 + agile)
        vs_native = (1 + agile) / (1 + native)
        rows.append({
            "workload": name,
            "native": native,
            "nested": nested,
            "shadow": shadow,
            "agile": agile,
            "best_constituent": best,
            "agile_speedup_vs_best": vs_best,
            "agile_slowdown_vs_native": vs_native,
        })
    geo = lambda xs: math.exp(sum(math.log(x) for x in xs) / len(xs))
    summary = {
        "geomean_speedup_vs_best": geo([r["agile_speedup_vs_best"] for r in rows]),
        "geomean_slowdown_vs_native": geo([r["agile_slowdown_vs_native"] for r in rows]),
        "max_slowdown_vs_native": max(r["agile_slowdown_vs_native"] for r in rows),
    }
    return rows, summary


# -- Table V --------------------------------------------------------------------------------------


def table5_cells(ops=30_000, workload_names=None):
    """The Table V characterization sweep: the whole suite under shadow.

    Shadow paging exposes each workload's defining ratio — TLB-miss
    traffic vs page-table-update traps — in one configuration.
    """
    return [CellSpec.make(cls.name, mode=MODE_SHADOW, ops=ops)
            for cls in _suite_classes(workload_names)]


def table5(ops=30_000, workload_names=None, runner=None):
    """Table V workload characterization: {workload_name: RunMetrics}."""
    cells = table5_cells(ops=ops, workload_names=workload_names)
    return _run_keyed({cell.workload: cell for cell in cells}, runner)


# -- Table VI -------------------------------------------------------------------------------------


def table6_cells(ops=DEFAULT_OPS, workload_names=None):
    """Table VI as cells: agile mode, 4 KB pages, PWCs disabled."""
    return [CellSpec.make(cls.name, mode=MODE_AGILE, ops=ops,
                          overrides={"pwc.enabled": False})
            for cls in _suite_classes(workload_names)]


def table6(ops=DEFAULT_OPS, workload_names=None, runner=None):
    """Table VI: agile-mode TLB-miss mix with PWCs disabled, 4 KB pages."""
    cells = table6_cells(ops=ops, workload_names=workload_names)
    return _run_keyed({cell.workload: cell for cell in cells}, runner)


# -- Table IV ---------------------------------------------------------------------------


def table4(ops=DEFAULT_OPS, workload_name="mcf", runner=None):
    """The Table IV linear model applied to measured runs.

    Runs one workload under native/nested/shadow and feeds each run's
    counters through the paper's formulas, with E_ideal taken from the
    native run. Returns ``{"e_ideal": cycles, "modes": {mode: row}}``;
    each row carries the ``metrics`` and the model's
    ``page_walk_overhead``, ``vmm_overhead`` and ``cycles_per_miss``.
    """
    from repro.core import costmodel

    runs = _run_keyed({mode: CellSpec.make(workload_name, mode=mode, ops=ops)
                       for mode in (MODE_NATIVE, MODE_NESTED, MODE_SHADOW)},
                      runner)
    e_ideal = costmodel.ideal_cycles(
        costmodel.measured_run_from_metrics(runs[MODE_NATIVE]))
    modes = {}
    for mode, metrics in runs.items():
        run = costmodel.measured_run_from_metrics(metrics)
        modes[mode] = {
            "metrics": metrics,
            "page_walk_overhead": costmodel.page_walk_overhead(run, e_ideal),
            "vmm_overhead": costmodel.vmm_overhead(run, e_ideal),
            "cycles_per_miss": run.avg_cycles_per_miss,
        }
    return {"e_ideal": e_ideal, "modes": modes}


# -- Section VI: two-step methodology ---------------------------------------------------


def twostep(ops=DEFAULT_OPS, workload_names=("mcf", "gcc", "dedup"),
            runner=None):
    """The two-step projection of agile paging next to a direct run:
    ``{workload: {"projected", "direct", "shadow", "nested"}}`` translation
    overheads, shadow and nested from the methodology's own runs."""
    from repro.analysis.model import compare_projection_to_direct
    from repro.analysis.twostep import two_step_projection

    direct = _run_keyed({name: CellSpec.make(name, mode=MODE_AGILE, ops=ops)
                         for name in workload_names}, runner)
    classes = {cls.name: cls for cls in SUITE}
    results = {}
    for name in workload_names:
        projection = two_step_projection(lambda c=classes[name]: c(ops=ops))
        projected, measured = compare_projection_to_direct(
            projection, direct[name])["total_overhead"]
        results[name] = {
            "projected": projected, "direct": measured,
            "shadow": translation_overhead(projection["shadow"]),
            "nested": translation_overhead(projection["nested"])}
    return results


# -- Section VII-C: SHSP ----------------------------------------------------------------


SHSP_MODES = (MODE_NESTED, MODE_SHADOW, MODE_SHSP, MODE_AGILE)


def shsp_comparison(ops=DEFAULT_OPS, workload_names=("mcf", "canneal", "dedup"),
                    runner=None):
    """Agile vs SHSP's whole-process switching: ``{workload: {mode: RunMetrics}}``."""
    return _nest(_run_keyed({(name, mode): CellSpec.make(name, mode=mode,
                                                         ops=ops)
                             for name in workload_names
                             for mode in SHSP_MODES}, runner))


# -- Ablations: Section IV hardware, Section III-C policies -----------------------------


HWOPT_VARIANTS = (
    ("both opts", {"hw_ad_assist": True, "hw_cr3_cache": True}),
    ("no A/D assist", {"hw_ad_assist": False, "hw_cr3_cache": True}),
    ("no CR3 cache", {"hw_ad_assist": True, "hw_cr3_cache": False}),
    ("neither", {"hw_ad_assist": False, "hw_cr3_cache": False}),
)


def hwopt_ablation(ops=DEFAULT_OPS, workload_names=("dedup", "gcc"),
                   runner=None):
    """Agile mode under each :data:`HWOPT_VARIANTS` entry:
    ``{workload: {variant label: RunMetrics}}``."""
    return _nest(_run_keyed({(name, label): CellSpec.make(
                                 name, mode=MODE_AGILE, ops=ops,
                                 overrides=overrides)
                             for name in workload_names
                             for label, overrides in HWOPT_VARIANTS}, runner))


#: (result key, ``config.policy`` overrides).
POLICY_VARIANTS = (
    ("dirty_reversion", {"revert_policy": "dirty"}),
    ("simple_reversion", {"revert_policy": "simple"}),
    ("no_reversion", {"revert_policy": "none"}),
    ("threshold_1", {"write_threshold": 1}),
    ("threshold_8", {"write_threshold": 8}),
)


def policy_ablation(ops=DEFAULT_OPS, workload_name="memcached", runner=None):
    """Agile mode under each :data:`POLICY_VARIANTS` entry: ``{key: RunMetrics}``."""
    return _run_keyed({key: CellSpec.make(workload_name, mode=MODE_AGILE,
                                          ops=ops,
                                          overrides={"policy": overrides})
                       for key, overrides in POLICY_VARIANTS}, runner)


# -- Section V: paging features -------------------------------------------------------------


def _sharing_run(api):
    """Content-based sharing: dedup a region, then break it with writes."""
    base = api.mmap(128 << 12)
    for i in range(128):
        api.write(base + i * 4096)
    api.start_measurement()
    api.dedup(base, 128 << 12, group=2)
    for i in range(0, 128, 2):
        api.write(base + (i + 1) * 4096)  # break each shared pair


def _pressure_run(api):
    """Memory pressure: repeated clock-scan reclaim (referenced-bit
    clearing is a page-table write storm under shadow paging)."""
    base = api.mmap(256 << 12)
    for i in range(256):
        api.write(base + i * 4096)
    api.start_measurement()
    for _round in range(8):
        for i in range(256):
            api.read(base + i * 4096)
        api.reclaim(16)


def _large_page_run(api):
    """2 MB pages at both translation stages (Section V)."""
    base = api.mmap(16 << 21)
    for i in range(16):
        api.write(base + i * (1 << 21))
    api.start_measurement()
    for _round in range(20):
        for i in range(16):
            api.read(base + i * (1 << 21) + 4096 * (_round % 512))


#: (feature key, page size, spawn keyword arguments, body).
PAGING_FEATURES = (
    ("cow_sharing", FOUR_KB, {}, _sharing_run),
    ("mem_pressure", FOUR_KB, {}, _pressure_run),
    ("large_pages", TWO_MB, {"code_pages": 1}, _large_page_run),
)


def paging_features():
    """The :data:`PAGING_FEATURES` micro-runs under shadow and agile:
    ``{feature: {mode: RunMetrics}}``."""
    from repro.core.simulator import MachineAPI

    results = {}
    for feature, page_size, spawn, body in PAGING_FEATURES:
        for mode in (MODE_SHADOW, MODE_AGILE):
            system = System(sandy_bridge_config(mode=mode,
                                                page_size=page_size))
            api = MachineAPI(system)
            api.spawn(**spawn)
            body(api)
            results.setdefault(feature, {})[mode] = (
                system.collect_metrics(feature))
    return results


# -- Consolidation (multi-VM) -----------------------------------------------------------


CONSOLIDATION_MODES = (MODE_NESTED, MODE_SHADOW, MODE_AGILE)

#: Fixed physical budget and per-VM reservation: 1-2 VMs fit, 4 VMs
#: overcommit roughly 5:4 on reservations and ~1.6:1 on live frames,
#: which is what pushes the ledger into balloon reclaim at 4:1.
HOST_FRAMES = 1536
VM_FRAMES = 2048


def _tenants(count, ops, seed):
    """N deterministic tenants, cycling through the consolidation family.

    The hog is sized past the 512-entry L2 TLB (the default 512-page
    footprint warms into full TLB residency and measures nothing).
    """
    from repro.workloads.consolidation import CONSOLIDATION_FAMILY

    sizes = ({"npages": 1024, "hot_pages": 96}, {}, {})
    return [CONSOLIDATION_FAMILY[i % 3](ops=ops, seed=seed + i, **sizes[i % 3])
            for i in range(count)]


def consolidation_cell(mode, vms, ops, seed):
    """One :class:`~repro.host.host.Host` with ``vms`` mixed tenants over
    :data:`HOST_FRAMES`.

    Returns the mean per-VM translation overhead (page walk + VMM over
    each VM's own measured cycles) and the host's reclaim accounting.
    """
    from repro.host.host import run_consolidated

    host_config = HostConfig(vms=vms, host_frames=HOST_FRAMES,
                             vm_frames=VM_FRAMES)
    per_vm, report = run_consolidated(
        _tenants(vms, ops, seed), host_config=host_config,
        machine_config=sandy_bridge_config(mode=mode))
    overheads = [translation_overhead(m) for m in per_vm]
    return {
        "mode": mode,
        "vms": vms,
        "ops": sum(m.ops for m in per_vm),
        "per_vm_overhead": round(sum(overheads) / len(overheads), 4),
        "per_vm_overheads": [round(o, 4) for o in overheads],
        "world_switches": report["world_switches"],
        "balloon_episodes": report["balloon_episodes"],
        "balloon_frames": report["balloon_frames"],
        "overcommit_ratio": report["overcommit_ratio"],
    }


def consolidation(ops=8_000, seed=21, run_cell=consolidation_cell):
    """The packing grid over 1, 2 and 4 VMs: ``{mode: [cell per VM count]}``.

    ``run_cell(mode, vms, ops, seed)`` builds each cell; a caller that
    also wants host wall time wraps :func:`consolidation_cell`.
    """
    return {mode: [run_cell(mode, vms, ops, seed) for vms in (1, 2, 4)]
            for mode in CONSOLIDATION_MODES}


def consolidation_summary(grid):
    """Agile vs the best constituent at the top VM count (each mode's
    last cell)."""
    agile, nested, shadow = (grid[mode][-1]["per_vm_overhead"]
                             for mode in (MODE_AGILE, MODE_NESTED, MODE_SHADOW))
    best = min(nested, shadow)
    return {
        "top_ratio": grid[MODE_AGILE][-1]["vms"],
        "agile_per_vm_overhead": agile,
        "best_constituent_overhead": best,
        "agile_vs_best_overhead_ratio": round(agile / best, 4),
        "reclaim_frames_at_top": sum(cells[-1]["balloon_frames"]
                                     for cells in grid.values()),
    }
