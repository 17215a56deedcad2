"""The paper's two-step evaluation methodology (Section VI).

The authors could not run agile paging on real hardware, so they:

* **Step 1** — ran each workload under *shadow* paging with an
  instrumented KVM, traced every guest page-table update, replayed the
  shadow=>nested policy offline, and produced (a) the lists of guest
  virtual addresses that would live under nested mode at each switching
  level and (b) the fraction of VMtraps agile paging eliminates (FV_i).
* **Step 2** — ran the workload again under *nested* paging with
  BadgerTrap (TLB misses turned into traps), classified each miss
  address against the step-1 lists, and produced the fraction of misses
  served at each switching level (FN_i).
* Fed both into the Table IV linear model.

This module reproduces the methodology against the simulator, using the
``pt_write_hook`` (the trace-cmd analogue) and ``miss_hook`` (the
BadgerTrap analogue). Its projections are cross-checked against direct
agile simulation in the test suite and in EXPERIMENTS.md.
"""

from collections import defaultdict

from repro.common.config import sandy_bridge_config
from repro.common.params import level_shift
from repro.core.costmodel import AgileFractions
from repro.core.machine import System
from repro.core.simulator import Simulator
from repro.vmm import traps as T


class PTUpdateTrace:
    """Step-1 output: which guest-PT nodes turn nested, and FV fractions."""

    def __init__(self):
        # (level, covering_prefix) for every node classified as nested.
        self.nested_nodes = set()
        self.total_pt_writes = 0
        self.eliminated_pt_writes = 0
        self.metrics = None

    @property
    def fv(self):
        """Fraction of each VMtrap category agile paging eliminates.

        PT-write traps covered by nested-mode nodes disappear; context
        switches and dirty syncs are eliminated by the Section IV
        hardware optimizations; INVLPGs over nested regions follow
        their PT writes.
        """
        pt_fraction = (
            self.eliminated_pt_writes / self.total_pt_writes
            if self.total_pt_writes
            else 0.0
        )
        return {
            T.PT_WRITE: pt_fraction,
            T.INVLPG: pt_fraction,
            T.CONTEXT_SWITCH: 1.0,  # CR3 cache (Section IV)
            T.DIRTY_SYNC: 1.0,  # A/D hardware assist (Section IV)
        }

    def covering_level(self, va):
        """Topmost nested node covering ``va``, or None (full shadow)."""
        for level in (4, 3, 2, 1):
            shift = level_shift(level + 1) if level < 4 else None
            if level == 4:
                if (4, 0) in self.nested_nodes:
                    return 4
                continue
            if (level, va >> shift) in self.nested_nodes:
                return level
        return None


def run_step1(workload, config=None, write_threshold=2, write_interval=200_000):
    """Step 1: shadow-paging run + offline shadow=>nested classification.

    Returns a :class:`PTUpdateTrace`.
    """
    if config is None:
        config = sandy_bridge_config()
    system = System(config.with_mode("shadow"))
    trace = PTUpdateTrace()
    events = []  # (level, prefix_key, now)

    def hook(node, leaf_va, now):
        meta = _node_meta(system, node)
        if meta is None or meta.prefix is None:
            return
        if node.level == 4:
            key = (4, 0)
        else:
            key = (node.level, meta.prefix >> level_shift(node.level + 1))
        events.append((key, now))

    system.vmm.pt_write_hook = hook
    trace.metrics = Simulator(system).run(workload)
    # Consider only the measurement window, consistent with every other
    # metric: the trap counters were reset at start_measurement,
    # and a multi-minute real run amortizes its warmup the same way.
    start = system._measurement_start
    events = [(key, now) for key, now in events if now >= start]
    # Offline policy replay: a node with `write_threshold` writes inside
    # one `write_interval` window becomes nested; writes landing on an
    # already-nested node are the traps agile paging eliminates.
    windows = {}
    nested = set()
    eliminated = 0
    for key, now in events:
        if key in nested:
            eliminated += 1
            continue
        start, count = windows.get(key, (now, 0))
        if now - start > write_interval:
            start, count = now, 0
        count += 1
        windows[key] = (start, count)
        if count >= write_threshold:
            nested.add(key)
    # A nested node makes its descendants nested too: normalize so the
    # covering_level query (which looks for the topmost) stays simple.
    trace.nested_nodes = nested
    trace.total_pt_writes = len(events)
    trace.eliminated_pt_writes = eliminated
    return trace


def _node_meta(system, node):
    for state in system.vmm.states.values():
        if state.manager is None:
            continue
        meta = state.manager.node_meta.get(node.frame)
        if meta is not None:
            return meta
    return None


def run_step2(workload, trace, config=None):
    """Step 2: nested-paging run + BadgerTrap-style miss classification.

    Returns ``(AgileFractions, nested_metrics)``.
    """
    if config is None:
        config = sandy_bridge_config()
    system = System(config.with_mode("nested"))
    miss_by_level = defaultdict(int)
    total = [0]

    def hook(va, _result):
        total[0] += 1
        level = trace.covering_level(va)
        if level is not None:
            miss_by_level[level] += 1

    system.mmu.miss_hook = hook
    nested_metrics = Simulator(system).run(workload)
    fractions = AgileFractions(fv=dict(trace.fv))
    if total[0]:
        fractions.fn = {
            level: count / total[0] for level, count in miss_by_level.items()
        }
    return fractions, nested_metrics


def two_step_projection(workload_factory, config=None):
    """Run the complete methodology for one workload.

    ``workload_factory`` must build a *fresh* deterministic workload per
    call (the methodology runs it multiple times, as the paper does).
    Returns a dict with the fractions, the runs, and the projected agile
    overheads from the Table IV model.
    """
    from repro.core import costmodel

    if config is None:
        config = sandy_bridge_config()
    trace = run_step1(workload_factory(), config)
    fractions, nested_metrics = run_step2(workload_factory(), trace, config)
    native_system = System(config.with_mode("native"))
    native_metrics = Simulator(native_system).run(workload_factory())

    native_run = costmodel.measured_run_from_metrics(native_metrics)
    shadow_run = costmodel.measured_run_from_metrics(trace.metrics)
    nested_run = costmodel.measured_run_from_metrics(nested_metrics)
    e_ideal = costmodel.ideal_cycles(native_run)
    pw_agile = costmodel.agile_walk_overhead(
        fractions, shadow_run, nested_run,
        base_misses=native_run.tlb_misses, e_ideal=e_ideal,
    )
    vmm_agile = costmodel.agile_vmm_overhead(
        fractions, shadow_run, trace.metrics.trap_cycles, e_ideal=e_ideal,
    )
    return {
        "fractions": fractions,
        "trace": trace,
        "native": native_metrics,
        "shadow": trace.metrics,
        "nested": nested_metrics,
        "projected_pw_overhead": pw_agile,
        "projected_vmm_overhead": vmm_agile,
    }
