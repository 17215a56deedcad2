"""The Table IV performance model.

The paper evaluates agile paging with a linear model over measured
fractions (Section VI). This module is a formula-for-formula port:

* ``E_ideal = E_2M - T_2M`` — ideal time: best measured execution minus
  its TLB-miss cycles,
* ``PW = (E - E_ideal - H) / E_ideal`` — page-walk overhead,
* ``VMM = H / E_ideal`` — hypervisor overhead,
* ``C = T / M`` — average cycles per TLB miss,
* the agile projections ``PW_A`` and ``VMM_A`` built from the two-step
  fractions ``FN_i`` (TLB misses served with the switch at level *i*)
  and ``FV_i`` (VMtraps eliminated, by reason *i*).

The model is usable standalone (fed by the two-step methodology in
:mod:`repro.analysis.twostep`) and is cross-checked against the direct
simulation in the test suite.

Units: this is the one layer where cycles are *floats* — averages,
scaled projections, and overhead ratios, not integer clock ticks. Every
cycle-valued input and output is still a duration (an interval, never
an epoch on some clock); the simulator's integer clocks stay on the
other side of :func:`measured_run_from_metrics`. Overhead ratios
(``PW``, ``VMM``) are dimensionless.
"""

from dataclasses import dataclass, field


def _ratio(numerator, denominator):
    """``numerator / denominator`` with the model's uniform zero guard.

    Every division in the model means "per unit of a measured count or
    time"; a zero (or unmeasured) denominator means the quantity is
    undefined and the paper's tables would show a dash — rendered here
    as 0.0 so downstream arithmetic stays total.
    """
    if not denominator:
        return 0.0
    return numerator / denominator


@dataclass(frozen=True)
class MeasuredRun:
    """Counters for one (workload, configuration) run, as `perf` gives.

    Fields mirror Section VI: E (total cycles), M (TLB misses), T
    (cycles spent on TLB misses), H (cycles spent in the hypervisor).
    All cycle fields are durations (elapsed intervals, no epoch).
    """

    total_cycles: float
    tlb_misses: float
    tlb_miss_cycles: float
    hypervisor_cycles: float = 0.0

    @property
    def avg_cycles_per_miss(self):
        """Table IV: C = T / M."""
        return _ratio(self.tlb_miss_cycles, self.tlb_misses)


def ideal_cycles(best_run):
    """Table IV: E_ideal = E_2M - T_2M (from the best native run)."""
    return best_run.total_cycles - best_run.tlb_miss_cycles


def page_walk_overhead(run, e_ideal):
    """Table IV: PW = (E - E_ideal - H) / E_ideal."""
    return _ratio(run.total_cycles - e_ideal - run.hypervisor_cycles,
                  e_ideal)


def vmm_overhead(run, e_ideal):
    """Table IV: VMM = H / E_ideal."""
    return _ratio(run.hypervisor_cycles, e_ideal)


@dataclass
class AgileFractions:
    """The two-step methodology's outputs (Section VI).

    ``fn[i]`` — fraction of TLB misses whose translation switches to
    nested mode at level ``i`` (1 = leaf ... 4 = root); misses not in
    any ``fn`` bucket are full-shadow. ``fv[reason]`` — fraction of each
    VMtrap category that agile paging eliminates.
    """

    fn: dict = field(default_factory=dict)  # level -> fraction
    fv: dict = field(default_factory=dict)  # trap kind -> fraction eliminated

    @property
    def shadow_fraction(self):
        return max(0.0, 1.0 - sum(self.fn.values()))


def agile_walk_overhead(fractions, shadow_run, nested_run, base_misses, e_ideal):
    """Table IV: PW_A, the projected agile page-walk overhead.

    The paper's conservative assumption: a miss switching at level 1
    (FN1, leaf-only nesting) pays half the nested *extra* cost beyond
    native; switches at levels 2–4 pay the full nested cost; everything
    else pays shadow cost. ``base_misses`` is M_B: the paper scales by
    the base-native miss count.
    """
    if not base_misses:
        return 0.0
    c_nested = nested_run.avg_cycles_per_miss
    c_shadow = shadow_run.avg_cycles_per_miss
    fn1 = fractions.fn.get(1, 0.0)
    fn_upper = sum(fractions.fn.get(level, 0.0) for level in (2, 3, 4))
    shadow_frac = max(0.0, 1.0 - fn1 - fn_upper)
    cycles_per_miss = (
        c_nested * fn_upper
        + c_shadow * shadow_frac
        + 0.5 * (c_nested + c_shadow) * fn1
    )
    return _ratio(cycles_per_miss * base_misses, e_ideal)


def agile_vmm_overhead(fractions, shadow_run, trap_cycles_by_reason, e_ideal):
    """Table IV: VMM_A = OS - sum_i(FV_i * CE_i).

    ``trap_cycles_by_reason`` maps each VMtrap reason to the cycles
    shadow paging spent on it; agile eliminates fraction FV_i of each.
    """
    eliminated = sum(
        fractions.fv.get(reason, 0.0) * cycles
        for reason, cycles in trap_cycles_by_reason.items()
    )
    remaining = shadow_run.hypervisor_cycles - eliminated
    return _ratio(max(0.0, remaining), e_ideal)


def measured_run_from_metrics(metrics):
    """Adapt a simulator :class:`RunMetrics` to the model's input shape."""
    return MeasuredRun(
        total_cycles=metrics.total_cycles,
        tlb_misses=metrics.tlb_misses,
        tlb_miss_cycles=metrics.walk_cycles,
        hypervisor_cycles=metrics.vmm_cycles,
    )
