"""The REPRO701–REPRO703 time-domain rules.

All three query the one memoized :func:`analyze_time` report (the same
share-one-analysis idiom as the flow and address-domain rules), so
running the full set costs one abstract interpretation of the tree.
"""

from repro.lint.absint import AnalysisRule
from repro.lint.time.infer import analyze_time


class CrossClockArithmeticRule(AnalysisRule):
    """Host wall time and guest virtual time never meet in arithmetic,
    comparisons, or annotated call/return positions."""

    rule_id = "REPRO701"
    name = "cross-clock-arith"
    description = ("arithmetic/comparison/argument mixes two time bases "
                   "(host wall vs guest virtual — the PR 9 bug class)")
    analysis = staticmethod(analyze_time)


class ClockAuthorityRule(AnalysisRule):
    """Only VCpuScheduler/Host advance the shared host clock; VM-side
    code goes through its VirtualClock view."""

    rule_id = "REPRO702"
    name = "clock-authority"
    description = ("an unauthorized advance of the shared host clock, or "
                   "an advance site without a matching @advances "
                   "declaration")
    analysis = staticmethod(analyze_time)


class CycleConservationRule(AnalysisRule):
    """Every clock-advance site flows into a declared RunMetrics counter
    or an explicitly annotated sink."""

    rule_id = "REPRO703"
    name = "unattributed-cycles"
    description = ("a clock advance in a function with no @charges "
                   "declaration — total_cycles would no longer decompose "
                   "into its attributed components")
    analysis = staticmethod(analyze_time)


#: The time-domain rule set, appended to ``repro check`` / ``--deep``.
TIME_RULES = (
    CrossClockArithmeticRule(),
    ClockAuthorityRule(),
    CycleConservationRule(),
)
