"""Time-domain typestate analysis (rules REPRO701–REPRO703).

An interprocedural abstract interpretation over the PR 5 call graph
that proves host wall time and guest virtual time never mix (the PR 9
consolidation bug class), that only the scheduler/host advance the
shared host clock, and that every cycle charged to a clock flows into a
declared ``RunMetrics`` counter or an explicit sink — so
``total_cycles`` provably decomposes into its attributed components.
Driven by the ``repro.common.timedomain`` vocabulary (``@cycles`` /
``@advances`` / ``@charges``). See ``docs/static_analysis.md``.
"""

from repro.lint.time.rules import (
    TIME_RULES,
    ClockAuthorityRule,
    CrossClockArithmeticRule,
    CycleConservationRule,
)

__all__ = [
    "TIME_RULES",
    "CrossClockArithmeticRule",
    "ClockAuthorityRule",
    "CycleConservationRule",
]
