"""Address-domain typestate analysis (rules REPRO602, REPRO604, REPRO605).

An interprocedural abstract interpretation over the PR 5 call graph
that proves guest-virtual, guest-physical, and host-physical addresses
never mix: locals get a domain lattice value (known space/unit,
unknown, or ⊥-mixed) inferred from ``repro.common.addrspace``
annotations, declared translators, and the shift/mask idioms
(``>> PAGE_SHIFT``, ``& OFFSET_MASK``), propagated across unambiguous
call edges. See ``docs/static_analysis.md``.
"""

from repro.lint.domains.rules import (
    DOMAIN_RULES,
    FrameByteConfusionRule,
    TranslatorClosureRule,
    WrongDomainArgumentRule,
)

__all__ = [
    "DOMAIN_RULES",
    "WrongDomainArgumentRule",
    "FrameByteConfusionRule",
    "TranslatorClosureRule",
]
