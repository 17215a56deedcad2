"""The REPRO601–REPRO605 address-domain rules.

All five query the one memoized :func:`analyze_domains` report (the
same share-one-analysis idiom as the flow rules and
:func:`build_program`), so running the full set costs one abstract
interpretation of the tree.
"""

from repro.lint.absint import AnalysisRule
from repro.lint.domains.infer import analyze_domains


class CrossDomainArithmeticRule(AnalysisRule):
    """gVA/gPA/hPA values never meet in arithmetic or comparisons."""

    rule_id = "REPRO601"
    name = "cross-domain-arith"
    description = ("arithmetic/comparison mixes two address spaces "
                   "(e.g. gpa == hpa)")
    analysis = staticmethod(analyze_domains)


class WrongDomainArgumentRule(AnalysisRule):
    """Annotated call sites receive the declared address domain."""

    rule_id = "REPRO602"
    name = "wrong-domain-arg"
    description = ("an argument's inferred address domain contradicts "
                   "the callee's @takes/@translates declaration")
    analysis = staticmethod(analyze_domains)


class UntranslatedGuestAddressRule(AnalysisRule):
    """Guest addresses reach RAM only through a declared translator."""

    rule_id = "REPRO603"
    name = "untranslated-guest-addr"
    description = ("an untranslated guest address reaches a physical-"
                   "memory accessor (guest_mem/host_mem are typed)")
    analysis = staticmethod(analyze_domains)


class FrameByteConfusionRule(AnalysisRule):
    """Frame numbers and byte addresses never substitute for each other."""

    rule_id = "REPRO604"
    name = "frame-byte-confusion"
    description = ("frame-number vs byte-address mix-up: double page-"
                   "shift, or indexing RAM with a byte address")
    analysis = staticmethod(analyze_domains)


class TranslatorClosureRule(AnalysisRule):
    """@translates declarations close over the paper's pipeline."""

    rule_id = "REPRO605"
    name = "translator-closure"
    description = ("every @translates pair is a real gVA→gPA→hPA edge, "
                   "reachable from the walker, and the implementing "
                   "modules declare theirs")
    analysis = staticmethod(analyze_domains)


#: The address-domain rule set, appended to ``repro check`` / ``--deep``.
DOMAIN_RULES = (
    CrossDomainArithmeticRule(),
    WrongDomainArgumentRule(),
    UntranslatedGuestAddressRule(),
    FrameByteConfusionRule(),
    TranslatorClosureRule(),
)
