"""The REPRO602/604/605 address-domain rules.

All three query the one memoized :func:`analyze_domains` report (the
same share-one-analysis idiom as the flow rules and
:func:`build_program`), so running the full set costs one abstract
interpretation of the tree.
"""

from repro.lint.absint import AnalysisRule
from repro.lint.domains.infer import analyze_domains


class WrongDomainArgumentRule(AnalysisRule):
    """Annotated call sites receive the declared address domain."""

    rule_id = "REPRO602"
    name = "wrong-domain-arg"
    description = ("an argument's inferred address domain contradicts "
                   "the callee's @takes/@translates declaration")
    analysis = staticmethod(analyze_domains)


class FrameByteConfusionRule(AnalysisRule):
    """Frame numbers and byte addresses never substitute for each other."""

    rule_id = "REPRO604"
    name = "frame-byte-confusion"
    description = ("frame-number vs byte-address mix-up: a double page-"
                   "shift, or a frame where an address is declared")
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
    WrongDomainArgumentRule(),
    FrameByteConfusionRule(),
    TranslatorClosureRule(),
)
