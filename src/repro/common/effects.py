"""Effect annotations: the vocabulary of the whole-program analyzer.

The simulator's trickiest contracts span call chains — *only* VMM trap
handlers and Section III-C policy decisions may reach the shadow page
table and its switching bits. These decorators declare which functions
touch what, so ``repro.lint.flow`` can verify the call graph statically
(rules REPRO401/REPRO406; see ``docs/static_analysis.md``).

The decorators are runtime no-ops: they tag the function object and
return it unchanged (no wrapper, no call overhead), so annotating a
hot-path trap handler costs nothing. The analyzer never imports the
annotated modules either — it reads the decorator *syntax* from the
AST, which keeps linting side-effect free.

Vocabulary:

``@mutates(resource)``
    This function writes the named piece of privileged VMM state.
    Resources: ``"shadow_pt"`` (the shadow table, its node-mode
    metadata and the agile switching bits) and ``"host_ledger"`` (the
    consolidated host's commit ledger — only the ``repro.host``
    subsystem may meter it; rule REPRO406).
``@trap_handler``
    A VMM entry point that runs in response to a VMexit / guest-platform
    hook — authorized to reach shadow-state mutators.
``@policy_decision``
    A Section III-C policy hook (write trigger, reversion scan,
    short-lived promotion, SHSP selection) — authorized, like trap
    handlers, to reach shadow-state mutators.
"""

#: The privileged state resources ``@mutates`` may name.
RESOURCES = ("shadow_pt", "host_ledger")


def mutates(resource):
    """Declare that the decorated function writes ``resource``."""
    if resource not in RESOURCES:
        raise ValueError(
            "unknown effect resource %r (known: %s)"
            % (resource, ", ".join(RESOURCES)))

    def annotate(fn):
        fn.__repro_mutates__ = getattr(fn, "__repro_mutates__", ()) + (resource,)
        return fn

    return annotate


def trap_handler(fn):
    """Mark a VMM trap entry point (VMexit / guest-platform hook)."""
    fn.__repro_trap_handler__ = True
    return fn


def policy_decision(fn):
    """Mark a Section III-C policy hook (the origin of mode switches)."""
    fn.__repro_policy_decision__ = True
    return fn


__all__ = ["RESOURCES", "mutates", "trap_handler", "policy_decision"]
