"""Project-specific static analysis for the simulator ("the sanitizer").

A small AST-walking lint engine plus rules that encode correctness
contracts the test suite cannot easily express file-by-file:

* determinism — no wall-clock reads, OS entropy, or unseeded randomness
  in simulator code (the cross-mode comparisons, the two-step
  methodology and the fuzz corpus rely on identical operation streams),
* bench registration — every ``benchmarks/bench_*.py`` registers a
  target with the bench harness,
* general hygiene — no mutable default arguments, no bare ``except:``.

On top of the per-file rules sits ``repro.lint.flow`` — a whole-program
pass (``repro lint --deep`` / ``repro check``) that builds a call graph
and enforces the interprocedural contracts (REPRO4xx/5xx: shadow-state
and commit-ledger authority, the event taxonomy, the architecture layer
map, dead and phantom config keys) — plus ``repro.lint.domains``, the
address-domain typestate analysis proving gVA/gPA/hPA values never mix
(REPRO6xx, over the ``repro.common.addrspace`` annotations), and
``repro.lint.time``, the time-domain analysis proving host wall time
and guest virtual time never mix and that every charged cycle lands in
a declared metrics counter (REPRO7xx, over the
``repro.common.timedomain`` annotations). A rule stays only if the
mutant census (``tests/lint/census.py``) shows some mutant needs it.

Run it as ``python -m repro lint [paths]`` (or via the ``repro`` console
script); the pytest suite runs it over ``src/`` so tier-1 enforces a
clean tree. See ``docs/static_analysis.md``.
"""

from repro.lint.domains.rules import DOMAIN_RULES
from repro.lint.engine import (
    Finding,
    LintEngine,
    LintResult,
    ProjectRule,
    Rule,
    Suppression,
)
from repro.lint.flow.rules import FLOW_RULES
from repro.lint.rules import DEFAULT_RULES
from repro.lint.runner import run_lint
from repro.lint.time.rules import TIME_RULES

#: The ``--deep`` rule set: every per-file rule plus the whole-program
#: flow, address-domain, and time-domain rules.
DEEP_RULES = DEFAULT_RULES + FLOW_RULES + DOMAIN_RULES + TIME_RULES

__all__ = [
    "Finding",
    "LintEngine",
    "LintResult",
    "Suppression",
    "Rule",
    "ProjectRule",
    "DEFAULT_RULES",
    "FLOW_RULES",
    "DOMAIN_RULES",
    "TIME_RULES",
    "DEEP_RULES",
    "run_lint",
]
