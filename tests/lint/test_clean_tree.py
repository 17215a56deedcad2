"""The shipped tree must lint clean — this is what makes the lint
suite load-bearing: any rule violation introduced in ``src/repro``
fails tier-1, not just the optional ``python -m repro lint`` run.

The deep variant runs the whole-program rules too, and the mutation
test proves the effect system is live: stripping one ``@trap_handler``
annotation from a VMM entry point must produce a REPRO401 finding.
"""

import os

from repro.lint import DEEP_RULES
from repro.lint.engine import LintEngine
from repro.lint.rules import DEFAULT_RULES

from .helpers import mutate_package, package_dir


def test_repro_package_lints_clean():
    engine = LintEngine(DEFAULT_RULES)
    findings, checked = engine.run([package_dir()])
    assert checked > 20  # sanity: the walk actually found the package
    assert findings == [], "\n".join(f.format() for f in findings)


def test_repro_package_deep_lints_clean():
    engine = LintEngine(DEEP_RULES)
    findings, checked = engine.run([package_dir()])
    assert checked > 20
    assert findings == [], "\n".join(f.format() for f in findings)


def test_stripping_a_trap_handler_fails_deep_lint(tmp_path):
    """The acceptance mutation: remove one @trap_handler → REPRO401."""
    mutant = mutate_package(tmp_path, "vmm/vmm.py",
                            "    @trap_handler\n    def handle_shadow_fault",
                            "    def handle_shadow_fault")
    findings, _checked = LintEngine(DEEP_RULES).run([str(mutant)])
    assert [f.rule_id for f in findings] == ["REPRO401"]
    assert "handle_shadow_fault" in findings[0].message


def test_benchmarks_tree_lints_clean():
    """Every shipped bench file must register with the harness (REPRO302)
    and stay inside the benchmarks/ exemption envelope."""
    bench_dir = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "..", "..", "benchmarks")
    engine = LintEngine(DEFAULT_RULES)
    findings, checked = engine.run([bench_dir])
    assert checked >= 16  # all bench_*.py plus the shared helpers
    assert findings == [], "\n".join(f.format() for f in findings)
