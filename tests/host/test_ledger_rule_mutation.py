"""Mutation acceptance: REPRO406 (ledger authority) is live.

Same idiom as ``tests/lint/domains/test_mutations.py``: copy the
installed package, plant one realistic commit-ledger violation, and
prove ``repro check`` (the deep rule set) catches it. The clean-tree
gate already proves the unmutated tree passes REPRO406 with zero
baseline entries; these tests prove that cleanliness is earned.
"""

from repro.lint import DEEP_RULES
from repro.lint.engine import LintEngine

from tests.lint.helpers import mutate_package


def _mutate(tmp_path, relpath, needle, replacement):
    mutant = mutate_package(tmp_path, relpath, needle, replacement)
    findings, _checked = LintEngine(DEEP_RULES).run([str(mutant)])
    return [f for f in findings if f.rule_id == "REPRO406"]


def test_charging_the_ledger_from_guest_accounting_fails_check(tmp_path):
    """A guest-side cycle-accounting path that meters the host commit
    ledger directly (instead of allocating through its MeteredMemory)
    bypasses the pressure/balloon protocol — REPRO406 must fire."""
    findings = _mutate(
        tmp_path, "core/machine.py",
        "cycles = refs * self.cost.cycles_per_walk_ref",
        "cycles = refs * self.cost.cycles_per_walk_ref\n"
        "        self.host_ledger.charge(0, refs)")
    assert findings, "ledger charge from repro.core went undetected"
    assert any("charge" in f.message for f in findings), \
        "\n".join(f.format() for f in findings)


def test_ledger_mutator_declared_outside_host_fails_check(tmp_path):
    """Declaring a ``@mutates("host_ledger")`` function outside
    ``repro.host`` moves commit authority out of the subsystem that owns
    the pressure protocol — REPRO406 must flag the definition itself."""
    findings = _mutate(
        tmp_path, "vmm/vmm.py",
        "from repro.common.effects import policy_decision, trap_handler",
        "from repro.common.effects import (mutates, policy_decision,\n"
        "                                  trap_handler)\n\n\n"
        "@mutates(\"host_ledger\")\n"
        "def rogue_commit(ledger, frames):\n"
        "    ledger.committed[0] = ledger.committed.get(0, 0) + frames\n")
    assert findings, "out-of-host ledger mutator went undetected"
    assert any("rogue_commit" in f.message for f in findings), \
        "\n".join(f.format() for f in findings)
