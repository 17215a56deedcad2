"""Mutation acceptance tests: the domain analysis is live on the real
tree.

Each test copies the installed ``repro`` package, introduces one
realistic address-space bug, and proves ``repro check`` (the deep rule
set) catches it with the expected REPRO6xx finding — the same idiom as
the ``@trap_handler``-stripping mutation in ``test_clean_tree.py``.
"""

from repro.lint import DEEP_RULES
from repro.lint.engine import LintEngine

from tests.lint.helpers import mutate_package


def _mutate(tmp_path, relpath, needle, replacement):
    mutant = mutate_package(tmp_path, relpath, needle, replacement)
    findings, _checked = LintEngine(DEEP_RULES).run([str(mutant)])
    return findings


def test_swapping_gpa_and_hptr_in_walker_fails_check(tmp_path):
    """The acceptance mutation: pass host_walk's arguments in the wrong
    order (host root pointer where the guest-physical address belongs)
    and the wrong-domain-argument rule must fire."""
    findings = _mutate(
        tmp_path, "hw/walker.py",
        "self.host_walk(gfn << 12, hptr, is_write=is_write, va=va)",
        "self.host_walk(hptr, gfn << 12, is_write=is_write, va=va)")
    assert findings, "swapped gpa/hptr arguments went undetected"
    rule_ids = {f.rule_id for f in findings}
    assert "REPRO602" in rule_ids, "\n".join(f.format() for f in findings)
    assert rule_ids <= {"REPRO602", "REPRO604"}
    swapped = [f for f in findings if f.rule_id == "REPRO602"]
    assert any("host_walk" in f.message for f in swapped)


def test_dropping_translates_from_hostpt_fails_check(tmp_path):
    """The other acceptance mutation: remove the ``@translates`` marker
    from the host page table's gfn→hfn step and translator-closure
    coverage must flag the module."""
    findings = _mutate(
        tmp_path, "vmm/hostpt.py",
        "    @translates(\"gfn\", \"hfn\")\n    @takes(gfn=\"gfn\")",
        "    @takes(gfn=\"gfn\")")
    assert [f.rule_id for f in findings] == ["REPRO605"], \
        "\n".join(f.format() for f in findings)
    assert "repro.vmm.hostpt" in findings[0].message
    assert "gfn" in findings[0].message and "hfn" in findings[0].message
