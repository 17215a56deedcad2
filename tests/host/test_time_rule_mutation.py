"""Mutation acceptance: the REPRO70x time-domain rules are live.

Same idiom as ``tests/host/test_ledger_rule_mutation.py``: copy the
installed package, re-introduce a realistic clock-accounting bug, and
prove ``repro check`` (the deep rule set) catches it. The first
mutation is the literal PR 9 consolidation bug — a clock-windowed
policy fed host wall time instead of guest virtual time — which broke
bit-identical solo≡consolidated replay and could previously only be
caught by the dynamic isolation oracle. The clean-tree gate already
proves the unmutated tree passes REPRO701–703 with zero baseline
entries; these tests prove that cleanliness is earned.
"""

from repro.lint import DEEP_RULES
from repro.lint.engine import LintEngine

from tests.lint.helpers import mutate_package


def _mutate(tmp_path, relpath, needle, replacement, rule_id):
    mutant = mutate_package(tmp_path, relpath, needle, replacement)
    findings, _checked = LintEngine(DEEP_RULES).run([str(mutant)])
    return [f for f in findings if f.rule_id == rule_id]


def test_policy_fed_host_wall_time_fails_check(tmp_path):
    """The PR 9 bug: the write-trigger policy's windowing `now` read
    from the *host* clock through the VirtualClock pass-through. Under
    consolidation that timestamp includes every other tenant's cycles,
    so window expiry — and with it the whole switching schedule —
    depends on co-tenants. REPRO701 must flag the call site: the
    policy declares ``now`` as guest_sim, the argument is host_wall."""
    findings = _mutate(
        tmp_path, "vmm/vmm.py",
        "state.manager, node.frame, self.clock.now)",
        "state.manager, node.frame, self.clock.host.now)",
        "REPRO701")
    assert findings, "host-wall `now` into a guest-windowed policy " \
        "went undetected"
    assert any("note_write" in f.message and "host_wall" in f.message
               for f in findings), \
        "\n".join(f.format() for f in findings)


def test_unattributed_balloon_advance_fails_check(tmp_path):
    """A reclaim path that bills cycles straight onto its clock with no
    ``@charges`` declaration drops them from every reported counter —
    total_cycles would no longer decompose into its parts. REPRO703
    must flag the advance site."""
    findings = _mutate(
        tmp_path, "host/balloon.py",
        "            freed_total += freed",
        "            if self.clock is not None:\n"
        "                self.clock.advance(freed)\n"
        "            freed_total += freed",
        "REPRO703")
    assert findings, "unattributed balloon-driver advance went undetected"
    assert any("reclaim" in f.message for f in findings), \
        "\n".join(f.format() for f in findings)


def test_unauthorized_balloon_advance_also_fails_authority(tmp_path):
    """The same balloon mutation is a REPRO702 finding too: the driver
    is host-side but not a host-clock authority (only VCpuScheduler
    and Host are)."""
    findings = _mutate(
        tmp_path, "host/balloon.py",
        "            freed_total += freed",
        "            if self.clock is not None:\n"
        "                self.clock.advance(freed)\n"
        "            freed_total += freed",
        "REPRO702")
    assert findings, "unauthorized host-clock advance went undetected"
    assert any("authority" in f.message or "VCpuScheduler" in f.message
               for f in findings), \
        "\n".join(f.format() for f in findings)
