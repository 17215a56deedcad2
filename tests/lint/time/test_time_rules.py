"""Fixture tests for the time-domain rules (REPRO701–REPRO703).

Same discipline as the address-domain fixtures: every positive fixture
makes its rule fire *exactly once*, the negative variant shows the same
shape with the contract satisfied, and a ``# repro: noqa[...]`` variant
proves the per-line suppression machinery covers the time rules too.

Fixtures are written as a fake ``repro`` package so module naming works
— the analyzer decides the clock side of a bare ``self.clock`` from the
module tail (``host/scheduler.py`` is host-side, everything else is
guest-side) and host-clock authority from ``(module, class)``.
"""

from repro.lint.engine import LintEngine
from repro.lint.time.rules import (
    TIME_RULES,
    ClockAuthorityRule,
    CrossClockArithmeticRule,
    CycleConservationRule,
)


def time_lint(tmp_path, sources, rules=TIME_RULES):
    """Write ``{relpath: source}`` as a fake ``repro`` package and lint it."""
    for relpath, source in sources.items():
        path = tmp_path / "repro" / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
        parent = path.parent
        while parent != tmp_path:
            init = parent / "__init__.py"
            if not init.exists():
                init.write_text("")
            parent = parent.parent
    findings, _checked = LintEngine(rules).run([str(tmp_path / "repro")])
    return findings


class TestCrossClockArithmetic:
    MIXED = (
        "from repro.common.timedomain import cycles\n"
        "\n"
        "@cycles(begin=\"host_wall\", window_start=\"guest_sim\")\n"
        "def skew(begin, window_start):\n"
        "    return window_start - begin\n"
    )

    def test_host_minus_guest_fires_once(self, tmp_path):
        findings = time_lint(tmp_path, {"vmm/policies.py": self.MIXED},
                             [CrossClockArithmeticRule()])
        assert [f.rule_id for f in findings] == ["REPRO701"]
        assert "cross-clock arithmetic" in findings[0].message
        assert "host_wall" in findings[0].message

    def test_compatible_guest_instants_are_clean(self, tmp_path):
        findings = time_lint(tmp_path, {"vmm/policies.py": (
            "from repro.common.timedomain import cycles\n"
            "\n"
            "@cycles(\"duration\")\n"
            "@cycles(begin=\"vm_virtual\", end=\"guest_sim\")\n"
            "def elapsed(begin, end):\n"
            "    return end - begin\n"
        )}, [CrossClockArithmeticRule()])
        assert findings == []

    def test_cross_clock_comparison_fires_once(self, tmp_path):
        findings = time_lint(tmp_path, {"vmm/policies.py": (
            "from repro.common.timedomain import cycles\n"
            "\n"
            "@cycles(deadline=\"host_wall\", now=\"guest_sim\")\n"
            "def expired(deadline, now):\n"
            "    return now >= deadline\n"
        )}, [CrossClockArithmeticRule()])
        assert [f.rule_id for f in findings] == ["REPRO701"]
        assert "cross-clock comparison" in findings[0].message

    def test_wrong_clock_argument_fires_once(self, tmp_path):
        findings = time_lint(tmp_path, {"vmm/policies.py": (
            "from repro.common.timedomain import cycles\n"
            "\n"
            "@cycles(now=\"guest_sim\")\n"
            "def tick(now):\n"
            "    return now\n"
            "\n"
            "@cycles(stamp=\"host_wall\")\n"
            "def drive(stamp):\n"
            "    tick(stamp)\n"
        )}, [CrossClockArithmeticRule()])
        assert [f.rule_id for f in findings] == ["REPRO701"]
        assert "`now`" in findings[0].message
        assert "host_wall" in findings[0].message

    def test_instant_where_duration_declared_fires_once(self, tmp_path):
        findings = time_lint(tmp_path, {"vmm/policies.py": (
            "from repro.common.timedomain import cycles\n"
            "\n"
            "@cycles(step=\"duration\")\n"
            "def settle(step):\n"
            "    return step\n"
            "\n"
            "@cycles(now=\"guest_sim\")\n"
            "def drive(now):\n"
            "    settle(now)\n"
        )}, [CrossClockArithmeticRule()])
        assert [f.rule_id for f in findings] == ["REPRO701"]
        assert "epoch/interval" in findings[0].message

    def test_instant_returned_as_duration_fires_once(self, tmp_path):
        findings = time_lint(tmp_path, {"core/machine.py": (
            "from repro.common.timedomain import cycles\n"
            "\n"
            "class System:\n"
            "    @cycles(\"duration\")\n"
            "    def window(self):\n"
            "        return self.clock.now\n"
        )}, [CrossClockArithmeticRule()])
        assert [f.rule_id for f in findings] == ["REPRO701"]
        assert "epoch/interval" in findings[0].message

    def test_nested_helper_return_is_not_the_enclosing_return(
            self, tmp_path):
        """A nested helper's ``return`` answers to the helper, not to the
        ``@cycles`` return declared on the enclosing function."""
        findings = time_lint(tmp_path, {"vmm/policies.py": (
            "from repro.common.timedomain import cycles\n"
            "\n"
            "class Policy:\n"
            "    @cycles(\"duration\")\n"
            "    def window(self):\n"
            "        def stamp():\n"
            "            return self.clock.now\n"
            "        start = stamp()\n"
            "        return 5\n"
        )})
        assert findings == []

    def test_instant_difference_is_a_duration(self, tmp_path):
        findings = time_lint(tmp_path, {"core/machine.py": (
            "from repro.common.timedomain import cycles\n"
            "\n"
            "class System:\n"
            "    @cycles(\"duration\")\n"
            "    @cycles(start=\"guest_sim\")\n"
            "    def window(self, start):\n"
            "        return self.clock.now - start\n"
        )}, [CrossClockArithmeticRule()])
        assert findings == []

    def test_noqa_suppresses(self, tmp_path):
        findings = time_lint(tmp_path, {"vmm/policies.py": (
            "from repro.common.timedomain import cycles\n"
            "\n"
            "@cycles(begin=\"host_wall\", window_start=\"guest_sim\")\n"
            "def skew(begin, window_start):\n"
            "    return window_start - begin  # repro: noqa[REPRO701]\n"
        )}, [CrossClockArithmeticRule()])
        assert findings == []


class TestClockAuthority:
    def test_advance_through_virtualclock_host_fires_once(self, tmp_path):
        findings = time_lint(tmp_path, {"vmm/vmm.py": (
            "class VMM:\n"
            "    def __init__(self, clock):\n"
            "        self.clock = clock\n"
            "\n"
            "    def poke(self):\n"
            "        self.clock.host.advance(5)\n"
        )}, [ClockAuthorityRule()])
        assert [f.rule_id for f in findings] == ["REPRO702"]
        assert "VirtualClock" in findings[0].message

    def test_missing_advances_declaration_fires_once(self, tmp_path):
        # VCpuScheduler *is* the host-clock authority, so the only
        # REPRO702 finding is the missing @advances declaration.
        findings = time_lint(tmp_path, {"host/scheduler.py": (
            "from repro.common.timedomain import charges\n"
            "\n"
            "class VCpuScheduler:\n"
            "    @charges(\"world_switch_cycles\")\n"
            "    def world_switch(self):\n"
            "        self.clock.advance(5)\n"
        )}, [ClockAuthorityRule()])
        assert [f.rule_id for f in findings] == ["REPRO702"]
        assert "@advances" in findings[0].message

    def test_host_advance_declared_outside_authority_fires_once(
            self, tmp_path):
        findings = time_lint(tmp_path, {"vmm/policies.py": (
            "from repro.common.timedomain import advances, charges\n"
            "\n"
            "@advances(\"host_wall\")\n"
            "@charges(\"sink:rogue\")\n"
            "def bill(amount):\n"
            "    pass\n"
        )}, [ClockAuthorityRule()])
        assert [f.rule_id for f in findings] == ["REPRO702"]
        assert "VCpuScheduler" in findings[0].message

    def test_authorized_scheduler_is_clean(self, tmp_path):
        findings = time_lint(tmp_path, {"host/scheduler.py": (
            "from repro.common.timedomain import advances, charges\n"
            "\n"
            "class VCpuScheduler:\n"
            "    @advances(\"host_wall\")\n"
            "    @charges(\"world_switch_cycles\")\n"
            "    def world_switch(self):\n"
            "        self.clock.advance(5)\n"
        )})
        assert findings == []

    def test_clock_module_pass_through_is_exempt(self, tmp_path):
        findings = time_lint(tmp_path, {"common/clock.py": (
            "class VirtualClock:\n"
            "    def advance(self, cycles):\n"
            "        self.now += cycles\n"
            "        self.host.advance(cycles)\n"
        )})
        assert findings == []


class TestCycleConservation:
    def test_uncharged_advance_fires_once(self, tmp_path):
        findings = time_lint(tmp_path, {"core/machine.py": (
            "from repro.common.timedomain import advances\n"
            "\n"
            "class System:\n"
            "    @advances(\"guest_sim\")\n"
            "    def step(self):\n"
            "        self.clock.advance(3)\n"
        )}, [CycleConservationRule()])
        assert [f.rule_id for f in findings] == ["REPRO703"]
        assert "@charges" in findings[0].message

    def test_charged_advance_is_clean(self, tmp_path):
        findings = time_lint(tmp_path, {"core/machine.py": (
            "from repro.common.timedomain import advances, charges\n"
            "\n"
            "class System:\n"
            "    @advances(\"guest_sim\")\n"
            "    @charges(\"ideal_cycles\")\n"
            "    def step(self):\n"
            "        self.clock.advance(3)\n"
        )})
        assert findings == []

    def test_sink_charge_is_clean(self, tmp_path):
        findings = time_lint(tmp_path, {"core/machine.py": (
            "from repro.common.timedomain import advances, charges\n"
            "\n"
            "class System:\n"
            "    @advances(\"guest_sim\")\n"
            "    @charges(\"sink:warmup\")\n"
            "    def settle(self):\n"
            "        self.clock.advance(100)\n"
        )})
        assert findings == []

    def test_unknown_counter_name_fires_once(self, tmp_path):
        findings = time_lint(tmp_path, {"core/machine.py": (
            "from repro.common.timedomain import advances, charges\n"
            "\n"
            "class System:\n"
            "    @advances(\"guest_sim\")\n"
            "    @charges(\"bogus_counter\")\n"
            "    def step(self):\n"
            "        self.clock.advance(3)\n"
        )}, [CycleConservationRule()])
        assert [f.rule_id for f in findings] == ["REPRO703"]
        assert "bogus_counter" in findings[0].message

    def test_advance_in_nested_helper_is_attributed(self, tmp_path):
        # A `_flush` closure: the advance lives in a nested helper
        # but must be attributed to the enclosing (annotatable) method.
        findings = time_lint(tmp_path, {"core/batch.py": (
            "from repro.common.timedomain import advances\n"
            "\n"
            "class BatchSystem:\n"
            "    @advances(\"guest_sim\")\n"
            "    def run_batch(self):\n"
            "        clock = self.clock\n"
            "        def _flush():\n"
            "            clock.advance(7)\n"
            "        _flush()\n"
        )}, [CycleConservationRule()])
        assert [f.rule_id for f in findings] == ["REPRO703"]
        assert "run_batch" in findings[0].message


def test_full_rule_set_reports_each_code_once_per_cause(tmp_path):
    """One tree with one violation per rule: the full TIME_RULES set
    attributes each finding to its own code, nothing doubles up."""
    findings = time_lint(tmp_path, {
        "vmm/policies.py": (
            "from repro.common.timedomain import cycles\n"
            "\n"
            "@cycles(begin=\"host_wall\", window_start=\"guest_sim\")\n"
            "def skew(begin, window_start):\n"
            "    return window_start - begin\n"
        ),
        "vmm/vmm.py": (
            "from repro.common.timedomain import charges\n"
            "\n"
            "class VMM:\n"
            "    @charges(\"vmm_cycles\")\n"
            "    def poke(self):\n"
            "        self.clock.host.advance(5)\n"
        ),
        "core/machine.py": (
            "from repro.common.timedomain import advances\n"
            "\n"
            "class System:\n"
            "    @advances(\"guest_sim\")\n"
            "    def step(self):\n"
            "        self.clock.advance(3)\n"
        ),
    })
    assert sorted(f.rule_id for f in findings) == [
        "REPRO701", "REPRO702", "REPRO703"]
    root = str(tmp_path / "repro")
    assert [f.format() for f in findings] == [
        root + "/core/machine.py:6:8: REPRO703 [unattributed-cycles] "
        "unattributed clock advance in `repro.core.machine.System.step`: "
        "declare @charges(<RunMetrics counter>) or an explicit "
        "@charges(\"sink:...\") so total_cycles stays the sum of its parts "
        "(`self.clock` is this machine's own...",
        root + "/vmm/policies.py:5:11: REPRO701 [cross-clock-arith] "
        "cross-clock arithmetic: guest_sim (`window_start` is a guest_sim "
        "parameter of `repro.vmm.policies.skew`) sub host_wall (`begin` is "
        "a host_wall parameter of `repro.vmm.policies.skew`)",
        root + "/vmm/vmm.py:6:8: REPRO702 [clock-authority] "
        "`repro.vmm.vmm.VMM.poke` advances the host clock through a "
        "VirtualClock's `.host` — VM-side code must charge its own virtual "
        "view and let the pass-through in repro.common.clock bill host "
        "wall time (`self.clock.host` r...",
    ]
