"""Fixture tests for the address-domain rules (REPRO601–REPRO605).

Same discipline as the flow fixtures: every positive fixture makes its
rule fire *exactly once*, the negative variant shows the same shape with
the contract satisfied, and a ``# repro: noqa[...]`` variant proves the
per-line suppression machinery covers the domain rules too.

Fixtures are written as a fake ``repro`` package so module naming works;
they deliberately avoid the root-module tails (``hw/walker.py``,
``hw/mmu.py``) and the coverage-required modules (``vmm/hostpt.py``)
except in the REPRO605 tests, which exercise exactly those checks.
"""

from repro.lint.domains.rules import (
    DOMAIN_RULES,
    CrossDomainArithmeticRule,
    FrameByteConfusionRule,
    TranslatorClosureRule,
    UntranslatedGuestAddressRule,
    WrongDomainArgumentRule,
)
from repro.lint.engine import LintEngine


def domain_lint(tmp_path, sources, rules=DOMAIN_RULES):
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


class TestCrossDomainArithmetic:
    MIXED = (
        "from repro.common.addrspace import takes\n"
        "\n"
        "@takes(gpa=\"gpa\", hpa=\"hpa\")\n"
        "def confused(gpa, hpa):\n"
        "    return gpa == hpa\n"
    )

    def test_gpa_vs_hpa_comparison_fires_once(self, tmp_path):
        findings = domain_lint(tmp_path, {"core/checks.py": self.MIXED},
                               [CrossDomainArithmeticRule()])
        assert [f.rule_id for f in findings] == ["REPRO601"]
        assert "cross-domain comparison" in findings[0].message
        assert "gpa" in findings[0].message
        assert "hpa" in findings[0].message

    def test_same_domain_comparison_is_clean(self, tmp_path):
        findings = domain_lint(tmp_path, {"core/checks.py": (
            "from repro.common.addrspace import takes\n"
            "\n"
            "@takes(a=\"gpa\", b=\"gpa\")\n"
            "def fine(a, b):\n"
            "    return a == b\n"
        )}, [CrossDomainArithmeticRule()])
        assert findings == []

    def test_noqa_suppresses(self, tmp_path):
        suppressed = self.MIXED.replace(
            "return gpa == hpa",
            "return gpa == hpa  # repro: noqa[REPRO601]")
        findings = domain_lint(tmp_path, {"core/checks.py": suppressed},
                               [CrossDomainArithmeticRule()])
        assert findings == []

    def test_cross_domain_addition_fires(self, tmp_path):
        findings = domain_lint(tmp_path, {"core/checks.py": (
            "from repro.common.addrspace import takes\n"
            "\n"
            "@takes(gva=\"gva\", hpa=\"hpa\")\n"
            "def added(gva, hpa):\n"
            "    return gva + hpa\n"
        )}, [CrossDomainArithmeticRule()])
        assert [f.rule_id for f in findings] == ["REPRO601"]

    def test_comparison_inside_nested_helper_fires_once(self, tmp_path):
        """A nested def is checked in a copy of the enclosing env, so a
        closed-over gpa/hpa mix inside the helper is still caught."""
        findings = domain_lint(tmp_path, {"core/checks.py": (
            "from repro.common.addrspace import takes\n"
            "\n"
            "@takes(gpa=\"gpa\", hpa=\"hpa\")\n"
            "def outer(gpa, hpa):\n"
            "    def check():\n"
            "        return gpa == hpa\n"
            "    return check()\n"
        )}, [CrossDomainArithmeticRule()])
        assert [(f.rule_id, f.line) for f in findings] == [("REPRO601", 6)]
        assert "cross-domain comparison" in findings[0].message


class TestWrongDomainArgument:
    SWAPPED = (
        "from repro.common.addrspace import takes\n"
        "\n"
        "@takes(hfn=\"hfn\")\n"
        "def host_side(hfn):\n"
        "    return hfn\n"
        "\n"
        "@takes(gfn=\"gfn\")\n"
        "def caller(gfn):\n"
        "    return host_side(gfn)\n"
    )

    def test_gfn_passed_where_hfn_declared_fires_once(self, tmp_path):
        findings = domain_lint(tmp_path, {"core/frames.py": self.SWAPPED},
                               [WrongDomainArgumentRule()])
        assert [f.rule_id for f in findings] == ["REPRO602"]
        assert "hfn" in findings[0].message
        assert "gfn" in findings[0].message

    def test_matching_domain_is_clean(self, tmp_path):
        findings = domain_lint(tmp_path, {"core/frames.py": (
            "from repro.common.addrspace import takes\n"
            "\n"
            "@takes(hfn=\"hfn\")\n"
            "def host_side(hfn):\n"
            "    return hfn\n"
            "\n"
            "@takes(frame=\"hfn\")\n"
            "def caller(frame):\n"
            "    return host_side(frame)\n"
        )}, [WrongDomainArgumentRule()])
        assert findings == []

    def test_nested_helper_return_is_not_the_enclosing_return(
            self, tmp_path):
        """The helper's ``return hfn`` neither violates the enclosing
        ``@returns("gfn")`` nor enters its inferred return summary."""
        findings = domain_lint(tmp_path, {"core/frames.py": (
            "from repro.common.addrspace import returns, takes\n"
            "\n"
            "@takes(gfn=\"gfn\", hfn=\"hfn\")\n"
            "@returns(\"gfn\")\n"
            "def declared(gfn, hfn):\n"
            "    def helper():\n"
            "        return hfn\n"
            "    helper()\n"
            "    return gfn\n"
            "\n"
            "@takes(hfn=\"hfn\")\n"
            "def inferred(hfn):\n"
            "    def helper():\n"
            "        return hfn\n"
            "    helper()\n"
            "\n"
            "@takes(gfn=\"gfn\")\n"
            "def guest_side(gfn):\n"
            "    return gfn\n"
            "\n"
            "@takes(hfn=\"hfn\")\n"
            "def caller(hfn):\n"
            "    return guest_side(inferred(hfn))\n"
        )}, [WrongDomainArgumentRule()])
        assert findings == []

    def test_noqa_suppresses(self, tmp_path):
        suppressed = self.SWAPPED.replace(
            "return host_side(gfn)",
            "return host_side(gfn)  # repro: noqa[REPRO602]")
        findings = domain_lint(tmp_path, {"core/frames.py": suppressed},
                               [WrongDomainArgumentRule()])
        assert findings == []


class TestUntranslatedGuestAddress:
    LEAKED = (
        "from repro.common.addrspace import takes\n"
        "\n"
        "class Device:\n"
        "    @takes(gfn=\"gfn\")\n"
        "    def dma_read(self, gfn):\n"
        "        return self.host_mem.read(gfn)\n"
    )

    def test_guest_frame_reaching_host_ram_fires_once(self, tmp_path):
        findings = domain_lint(tmp_path, {"core/device.py": self.LEAKED},
                               [UntranslatedGuestAddressRule()])
        assert [f.rule_id for f in findings] == ["REPRO603"]
        assert "host_mem.read" in findings[0].message
        assert "translator" in findings[0].message

    def test_host_frame_reaching_host_ram_is_clean(self, tmp_path):
        findings = domain_lint(tmp_path, {"core/device.py": (
            "from repro.common.addrspace import takes\n"
            "\n"
            "class Device:\n"
            "    @takes(hfn=\"hfn\")\n"
            "    def dma_read(self, hfn):\n"
            "        return self.host_mem.read(hfn)\n"
        )}, [UntranslatedGuestAddressRule()])
        assert findings == []

    def test_guest_frame_reaching_guest_ram_is_clean(self, tmp_path):
        findings = domain_lint(tmp_path, {"core/device.py": (
            "from repro.common.addrspace import takes\n"
            "\n"
            "class Device:\n"
            "    @takes(gfn=\"gfn\")\n"
            "    def read(self, gfn):\n"
            "        return self.guest_mem.read(gfn)\n"
        )}, [UntranslatedGuestAddressRule()])
        assert findings == []

    def test_noqa_suppresses(self, tmp_path):
        suppressed = self.LEAKED.replace(
            "return self.host_mem.read(gfn)",
            "return self.host_mem.read(gfn)  # repro: noqa[REPRO603]")
        findings = domain_lint(tmp_path, {"core/device.py": suppressed},
                               [UntranslatedGuestAddressRule()])
        assert findings == []


class TestFrameByteConfusion:
    DOUBLE_SHIFT = (
        "from repro.common.addrspace import takes\n"
        "\n"
        "@takes(gfn=\"gfn\")\n"
        "def twice(gfn):\n"
        "    return gfn >> 12\n"
    )

    def test_page_shifting_a_frame_fires_once(self, tmp_path):
        findings = domain_lint(tmp_path, {"core/shift.py": self.DOUBLE_SHIFT},
                               [FrameByteConfusionRule()])
        assert [f.rule_id for f in findings] == ["REPRO604"]
        assert "page-shifting" in findings[0].message

    def test_page_shifting_an_address_is_clean(self, tmp_path):
        findings = domain_lint(tmp_path, {"core/shift.py": (
            "from repro.common.addrspace import takes\n"
            "\n"
            "@takes(gpa=\"gpa\")\n"
            "def once(gpa):\n"
            "    return gpa >> 12\n"
        )}, [FrameByteConfusionRule()])
        assert findings == []

    def test_byte_address_indexing_ram_fires(self, tmp_path):
        findings = domain_lint(tmp_path, {"core/ram.py": (
            "from repro.common.addrspace import takes\n"
            "\n"
            "class Device:\n"
            "    @takes(gpa=\"gpa\")\n"
            "    def read(self, gpa):\n"
            "        return self.guest_mem.read(gpa)\n"
        )}, [FrameByteConfusionRule()])
        assert [f.rule_id for f in findings] == ["REPRO604"]
        assert "byte address" in findings[0].message

    def test_noqa_suppresses(self, tmp_path):
        suppressed = self.DOUBLE_SHIFT.replace(
            "return gfn >> 12",
            "return gfn >> 12  # repro: noqa[REPRO604]")
        findings = domain_lint(tmp_path, {"core/shift.py": suppressed},
                               [FrameByteConfusionRule()])
        assert findings == []


class TestTranslatorClosure:
    BACKWARDS = (
        "from repro.common.addrspace import takes, translates\n"
        "\n"
        "@translates(\"hpa\", \"gpa\")\n"
        "@takes(hpa=\"hpa\")\n"
        "def backwards(hpa):\n"
        "    return hpa\n"
    )

    def test_non_paper_edge_fires_once(self, tmp_path):
        findings = domain_lint(tmp_path, {"core/reverse.py": self.BACKWARDS},
                               [TranslatorClosureRule()])
        assert [f.rule_id for f in findings] == ["REPRO605"]
        assert "not a paper-model edge" in findings[0].message

    def test_paper_edge_is_clean(self, tmp_path):
        findings = domain_lint(tmp_path, {"core/forward.py": (
            "from repro.common.addrspace import takes, translates\n"
            "\n"
            "@translates(\"gpa\", \"hpa\")\n"
            "@takes(gpa=\"gpa\")\n"
            "def forward(gpa):\n"
            "    return gpa\n"
        )}, [TranslatorClosureRule()])
        assert findings == []

    def test_walker_module_without_gfn_translator_fires(self, tmp_path):
        """Coverage: a ``hw/walker.py`` module must declare the
        gfn→hfn step (anchored at line 1 of the module)."""
        findings = domain_lint(tmp_path, {"hw/walker.py": (
            "class Walker:\n"
            "    def walk(self, proc, va):\n"
            "        return None\n"
        )}, [TranslatorClosureRule()])
        assert [f.rule_id for f in findings] == ["REPRO605"]
        assert "repro.hw.walker" in findings[0].message
        assert "@translates" in findings[0].message
        assert findings[0].line == 1

    def test_walker_module_with_gfn_translator_is_clean(self, tmp_path):
        findings = domain_lint(tmp_path, {"hw/walker.py": (
            "from repro.common.addrspace import returns, takes, translates\n"
            "\n"
            "class Walker:\n"
            "    @translates(\"gfn\", \"hfn\")\n"
            "    @takes(gfn=\"gfn\")\n"
            "    @returns(\"hfn\")\n"
            "    def nested(self, gfn):\n"
            "        return gfn\n"
        )}, [TranslatorClosureRule()])
        assert findings == [], "\n".join(f.format() for f in findings)

    def test_noqa_on_line_one_suppresses_coverage(self, tmp_path):
        findings = domain_lint(tmp_path, {"hw/walker.py": (
            "# repro: noqa[REPRO605]\n"
            "class Walker:\n"
            "    def walk(self, proc, va):\n"
            "        return None\n"
        )}, [TranslatorClosureRule()])
        assert findings == []


class TestWholeRuleSet:
    def test_mixed_fixture_reports_each_rule_once(self, tmp_path):
        """All five rules coexist on one tree without double-reporting."""
        findings = domain_lint(tmp_path, {
            "core/checks.py": TestCrossDomainArithmetic.MIXED,
            "core/frames.py": TestWrongDomainArgument.SWAPPED,
            "core/shift.py": TestFrameByteConfusion.DOUBLE_SHIFT,
        })
        assert sorted(f.rule_id for f in findings) == [
            "REPRO601", "REPRO602", "REPRO604"]
        root = str(tmp_path / "repro")
        assert [f.format() for f in findings] == [
            root + "/core/checks.py:5:11: REPRO601 [cross-domain-arith] "
            "cross-domain comparison: gpa (`gpa` is a gpa parameter of "
            "`repro.core.checks.confused`) vs hpa (`hpa` is a hpa parameter "
            "of `repro.core.checks.confused`)",
            root + "/core/frames.py:9:21: REPRO602 [wrong-domain-arg] "
            "argument `hfn` of `repro.core.frames.host_side` expects hfn, "
            "got gfn — `gfn` is a gfn parameter of `repro.core.frames.caller`",
            root + "/core/shift.py:5:11: REPRO604 [frame-byte-confusion] "
            "page-shifting gfn again: it is already a frame number (`gfn` "
            "is a gfn parameter of `repro.core.shift.twice`)",
        ]
