"""Fixture tests for the interprocedural rules (REPRO4xx/5xx).

Each positive fixture makes its rule fire *exactly once*; the clean
variants show the same shape with the contract satisfied. Fixtures are
written as a fake ``repro`` package (``__init__.py`` chains included)
so module naming, layer lookup, and relative-import resolution behave
exactly as on the real tree.
"""

from repro.lint.engine import LintEngine
from repro.lint.flow.analysis import build_program
from repro.lint.flow.rules import (
    ConfigKeysRule,
    EventTaxonomyRule,
    LayeringRule,
    ShadowAuthorityRule,
)
from repro.lint.rules import _import_aliases


def flow_lint(tmp_path, sources, rules):
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


SHADOW_MGR = (
    "class ShadowManager:\n"
    "    @mutates(\"shadow_pt\")\n"
    "    def fill_for(self, proc, va):\n"
    "        return None\n"
)


class TestShadowAuthority:
    def test_unauthorized_caller_fires_once(self, tmp_path):
        findings = flow_lint(tmp_path, {
            "vmm/shadowmgr.py": SHADOW_MGR,
            "core/machine.py": (
                "class Machine:\n"
                "    def access(self, proc, va):\n"
                "        self.manager.fill_for(proc, va)\n"
            ),
        }, [ShadowAuthorityRule()])
        assert len(findings) == 1
        assert findings[0].rule_id == "REPRO401"
        assert "fill_for" in findings[0].message
        assert findings[0].path.endswith("core/machine.py")

    def test_trap_handler_and_peer_mutator_are_authorized(self, tmp_path):
        findings = flow_lint(tmp_path, {
            "vmm/shadowmgr.py": SHADOW_MGR,
            "vmm/vmm.py": (
                "class VMM:\n"
                "    @trap_handler\n"
                "    def handle_shadow_fault(self, proc, va):\n"
                "        self.manager.fill_for(proc, va)\n"
            ),
            "vmm/other.py": (
                "class Other:\n"
                "    @mutates(\"shadow_pt\")\n"
                "    def rebuild(self, proc, va):\n"
                "        self.manager.fill_for(proc, va)\n"
            ),
        }, [ShadowAuthorityRule()])
        assert findings == []


class TestEventTaxonomy:
    TRACER = (
        "class NullTracer:\n"
        "    def mark(self, now, label):\n"
        "        pass\n"
        "class Tracer(NullTracer):\n"
        "    def mark(self, now, label):\n"
        "        self._emit(EV_MARK, now)\n"
    )

    def test_typoed_emit_method_fires_once(self, tmp_path):
        findings = flow_lint(tmp_path, {
            "obs/tracer.py": self.TRACER,
            "core/machine.py": (
                "class Machine:\n"
                "    def run(self):\n"
                "        self.tracer.makr(0, \"boot\")\n"
            ),
        }, [EventTaxonomyRule()])
        assert len(findings) == 1
        assert findings[0].rule_id == "REPRO404"
        assert "makr" in findings[0].message

    def test_stray_event_kind_fires_once(self, tmp_path):
        findings = flow_lint(tmp_path, {
            "obs/tracer.py": self.TRACER,
            "obs/events.py": (
                "EV_MARK = \"mark\"\n"
                "EV_GHOST = \"ghost\"\n"
                "ALL_EVENT_KINDS = (EV_MARK,)\n"
            ),
        }, [EventTaxonomyRule()])
        assert len(findings) == 1
        assert "EV_GHOST" in findings[0].message

    def test_interface_calls_and_closed_taxonomy_are_clean(self, tmp_path):
        findings = flow_lint(tmp_path, {
            "obs/tracer.py": self.TRACER,
            "obs/events.py": (
                "EV_MARK = \"mark\"\n"
                "ALL_EVENT_KINDS = (EV_MARK,)\n"
            ),
            "core/machine.py": (
                "class Machine:\n"
                "    def run(self):\n"
                "        self.tracer.mark(0, \"boot\")\n"
            ),
        }, [EventTaxonomyRule()])
        assert findings == []


class TestLayering:
    def test_upward_import_fires_once(self, tmp_path):
        findings = flow_lint(tmp_path, {
            "mem/pager.py": "from repro.vmm import vmm\n",
            "vmm/vmm.py": "x = 1\n",
        }, [LayeringRule()])
        assert len(findings) == 1
        assert findings[0].rule_id == "REPRO501"
        assert "layer violation" in findings[0].message

    def test_relative_upward_import_fires_once(self, tmp_path):
        findings = flow_lint(tmp_path, {
            "mem/pager.py": "from ..vmm import vmm\n",
            "vmm/vmm.py": "x = 1\n",
        }, [LayeringRule()])
        assert len(findings) == 1
        assert "repro.vmm.vmm" in findings[0].message

    def test_downward_and_lateral_imports_are_clean(self, tmp_path):
        findings = flow_lint(tmp_path, {
            "vmm/vmm.py": (
                "from repro.common import config\n"
                "from repro.mem import pte\n"
                "from . import traps\n"
            ),
            "vmm/traps.py": "x = 1\n",
            "common/config.py": "x = 1\n",
            "mem/pte.py": "x = 1\n",
        }, [LayeringRule()])
        assert findings == []

    def test_tracer_port_inversion_is_allowed(self, tmp_path):
        # obs.tracer is declared layer 0 (a port): core may import it.
        findings = flow_lint(tmp_path, {
            "core/machine.py": "from repro.obs.tracer import NullTracer\n",
            "obs/tracer.py": "class NullTracer:\n    pass\n",
        }, [LayeringRule()])
        assert findings == []


class TestConfigKeys:
    def test_dead_field_fires_once(self, tmp_path):
        findings = flow_lint(tmp_path, {
            "common/config.py": (
                "from dataclasses import dataclass\n"
                "@dataclass\n"
                "class CostModel:\n"
                "    cycles_used: int = 1\n"
                "    cycles_dead: int = 0\n"
            ),
            "core/machine.py": (
                "def charge(cost):\n"
                "    return cost.cycles_used\n"
            ),
        }, [ConfigKeysRule()])
        assert len(findings) == 1
        assert findings[0].rule_id == "REPRO502"
        assert "cycles_dead" in findings[0].message

    def test_phantom_override_key_fires_once(self, tmp_path):
        findings = flow_lint(tmp_path, {
            "common/config.py": (
                "from dataclasses import dataclass\n"
                "@dataclass\n"
                "class PWCConfig:\n"
                "    enabled: bool = True\n"
                "@dataclass\n"
                "class MachineConfig:\n"
                "    pwc: PWCConfig = None\n"
            ),
            "runner/sweep.py": (
                "def cells(cfg):\n"
                "    if cfg.pwc.enabled:\n"
                "        return {\"pwc.nope\": False}\n"
                "    return {\"pwc.enabled\": False}\n"
            ),
        }, [ConfigKeysRule()])
        assert len(findings) == 1
        assert "pwc.nope" in findings[0].message
        assert findings[0].path.endswith("runner/sweep.py")


class TestCallGraph:
    """Direct checks of the analysis the rules share."""

    def _program(self, tmp_path, sources):
        import ast as ast_mod

        from repro.lint.engine import SourceFile, _iter_python_files

        flow_lint(tmp_path, sources, [])
        files = []
        for path in _iter_python_files([str(tmp_path / "repro")]):
            with open(path, "r", encoding="utf-8") as handle:
                source = handle.read()
            files.append(SourceFile(path, source, ast_mod.parse(source)))
        return build_program(files)

    def test_aliased_and_relative_calls_resolve(self, tmp_path):
        program = self._program(tmp_path, {
            "vmm/traps.py": "def charge(kind):\n    return 1\n",
            "vmm/vmm.py": (
                "from . import traps as T\n"
                "def handle():\n"
                "    return T.charge(\"x\")\n"
            ),
        })
        info = program.functions["repro.vmm.vmm.handle"]
        assert [(c.candidates, c.ambiguous) for c in info.calls] == [
            (("repro.vmm.traps.charge",), False)]

    def test_name_match_is_marked_ambiguous(self, tmp_path):
        program = self._program(tmp_path, {
            "vmm/a.py": "class A:\n    def tick(self):\n        pass\n",
            "vmm/b.py": "class B:\n    def tick(self):\n        pass\n",
            "core/m.py": (
                "def drive(policy):\n"
                "    policy.tick()\n"
            ),
        })
        info = program.functions["repro.core.m.drive"]
        assert len(info.calls) == 1
        assert info.calls[0].ambiguous
        assert set(info.calls[0].candidates) == {
            "repro.vmm.a.A.tick", "repro.vmm.b.B.tick"}


class TestImportAliasResolution:
    def test_relative_import_resolves_against_package(self):
        import ast as ast_mod
        tree = ast_mod.parse(
            "from ..common.config import MachineConfig\n"
            "from . import traps as T\n"
        )
        aliases = _import_aliases(tree, package="repro.vmm")
        assert aliases["MachineConfig"] == "repro.common.config.MachineConfig"
        assert aliases["T"] == "repro.vmm.traps"

    def test_relative_import_without_package_is_skipped(self):
        import ast as ast_mod
        tree = ast_mod.parse("from ..common import config\n")
        assert _import_aliases(tree, package=None) == {}
