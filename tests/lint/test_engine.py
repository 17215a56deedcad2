"""Engine mechanics: discovery, parse errors, suppression, output."""

import io
import json

from repro.cli import main as cli_main
from repro.lint import DEEP_RULES
from repro.lint.engine import LintEngine
from repro.lint.rules import DEFAULT_RULES
from repro.lint.runner import list_rules, run_lint

from .helpers import lint_sources

BAD = "def f(a=[]):\n    return a\n"


class TestParseErrors:
    def test_syntax_error_becomes_repro001(self, tmp_path):
        findings = lint_sources(tmp_path, {"broken.py": "def f(:\n"})
        assert len(findings) == 1
        assert findings[0].rule_id == "REPRO001"
        assert findings[0].rule_name == "parse-error"
        assert "syntax error" in findings[0].message

    def test_broken_file_does_not_hide_other_files(self, tmp_path):
        findings = lint_sources(tmp_path, {
            "broken.py": "def f(:\n",
            "bad.py": BAD,
        })
        assert {f.rule_id for f in findings} == {"REPRO001", "REPRO102"}


class TestSuppression:
    def test_disable_by_name_id_and_all(self, tmp_path):
        findings = lint_sources(tmp_path, {"s.py": (
            "def f(a=[]):  # lint: disable=mutable-default\n"
            "    return a\n"
            "def g(b=[]):  # lint: disable=REPRO102\n"
            "    return b\n"
            "def h(c=[]):  # lint: disable=all\n"
            "    return c\n"
        )})
        assert findings == []

    def test_wrong_name_does_not_suppress(self, tmp_path):
        findings = lint_sources(tmp_path, {"s.py": (
            "def f(a=[]):  # lint: disable=bare-except\n"
            "    return a\n"
        )})
        assert len(findings) == 1

    def test_suppression_only_covers_its_own_line(self, tmp_path):
        findings = lint_sources(tmp_path, {"s.py": (
            "# lint: disable=all\n"
            "def f(a=[]):\n"
            "    return a\n"
        )})
        assert len(findings) == 1


class TestOutput:
    def test_findings_are_sorted_and_formatted(self, tmp_path):
        findings = lint_sources(tmp_path, {
            "b.py": BAD,
            "a.py": "try:\n    pass\nexcept:\n    pass\n" + BAD,
        })
        keys = [(f.path, f.line, f.col, f.rule_id) for f in findings]
        assert keys == sorted(keys)
        line = findings[0].format()
        assert line.startswith(findings[0].path + ":")
        assert "[bare-except]" in line or "[mutable-default]" in line

    def test_run_lint_json_payload(self, tmp_path):
        (tmp_path / "bad.py").write_text(BAD)
        out = io.StringIO()
        rc = run_lint([str(tmp_path)], fmt="json", out=out)
        assert rc == 1
        payload = json.loads(out.getvalue())
        assert payload["checked_files"] == 1
        assert payload["finding_count"] == 1
        finding = payload["findings"][0]
        assert finding["rule_id"] == "REPRO102"
        assert finding["path"].endswith("bad.py")
        assert finding["line"] == 1

    def test_run_lint_text_clean(self, tmp_path):
        (tmp_path / "good.py").write_text("x = 1\n")
        out = io.StringIO()
        rc = run_lint([str(tmp_path)], fmt="text", out=out)
        assert rc == 0
        assert "checked 1 files: clean" in out.getvalue()

    def test_missing_path_is_usage_error(self, tmp_path):
        out = io.StringIO()
        err = io.StringIO()
        rc = run_lint([str(tmp_path / "nope")], out=out, err=err)
        assert rc == 2
        assert "lint:" in err.getvalue()
        assert out.getvalue() == ""

    def test_list_rules_prints_catalogue(self):
        out = io.StringIO()
        assert list_rules(out) == 0
        text = out.getvalue()
        for rule_id in ("REPRO001",) + tuple(r.rule_id for r in DEEP_RULES):
            assert rule_id in text

    def test_non_py_files_are_ignored(self, tmp_path):
        (tmp_path / "notes.txt").write_text("def f(a=[]): pass\n")
        engine = LintEngine(DEFAULT_RULES)
        findings, checked = engine.run([str(tmp_path)])
        assert findings == []
        assert checked == 0


class TestCLI:
    def test_cli_lint_clean_and_dirty(self, tmp_path):
        (tmp_path / "good.py").write_text("x = 1\n")
        out = io.StringIO()
        assert cli_main(["lint", str(tmp_path)], out=out) == 0
        (tmp_path / "bad.py").write_text(BAD)
        out = io.StringIO()
        assert cli_main(["lint", str(tmp_path)], out=out) == 1
        assert "mutable-default" in out.getvalue()

    def test_cli_lint_json(self, tmp_path):
        (tmp_path / "bad.py").write_text(BAD)
        out = io.StringIO()
        rc = cli_main(["lint", "--format", "json", str(tmp_path)], out=out)
        assert rc == 1
        payload = json.loads(out.getvalue())
        assert payload["finding_count"] == 1

    def test_cli_list_rules(self):
        out = io.StringIO()
        assert cli_main(["lint", "--list-rules"], out=out) == 0
        assert "shadow-authority" in out.getvalue()
