"""``--format sarif`` renders a valid minimal SARIF 2.1.0 log.

CI uploads this as an artifact next to the JSON findings; code-scanning
UIs consume it directly, so the shape (tool.driver.rules catalogue,
1-based columns) is pinned here.
"""

import io
import json

from repro.lint.flow.rules import FLOW_RULES
from repro.lint.runner import run_lint

UPWARD = (
    "def frames():\n"
    "    from repro.core import machine\n"
    "    return machine\n"
)


def _write_package(tmp_path, sources):
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
    return tmp_path / "repro"


def _sarif_run(package):
    out, err = io.StringIO(), io.StringIO()
    code = run_lint(paths=[str(package)], fmt="sarif", out=out, err=err,
                    rules=FLOW_RULES, deep=True)
    assert err.getvalue() == ""
    return code, json.loads(out.getvalue())


def test_findings_render_as_sarif(tmp_path):
    package = _write_package(tmp_path, {"mem/frames.py": UPWARD})
    code, payload = _sarif_run(package)
    assert code == 1
    assert payload["version"] == "2.1.0"
    assert "sarif-schema-2.1.0" in payload["$schema"]
    [run] = payload["runs"]
    assert run["tool"]["driver"]["name"] == "repro-lint"
    [result] = run["results"]
    assert result["ruleId"] == "REPRO501"
    assert result["level"] == "error"
    assert "imports `repro.core` (layer 4)" in result["message"]["text"]
    [location] = result["locations"]
    region = location["physicalLocation"]["region"]
    assert region["startLine"] == 2
    assert region["startColumn"] == 5  # 0-based col 4, SARIF is 1-based
    uri = location["physicalLocation"]["artifactLocation"]["uri"]
    assert uri.endswith("repro/mem/frames.py")


def test_rule_catalogue_covers_parse_errors_and_configured_rules(tmp_path):
    package = _write_package(tmp_path, {"mem/frames.py": UPWARD})
    _code, payload = _sarif_run(package)
    rule_ids = {rule["id"]
                for rule in payload["runs"][0]["tool"]["driver"]["rules"]}
    assert "REPRO001" in rule_ids  # syntax errors are reportable
    assert {rule.rule_id for rule in FLOW_RULES} <= rule_ids


def test_clean_tree_renders_empty_results_and_exits_zero(tmp_path):
    package = _write_package(tmp_path, {"core/fine.py": "VALUE = 1\n"})
    code, payload = _sarif_run(package)
    assert code == 0
    assert payload["runs"][0]["results"] == []
