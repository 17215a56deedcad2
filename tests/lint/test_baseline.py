"""The ``--baseline`` ratchet: known findings are tolerated, new ones
fail, and ``--write-baseline`` records the current state.

The committed repo baseline (``lint-baseline.json``) is *empty* — the
annotated tree lints clean — so the ratchet exists purely to keep it
that way: any new deep-lint finding fails CI even if someone tries to
grandfather it in by hand-editing the baseline (the key includes the
message text, so stale entries simply never match).
"""

import io
import json
import os

from repro.lint.domains.rules import DOMAIN_RULES
from repro.lint.runner import load_baseline, run_lint

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

DOUBLE_SHIFT = (
    "from repro.common.addrspace import takes\n"
    "\n"
    "@takes(gfn=\"gfn\")\n"
    "def twice(gfn):\n"
    "    return gfn >> 12\n"
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


def _run(package, **kwargs):
    out, err = io.StringIO(), io.StringIO()
    code = run_lint(paths=[str(package)], out=out, err=err,
                    rules=DOMAIN_RULES, deep=True, **kwargs)
    return code, out.getvalue(), err.getvalue()


def test_write_baseline_records_current_findings(tmp_path):
    package = _write_package(tmp_path, {"core/frames.py": SWAPPED})
    baseline = tmp_path / "baseline.json"
    code, out, err = _run(package, baseline=str(baseline),
                          write_baseline=True)
    assert code == 0 and err == ""
    assert "recorded 1 finding" in out
    payload = json.loads(baseline.read_text())
    assert payload["schema"] == 1
    [entry] = payload["findings"]
    assert entry["rule_id"] == "REPRO602"
    assert entry["path"] == "repro/core/frames.py"  # checkout-relative


def test_baselined_findings_are_tolerated(tmp_path):
    package = _write_package(tmp_path, {"core/frames.py": SWAPPED})
    baseline = tmp_path / "baseline.json"
    assert _run(package, baseline=str(baseline),
                write_baseline=True)[0] == 0
    code, out, _err = _run(package, baseline=str(baseline))
    assert code == 0
    assert "clean (1 baselined)" in out


def test_new_findings_still_fail(tmp_path):
    package = _write_package(tmp_path, {"core/frames.py": SWAPPED})
    baseline = tmp_path / "baseline.json"
    assert _run(package, baseline=str(baseline),
                write_baseline=True)[0] == 0
    (package / "core" / "shift.py").write_text(DOUBLE_SHIFT)
    code, out, _err = _run(package, fmt="json", baseline=str(baseline))
    assert code == 1
    payload = json.loads(out)
    assert payload["finding_count"] == 1
    assert payload["baselined_count"] == 1
    assert payload["findings"][0]["rule_id"] == "REPRO604"


def test_missing_baseline_is_a_usage_error(tmp_path):
    package = _write_package(tmp_path, {"core/frames.py": SWAPPED})
    code, _out, err = _run(package,
                           baseline=str(tmp_path / "nope.json"))
    assert code == 2
    assert "cannot read baseline" in err


def test_malformed_baseline_is_a_usage_error(tmp_path):
    package = _write_package(tmp_path, {"core/frames.py": SWAPPED})
    baseline = tmp_path / "baseline.json"
    baseline.write_text('{"schema": 99, "findings": []}\n')
    code, _out, err = _run(package, baseline=str(baseline))
    assert code == 2
    assert "unsupported baseline schema" in err


def test_write_baseline_requires_baseline_path(tmp_path):
    package = _write_package(tmp_path, {"core/frames.py": SWAPPED})
    code, _out, err = _run(package, write_baseline=True)
    assert code == 2
    assert "--write-baseline requires --baseline" in err


def test_committed_repo_baseline_is_empty():
    """The shipped baseline tolerates nothing: the tree must stay clean."""
    repo_root = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             os.pardir, os.pardir)
    path = os.path.join(repo_root, "lint-baseline.json")
    assert os.path.isfile(path)
    assert load_baseline(path) == set()
