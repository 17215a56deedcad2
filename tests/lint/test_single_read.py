"""Every lint run reads and parses each file exactly once.

Before PR 6 a cached ``repro lint`` run read every file twice: once to
hash it for the cache key and once more inside the engine. The runner
now reads sources once (:func:`repro.lint.engine.read_sources`), hashes
the in-memory text, and hands the same strings to the engine. These
tests count ``open`` and ``ast.parse`` calls to pin that down.
"""

import ast
import builtins
import io
import json

from repro.lint.flow.rules import FLOW_RULES
from repro.lint.runner import run_lint

SOURCES = {
    "core/one.py": (
        "def touch(gpa):\n"
        "    return gpa\n"
    ),
    "core/two.py": "VALUE = 2\n",
    "mem/three.py": "VALUE = 3\n",
}


def _write_package(tmp_path):
    for relpath, source in SOURCES.items():
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


def test_cold_run_reads_and_parses_each_file_once(tmp_path, monkeypatch):
    package = _write_package(tmp_path)
    parse_counts = {}
    real_parse = ast.parse

    def counting_parse(source, filename="<unknown>", *args, **kwargs):
        name = str(filename)
        if name.startswith(str(package)) and name.endswith(".py"):
            parse_counts[name] = parse_counts.get(name, 0) + 1
        return real_parse(source, filename, *args, **kwargs)

    open_counts = {}
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        name = str(file)
        if name.startswith(str(package)) and name.endswith(".py"):
            open_counts[name] = open_counts.get(name, 0) + 1
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(ast, "parse", counting_parse)
    monkeypatch.setattr(builtins, "open", counting_open)

    out = io.StringIO()
    code = run_lint(paths=[str(package)], fmt="json", out=out, err=out,
                    rules=FLOW_RULES, deep=True,
                    cache_dir=str(tmp_path / "cache"))
    assert code == 0, out.getvalue()
    checked = json.loads(out.getvalue())["checked_files"]
    assert checked == len(parse_counts) == len(open_counts)
    assert set(parse_counts.values()) == {1}, parse_counts
    assert set(open_counts.values()) == {1}, open_counts


def test_warm_run_reads_once_for_hashing_and_never_parses(
        tmp_path, monkeypatch):
    package = _write_package(tmp_path)
    cache_dir = str(tmp_path / "cache")
    assert run_lint(paths=[str(package)], fmt="json", out=io.StringIO(),
                    err=io.StringIO(), rules=FLOW_RULES, deep=True,
                    cache_dir=cache_dir) == 0

    parse_counts = {}
    real_parse = ast.parse

    def counting_parse(source, filename="<unknown>", *args, **kwargs):
        name = str(filename)
        if name.startswith(str(package)) and name.endswith(".py"):
            parse_counts[name] = parse_counts.get(name, 0) + 1
        return real_parse(source, filename, *args, **kwargs)

    open_counts = {}
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        name = str(file)
        if name.startswith(str(package)) and name.endswith(".py"):
            open_counts[name] = open_counts.get(name, 0) + 1
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(ast, "parse", counting_parse)
    monkeypatch.setattr(builtins, "open", counting_open)

    out = io.StringIO()
    code = run_lint(paths=[str(package)], fmt="json", out=out, err=out,
                    rules=FLOW_RULES, deep=True, cache_dir=cache_dir)
    assert code == 0, out.getvalue()
    # The warm path still hashes every file for the cache key (one read
    # each) but reconstructs the result without parsing a single AST.
    assert set(open_counts.values()) == {1}, open_counts
    assert parse_counts == {}, parse_counts
