"""Shared fixture plumbing for the lint tests."""

import os
import shutil

import repro
from repro.lint.engine import LintEngine
from repro.lint.rules import DEFAULT_RULES


def lint_sources(tmp_path, sources, rules=None):
    """Write ``{relpath: source}`` under ``tmp_path`` and lint the tree."""
    for relpath, source in sources.items():
        path = tmp_path / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
    engine = LintEngine(DEFAULT_RULES if rules is None else rules)
    findings, _checked = engine.run([str(tmp_path)])
    return findings


def rule_ids(findings):
    return sorted({f.rule_id for f in findings})


def package_dir():
    """The installed ``repro`` package the mutants are copied from."""
    return os.path.dirname(os.path.abspath(repro.__file__))


def mutate_package(tmp_path, relpath, needle, replacement):
    """Copy the ``repro`` package to ``tmp_path/repro`` and replace
    ``needle`` with ``replacement`` in its ``relpath`` (posix, relative
    to the package). Returns the mutant package directory."""
    mutant = tmp_path / "repro"
    shutil.copytree(package_dir(), mutant,
                    ignore=shutil.ignore_patterns("__pycache__"))
    target = mutant.joinpath(*relpath.split("/"))
    source = target.read_text()
    assert needle in source  # the code this mutation depends on
    target.write_text(source.replace(needle, replacement))
    return mutant
