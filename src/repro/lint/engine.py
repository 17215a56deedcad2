"""The AST lint engine: file discovery, parsing, rule dispatch.

Two rule shapes exist. A plain :class:`Rule` inspects one parsed file at
a time; a :class:`ProjectRule` runs once over the *whole* file set, which
is what cross-module contracts (config fields vs. their readers)
and the ``repro.lint.flow`` whole-program rules need. Both yield
:class:`Finding` objects the runner renders as text or JSON.

Suppression comes in two spellings, both per-line:

* ``# lint: disable=<rule-name>`` (or the rule ID, or ``all``) — the
  original syntax,
* ``# repro: noqa[...]`` with comma-separated IDs/names (e.g.
  ``REPRO101``) or ``all`` between the brackets.

Every suppression the engine sees is recorded with a used/unused flag so
``repro lint --audit-suppressions`` can list them and fail on dead ones.
Use sparingly; every suppression is a claim that the contract holds
anyway.
"""

import ast
import hashlib
import os
import re

SUPPRESS_RE = re.compile(r"#\s*lint:\s*disable=([A-Za-z0-9_,\-]+)")
NOQA_RE = re.compile(r"#\s*repro:\s*noqa\[([A-Za-z0-9_,\s\-]+)\]")

SKIP_DIR_SUFFIXES = ("__pycache__", ".egg-info")


class Finding:
    """One rule violation at one source location."""

    __slots__ = ("rule_id", "rule_name", "path", "line", "col", "message")

    def __init__(self, rule_id, rule_name, path, line, col, message):
        self.rule_id = rule_id
        self.rule_name = rule_name
        self.path = path
        self.line = line
        self.col = col
        self.message = message

    def as_dict(self):
        return {
            "rule_id": self.rule_id,
            "rule": self.rule_name,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }

    @classmethod
    def from_dict(cls, payload):
        return cls(payload["rule_id"], payload["rule"], payload["path"],
                   payload["line"], payload["col"], payload["message"])

    def format(self):
        return "%s:%d:%d: %s [%s] %s" % (
            self.path, self.line, self.col, self.rule_id, self.rule_name,
            self.message,
        )

    def __repr__(self):
        return "Finding(%s)" % self.format()


class Suppression:
    """One suppression marker (either spelling) at one source line."""

    __slots__ = ("path", "line", "names", "used")

    def __init__(self, path, line, names, used=False):
        self.path = path
        self.line = line
        self.names = frozenset(names)
        self.used = used

    def matches(self, finding):
        return ("all" in self.names or finding.rule_name in self.names
                or finding.rule_id in self.names)

    def as_dict(self):
        return {"path": self.path, "line": self.line,
                "names": sorted(self.names), "used": self.used}

    @classmethod
    def from_dict(cls, payload):
        return cls(payload["path"], payload["line"], payload["names"],
                   payload["used"])

    def format(self):
        return "%s:%d: suppresses %s [%s]" % (
            self.path, self.line, ",".join(sorted(self.names)),
            "used" if self.used else "UNUSED")


class LintResult:
    """Everything one engine run produced."""

    __slots__ = ("findings", "checked", "suppressions")

    def __init__(self, findings, checked, suppressions):
        self.findings = findings
        self.checked = checked
        self.suppressions = suppressions

    def unused_suppressions(self):
        return [s for s in self.suppressions if not s.used]


class SourceFile:
    """One parsed Python source file."""

    __slots__ = ("path", "source", "tree", "lines", "_content_hash",
                 "_module_name")

    def __init__(self, path, source, tree):
        self.path = path
        self.source = source
        self.tree = tree
        self.lines = source.splitlines()
        self._content_hash = None
        self._module_name = None

    @property
    def posix_path(self):
        return self.path.replace(os.sep, "/")

    def endswith(self, suffix):
        """Does this file's path end with ``suffix`` (posix-style)?"""
        return self.posix_path.endswith(suffix)

    @property
    def content_hash(self):
        """Hex SHA-256 of the source text (cache keying)."""
        if self._content_hash is None:
            self._content_hash = hashlib.sha256(
                self.source.encode("utf-8")).hexdigest()
        return self._content_hash

    @property
    def module_name(self):
        """The dotted module name, derived from ``__init__.py`` markers.

        Walks up from the file while package markers exist, so
        ``.../src/repro/hw/walker.py`` names ``repro.hw.walker`` whether
        the tree being linted is the installed package or a fixture copy
        under a pytest tmp_path. A file outside any package names its
        bare stem.
        """
        if self._module_name is None:
            path = os.path.abspath(self.path)
            directory, filename = os.path.split(path)
            parts = [] if filename == "__init__.py" else [filename[:-3]]
            while os.path.isfile(os.path.join(directory, "__init__.py")):
                directory, package = os.path.split(directory)
                parts.append(package)
            self._module_name = ".".join(reversed(parts)) or "__init__"
        return self._module_name

    @property
    def package(self):
        """The package this module lives in (itself, for ``__init__.py``)."""
        name = self.module_name
        if os.path.basename(self.path) == "__init__.py":
            return name
        return name.rpartition(".")[0]


class Rule:
    """A per-file rule. Subclasses implement :meth:`check_file`."""

    rule_id = "REPRO000"
    name = "rule"
    description = ""

    def check_file(self, source_file):
        """Yield/return findings for one file."""
        return ()

    def finding(self, source_file, node, message):
        """A :class:`Finding` anchored at ``node`` (or at line 1)."""
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Finding(self.rule_id, self.name, source_file.path, line, col,
                       message)


class ProjectRule(Rule):
    """A rule that needs the whole file set (cross-module contracts)."""

    def check_project(self, source_files):
        """Yield/return findings over all files."""
        return ()


class ParseErrorRule(Rule):
    """Pseudo-rule under which syntax errors are reported."""

    rule_id = "REPRO001"
    name = "parse-error"
    description = "the file does not parse as Python"


def _iter_python_files(paths):
    """Every .py file under ``paths`` (files or directories), sorted."""
    seen = set()
    for path in paths:
        if os.path.isfile(path):
            if path.endswith(".py") and path not in seen:
                seen.add(path)
        elif os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(
                    d for d in dirnames
                    if not d.startswith(".")
                    and not any(d.endswith(s) for s in SKIP_DIR_SUFFIXES)
                )
                for filename in sorted(filenames):
                    if not filename.endswith(".py"):
                        continue
                    full = os.path.join(dirpath, filename)
                    if full not in seen:
                        seen.add(full)
        else:
            raise FileNotFoundError("no such file or directory: %r" % (path,))
    return sorted(seen)


def read_sources(paths):
    """Read every lintable file under ``paths`` exactly once.

    Returns sorted ``(path, source)`` pairs. This is the single
    read-from-disk step of a lint run: the runner hashes these strings
    for cache keying and the engine parses the same strings, so no file
    is opened twice (PR 6 — previously the cache key re-read every
    file the engine was about to read).
    """
    pairs = []
    for path in _iter_python_files(paths):
        with open(path, "r", encoding="utf-8") as handle:
            pairs.append((path, handle.read()))
    return pairs


def _scan_suppressions(path, source):
    """Every suppression marker in one file, as {line: Suppression}."""
    suppressions = {}
    for lineno, text in enumerate(source.splitlines(), start=1):
        if "#" not in text:
            continue
        names = set()
        for regex in (SUPPRESS_RE, NOQA_RE):
            match = regex.search(text)
            if match is not None:
                names.update(n.strip() for n in match.group(1).split(",")
                             if n.strip())
        if names:
            suppressions[lineno] = Suppression(path, lineno, names)
    return suppressions


class LintEngine:
    """Parses files once and dispatches every configured rule."""

    def __init__(self, rules):
        self.rules = list(rules)
        self._parse_rule = ParseErrorRule()

    def run(self, paths):
        """Lint ``paths``; returns (findings, number_of_files_checked)."""
        result = self.run_detailed(paths)
        return result.findings, result.checked

    def run_detailed(self, paths, sources=None):
        """Lint ``paths``; returns a full :class:`LintResult`.

        ``sources`` may carry pre-read ``(path, source)`` pairs (from
        :func:`read_sources`) so a caller that already read the files —
        the runner hashes them for the cache key — shares one read.
        """
        findings = []
        source_files = []
        suppressions = {}  # path -> {line: Suppression}
        checked = 0
        if sources is None:
            sources = read_sources(paths)
        for path, source in sources:
            checked += 1
            suppressions[path] = _scan_suppressions(path, source)
            try:
                tree = ast.parse(source, filename=path)
            except SyntaxError as error:
                findings.append(Finding(
                    self._parse_rule.rule_id, self._parse_rule.name, path,
                    error.lineno or 1, (error.offset or 1) - 1,
                    "syntax error: %s" % (error.msg,),
                ))
                continue
            source_files.append(SourceFile(path, source, tree))
        for rule in self.rules:
            for source_file in source_files:
                findings.extend(rule.check_file(source_file))
            if isinstance(rule, ProjectRule):
                findings.extend(rule.check_project(source_files))
        kept = []
        for finding in findings:
            marker = suppressions.get(finding.path, {}).get(finding.line)
            if marker is not None and marker.matches(finding):
                marker.used = True
                continue
            kept.append(finding)
        kept.sort(key=lambda f: (f.path, f.line, f.col, f.rule_id))
        all_suppressions = sorted(
            (s for per_file in suppressions.values() for s in per_file.values()),
            key=lambda s: (s.path, s.line))
        return LintResult(kept, checked, all_suppressions)
