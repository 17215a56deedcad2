"""Lint entry point shared by the CLI and the test suite.

Stream discipline (PR 3): findings — text, JSON, or SARIF — go to
``out`` (stdout), diagnostics such as usage errors go to ``err``
(stderr), so ``repro lint --format json | jq`` always parses.

PR 6 additions:

* every file is read from disk exactly once per run — the cache key is
  computed from the same in-memory sources the engine parses
  (:func:`repro.lint.engine.read_sources`),
* ``--baseline`` ratcheting: known findings listed in a committed JSON
  baseline are tolerated, only *new* findings fail the run,
* ``--format sarif`` renders SARIF 2.1.0 for code-scanning upload.
"""

import hashlib
import json
import os
import sys

#: Baseline file schema version (bump on incompatible change).
BASELINE_SCHEMA = 1


def default_lint_paths():
    """With no arguments, lint the installed ``repro`` package itself."""
    import repro

    return [os.path.dirname(os.path.abspath(repro.__file__))]


def default_rules(deep=False):
    """The configured rule set: per-file, or :data:`repro.lint.DEEP_RULES`
    for deep."""
    from repro.lint import DEEP_RULES
    from repro.lint.rules import DEFAULT_RULES

    return DEEP_RULES if deep else DEFAULT_RULES


def _hash_sources(sources):
    """(path, content SHA-256) for already-read ``(path, source)`` pairs.

    Hashing the in-memory text keeps the cache key byte-equivalent to
    the old read-the-file-again implementation without the second read.
    """
    return [(path, hashlib.sha256(source.encode("utf-8")).hexdigest())
            for path, source in sources]


# -- baseline ratcheting ------------------------------------------------------


def _normalize_path(path):
    """A location key stable across checkouts: the path from the last
    ``repro/`` component down (fallback: the basename)."""
    posix = path.replace(os.sep, "/")
    marker = posix.rfind("/repro/")
    if marker != -1:
        return posix[marker + 1:]
    return posix.rsplit("/", 1)[-1]


def _finding_key(finding):
    return (finding.rule_id, _normalize_path(finding.path), finding.message)


def load_baseline(path):
    """The set of tolerated finding keys recorded in ``path``."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if payload.get("schema") != BASELINE_SCHEMA:
        raise ValueError("unsupported baseline schema: %r"
                         % (payload.get("schema"),))
    return {(entry["rule_id"], entry["path"], entry["message"])
            for entry in payload.get("findings", ())}


def save_baseline(path, findings):
    """Record ``findings`` as the new tolerated set."""
    entries = sorted({_finding_key(f) for f in findings})
    payload = {
        "schema": BASELINE_SCHEMA,
        "findings": [
            {"rule_id": rule_id, "path": norm_path, "message": message}
            for rule_id, norm_path, message in entries
        ],
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


# -- SARIF rendering ----------------------------------------------------------

_SARIF_SCHEMA = ("https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
                 "master/Schemata/sarif-schema-2.1.0.json")


def sarif_payload(findings, rules):
    """A minimal SARIF 2.1.0 log for ``findings``."""
    driver_rules = []
    seen = set()
    for rule in rules:
        if rule.rule_id in seen:
            continue
        seen.add(rule.rule_id)
        driver_rules.append({
            "id": rule.rule_id,
            "name": rule.name,
            "shortDescription": {"text": rule.description},
        })
    results = []
    for finding in findings:
        results.append({
            "ruleId": finding.rule_id,
            "level": "error",
            "message": {"text": finding.message},
            "locations": [{
                "physicalLocation": {
                    "artifactLocation": {
                        "uri": finding.path.replace(os.sep, "/"),
                    },
                    "region": {
                        "startLine": finding.line,
                        # SARIF columns are 1-based; Finding.col is the
                        # AST's 0-based col_offset.
                        "startColumn": finding.col + 1,
                    },
                },
            }],
        })
    return {
        "$schema": _SARIF_SCHEMA,
        "version": "2.1.0",
        "runs": [{
            "tool": {"driver": {"name": "repro-lint",
                                "rules": driver_rules}},
            "results": results,
        }],
    }


def run_lint(paths=None, fmt="text", out=None, err=None, rules=None,
             deep=False, cache_dir=None, audit_suppressions=False,
             baseline=None, write_baseline=False):
    """Lint ``paths`` and render the findings.

    Returns the process exit code: 0 for a clean tree, 1 when findings
    exist (or, under ``audit_suppressions``, when unused suppressions
    exist), 2 on usage errors (a path that does not exist, a missing or
    malformed baseline). With ``cache_dir`` set, an unchanged (file set,
    rule set) pair is served from the content-hash cache without parsing
    anything. With ``baseline`` set, findings recorded in the baseline
    file are tolerated and only new ones fail the run; adding
    ``write_baseline`` instead records the current findings and exits 0.
    """
    from repro.lint.engine import LintEngine, ParseErrorRule, read_sources

    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    paths = list(paths) if paths else default_lint_paths()
    if rules is None:
        rules = default_rules(deep)
    if write_baseline and baseline is None:
        print("lint: --write-baseline requires --baseline", file=err)
        return 2
    cache = None
    cache_key = None
    result = None
    try:
        sources = None
        if cache_dir is not None:
            from repro.lint.cache import LintCache

            cache = LintCache(cache_dir)
            sources = read_sources(paths)
            cache_key = cache.key_for(_hash_sources(sources),
                                      [rule.rule_id for rule in rules])
            result = cache.load(cache_key)
        if result is None:
            if sources is None:
                sources = read_sources(paths)
            result = LintEngine(rules).run_detailed(paths, sources=sources)
            if cache is not None:
                cache.store(cache_key, result)
    except FileNotFoundError as error:
        print("lint: %s" % (error,), file=err)
        return 2
    findings = result.findings
    baselined = 0
    if baseline is not None:
        if write_baseline:
            save_baseline(baseline, findings)
            print("baseline: recorded %d finding%s to %s" % (
                len(findings), "" if len(findings) == 1 else "s", baseline),
                file=out)
            return 0
        try:
            known = load_baseline(baseline)
        except (OSError, ValueError, KeyError) as error:
            print("lint: cannot read baseline %s: %s" % (baseline, error),
                  file=err)
            return 2
        new = [f for f in findings if _finding_key(f) not in known]
        baselined = len(findings) - len(new)
        findings = new
    unused = result.unused_suppressions() if audit_suppressions else []
    if fmt == "json":
        payload = {
            "checked_files": result.checked,
            "finding_count": len(findings),
            "findings": [f.as_dict() for f in findings],
        }
        if baseline is not None:
            payload["baselined_count"] = baselined
        if audit_suppressions:
            payload["suppressions"] = [s.as_dict()
                                       for s in result.suppressions]
            payload["unused_suppression_count"] = len(unused)
        print(json.dumps(payload, indent=2, sort_keys=True), file=out)
    elif fmt == "sarif":
        catalogue = (ParseErrorRule(),) + tuple(rules)
        print(json.dumps(sarif_payload(findings, catalogue),
                         indent=2, sort_keys=True), file=out)
    else:
        for finding in findings:
            print(finding.format(), file=out)
        if audit_suppressions:
            for suppression in result.suppressions:
                print(suppression.format(), file=out)
        summary = "clean" if not findings else "%d finding%s" % (
            len(findings), "" if len(findings) == 1 else "s")
        if baselined:
            summary += " (%d baselined)" % baselined
        print("checked %d files: %s" % (result.checked, summary), file=out)
        if unused:
            print("%d unused suppression%s" % (
                len(unused), "" if len(unused) == 1 else "s"), file=out)
    return 1 if findings or unused else 0


def list_rules(out=None, deep=True):
    """Print the rule catalogue (id, name, one-line description)."""
    from repro.lint.engine import ParseErrorRule

    out = out if out is not None else sys.stdout
    for rule in (ParseErrorRule(),) + tuple(default_rules(deep)):
        print("%s  %-18s %s" % (rule.rule_id, rule.name, rule.description),
              file=out)
    return 0
