"""The reproducer corpus: failing scenarios as replayable JSON cases.

A *case* bundles everything needed to re-run one oracle verdict:

.. code-block:: json

    {
      "schema": 1,
      "note": "why this case exists",
      "scenario": {"schema": 1, "seed": 17, "profile": "churn", "ops": [...]},
      "oracle": {"modes": ["native", "shadow"], "page_size": "4K", ...},
      "failure": {"ok": false, "check": "leaf-state", ...}
    }

``failure`` records the verdict observed when the case was written
(null for regression cases that are *expected* to pass). Cases live as
one pretty-printed JSON file each, so reviewers can read the op list in
a diff; the committed ``corpus/regression/`` directory is replayed on
every CI run via ``repro fuzz --corpus corpus/regression``.
"""

import hashlib
import json
import os

from repro.fuzz.oracle import DifferentialOracle
from repro.fuzz.scenario import Scenario

CASE_SCHEMA = 1


def make_case(scenario, oracle, failure=None, note=None):
    """Build a JSON-safe case dict from live objects."""
    return {
        "schema": CASE_SCHEMA,
        "note": note,
        "scenario": scenario.to_dict(),
        "oracle": oracle.options(),
        "failure": failure.to_dict() if failure is not None else None,
    }


def case_name(case):
    """Deterministic, filesystem-safe name for one case."""
    scenario = case["scenario"]
    digest = hashlib.sha256(
        json.dumps(case["scenario"], sort_keys=True).encode("utf-8")
    ).hexdigest()[:8]
    return "s%d-%s-%dops-%s" % (scenario["seed"], scenario["profile"],
                                len(scenario["ops"]), digest)


def save_case(directory, case, name=None):
    """Write one case into ``directory``; returns its path."""
    if case.get("schema") != CASE_SCHEMA:
        raise ValueError("unsupported case schema %r" % (case.get("schema"),))
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, "%s.json" % (name or case_name(case)))
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(case, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def load_case(path):
    with open(path, encoding="utf-8") as handle:
        case = json.load(handle)
    if case.get("schema") != CASE_SCHEMA:
        raise ValueError("%s: unsupported case schema %r"
                         % (path, case.get("schema")))
    return case


def iter_cases(directory):
    """Yield (path, case) for every ``*.json`` case, in sorted order."""
    for entry in sorted(os.listdir(directory)):
        if entry.endswith(".json"):
            path = os.path.join(directory, entry)
            yield path, load_case(path)


def replay_case(case):
    """Re-run one case through the oracle; returns the fresh Verdict."""
    scenario = Scenario.from_dict(case["scenario"])
    options = case.get("oracle") or {}
    if options.get("kind") == "isolation":
        # Cross-VM isolation cases (solo vs. consolidated replay).
        from repro.fuzz.isolation import IsolationOracle

        oracle = IsolationOracle.from_options(options)
    else:
        oracle = DifferentialOracle.from_options(options)
    return oracle.run(scenario)
