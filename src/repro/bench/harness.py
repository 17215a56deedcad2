"""Run benchmark targets and write schema-versioned BENCH reports.

A report file looks like::

    {
      "schema": 2,
      "benchmark": "consolidation",
      "quick": false,
      "provenance": {"host": ..., "platform": ..., "python": ...,
                     "git_sha": ..., "generated_at": ...},
      "gates": [{"metric": "summary.agile_vs_best_overhead_ratio", ...}],
      "result": {...},          # whatever the bench function returned
      "metrics": {...}          # flattened numeric view of result
    }

``metrics`` is the comparison surface: every numeric leaf of ``result``
under its dotted path, which is what gates and ``--compare`` deltas
resolve against. Schema 2 supersedes the ad-hoc schema-1 files the
standalone scripts used to write.
"""

import json
import os
import platform
import subprocess
import time

#: Version of the BENCH report wrapper. The *inner* ``result`` shape
#: belongs to each benchmark; this versions the envelope.
BENCH_REPORT_SCHEMA_VERSION = 2


def _wall_time():
    """Harness wall clock; never feeds back into simulated results."""
    return time.perf_counter()  # lint: disable=unseeded-random


class BenchContext:
    """What a benchmark body gets: op budgets and a timer.

    ``quick`` asks for a CI-smoke-sized run; :meth:`ops` is the budget
    helper benchmarks use to honour it. ``repeat`` overrides each
    target's timing repeat count; ``ops_override`` pins the op budget
    regardless of quick scaling (the ``repro bench --ops`` escape
    hatch).
    """

    def __init__(self, quick=False, ops_override=None, repeat=None):
        self.quick = quick
        self.ops_override = ops_override
        self.repeat = repeat

    def ops(self, full, quick=None):
        """The op budget for this run: ``full``, its quick-mode version
        (default ``full // 10``, floor 1000), or the CLI override."""
        if self.ops_override is not None:
            return self.ops_override
        if self.quick:
            return quick if quick is not None else max(1000, full // 10)
        return full

    def best_of(self, func, repeat=3, min_time=0.0, warmup=0):
        """Best wall-clock seconds of ``repeat`` timed calls to ``func``.

        ``warmup`` extra untimed calls run first; ``min_time`` keeps
        re-running (beyond ``repeat``) until that much total measured
        time has accumulated, so very fast bodies still get a stable
        best-of. Best-of-N is the standard noise filter for wall-clock
        micro-timing (taking the min discards scheduler hiccups).
        """
        repeat = self.repeat if self.repeat is not None else repeat
        for _ in range(warmup):
            func()
        best = None
        spent = 0.0
        runs = 0
        while runs < repeat or spent < min_time:
            start = _wall_time()
            func()
            elapsed = _wall_time() - start
            spent += elapsed
            runs += 1
            if best is None or elapsed < best:
                best = elapsed
            if runs >= 1000:  # min_time guard against a mis-set budget
                break
        return best


def provenance():
    """Host/python/git identification stamped into every report."""
    sha = None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            timeout=10, cwd=os.path.dirname(os.path.abspath(__file__)))
        if proc.returncode == 0:
            sha = proc.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "host": platform.node(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "git_sha": sha,
        # Wall-clock stamp; provenance only, never compared.
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def flatten_numeric(value, prefix="", into=None):
    """Every numeric leaf of a nested dict/list as ``{dotted.path: number}``.

    Lists flatten by index. Booleans are excluded (they are ints to
    Python but deltas over them are meaningless).
    """
    if into is None:
        into = {}
    if isinstance(value, dict):
        for key in value:
            path = "%s.%s" % (prefix, key) if prefix else str(key)
            flatten_numeric(value[key], path, into)
    elif isinstance(value, (list, tuple)):
        for index, item in enumerate(value):
            path = "%s.%d" % (prefix, index) if prefix else str(index)
            flatten_numeric(item, path, into)
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        into[prefix] = value
    return into


def run_target(target, ctx, out_dir="."):
    """Run one :class:`~repro.bench.registry.BenchTarget`; write its report.

    Returns ``(report, path)``. The bench function receives ``ctx`` and
    returns the JSON-safe ``result`` payload; everything else
    (provenance, gates, flattened metrics) is the harness's job, so
    every BENCH file is uniform.
    """
    result = target.func(ctx)
    if not isinstance(result, dict):
        raise TypeError(
            "benchmark %r returned %s; bench functions must return a "
            "JSON-safe dict" % (target.name, type(result).__name__))
    report = {
        "schema": BENCH_REPORT_SCHEMA_VERSION,
        "benchmark": target.name,
        "quick": ctx.quick,
        "provenance": provenance(),
        "gates": [gate.to_dict() for gate in target.gates],
        "result": result,
        "metrics": flatten_numeric(result),
    }
    if out_dir and not os.path.isdir(out_dir):
        os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, target.output)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return report, path


def load_report(path):
    """Read one BENCH report; raises ValueError on a foreign schema."""
    with open(path, encoding="utf-8") as handle:
        report = json.load(handle)
    schema = report.get("schema")
    if schema != BENCH_REPORT_SCHEMA_VERSION:
        raise ValueError(
            "%s has schema %r but this build reads schema %d; regenerate "
            "it with `repro bench`" % (path, schema,
                                       BENCH_REPORT_SCHEMA_VERSION))
    return report
