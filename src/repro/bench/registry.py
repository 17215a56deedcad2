"""Benchmark target registration and discovery.

A benchmark file declares itself with one decorator::

    from repro.bench import Gate, bench_target

    @bench_target("consolidation", output="BENCH_consolidation.json",
                  gates=(Gate("summary.agile_vs_best_overhead_ratio",
                              "lower", 0.2),))
    def bench(ctx):
        ...
        return {"summary": {"agile_vs_best_overhead_ratio": 0.94}, ...}

The decorator attaches a :class:`BenchTarget` to the function (it does
*not* maintain a process-global registry — repeated imports of the same
file under different module names must not produce duplicates);
:func:`discover` imports each ``benchmarks/bench_*.py`` and scans module
attributes for decorated functions. Lint rule REPRO302 enforces that
every bench file registers exactly this way.
"""

import importlib.util
import os
import re
import sys

#: Declared report filenames must look like this (REPRO302 checks the
#: same pattern at lint time).
OUTPUT_NAME_RE = re.compile(r"^BENCH_[A-Za-z0-9_]+\.json$")

_TARGET_ATTR = "__bench_target__"


class Gate:
    """One regression gate: a dotted metric path and its tolerance.

    ``metric`` is resolved inside the report's flattened numeric metric
    map (e.g. ``summary.geomean_speedup``). ``direction`` says which way
    is good: ``"higher"`` gates against drops, ``"lower"`` against
    rises. ``tolerance`` is the fractional change allowed before the
    comparison fails (0.2 = 20%).
    """

    __slots__ = ("metric", "direction", "tolerance")

    VALID_DIRECTIONS = ("higher", "lower")

    def __init__(self, metric, direction="higher", tolerance=0.2):
        if direction not in self.VALID_DIRECTIONS:
            raise ValueError("gate direction must be one of %s, got %r"
                             % (", ".join(self.VALID_DIRECTIONS), direction))
        if tolerance < 0:
            raise ValueError("gate tolerance must be >= 0, got %r"
                             % (tolerance,))
        self.metric = metric
        self.direction = direction
        self.tolerance = tolerance

    def to_dict(self):
        return {"metric": self.metric, "direction": self.direction,
                "tolerance": self.tolerance}

    @classmethod
    def from_dict(cls, data):
        return cls(metric=data["metric"], direction=data["direction"],
                   tolerance=data["tolerance"])

    def __repr__(self):
        return "Gate(%r, %r, %r)" % (self.metric, self.direction,
                                     self.tolerance)


class BenchTarget:
    """One discovered benchmark: name, output file, gates, callable."""

    __slots__ = ("name", "output", "gates", "func")

    def __init__(self, name, output, gates, func):
        self.name = name
        self.output = output
        self.gates = tuple(gates)
        self.func = func

    def __repr__(self):
        return "BenchTarget(%r -> %s)" % (self.name, self.output)


def bench_target(name, output, gates=()):
    """Register the decorated ``func(ctx) -> dict`` as a benchmark target.

    ``output`` must match ``BENCH_<name>.json`` — the repo-root report
    file this target owns. ``gates`` is a sequence of :class:`Gate`
    evaluated by ``repro bench --compare``.
    """
    if not OUTPUT_NAME_RE.match(output):
        raise ValueError(
            "bench output must match BENCH_<name>.json, got %r" % (output,))

    def decorate(func):
        setattr(func, _TARGET_ATTR, BenchTarget(name, output, gates, func))
        return func

    return decorate


def _load_module(path):
    """Import one bench file under a collision-free module name."""
    stem = os.path.splitext(os.path.basename(path))[0]
    module_name = "repro_bench_target_%s" % stem
    spec = importlib.util.spec_from_file_location(module_name, path)
    if spec is None or spec.loader is None:
        raise ImportError("cannot load benchmark file %s" % path)
    module = importlib.util.module_from_spec(spec)
    # Registered under its name during exec so dataclasses/pickling in
    # the bench body resolve the module; dropped again by the caller.
    sys.modules[module_name] = module
    try:
        spec.loader.exec_module(module)
    except BaseException:
        sys.modules.pop(module_name, None)
        raise
    return module


def discover(bench_dir, names=None):
    """Import every ``bench_*.py`` under ``bench_dir``; return its targets.

    Returns a sorted list of :class:`BenchTarget`. ``names`` restricts
    the result to specific target names (unknown names raise, so a CLI
    typo cannot silently run nothing). Files that import but register no
    target are skipped — REPRO302 flags them at lint time instead.
    """
    bench_dir = os.path.abspath(bench_dir)
    if not os.path.isdir(bench_dir):
        raise FileNotFoundError("benchmark directory %s does not exist"
                                % bench_dir)
    targets = {}
    # Bench files import shared helpers (`from _util import ...`) from
    # their own directory.
    sys.path.insert(0, bench_dir)
    try:
        for filename in sorted(os.listdir(bench_dir)):
            if not (filename.startswith("bench_")
                    and filename.endswith(".py")):
                continue
            module = _load_module(os.path.join(bench_dir, filename))
            for attr in vars(module).values():
                target = getattr(attr, _TARGET_ATTR, None)
                if not isinstance(target, BenchTarget):
                    continue
                if target.name in targets:
                    raise ValueError(
                        "duplicate benchmark target %r (in %s)"
                        % (target.name, filename))
                targets[target.name] = target
    finally:
        sys.path.remove(bench_dir)
    if names:
        unknown = sorted(set(names) - set(targets))
        if unknown:
            raise KeyError(
                "unknown benchmark target(s): %s (available: %s)"
                % (", ".join(unknown), ", ".join(sorted(targets)) or "none"))
        return [targets[name] for name in sorted(names)]
    return [targets[name] for name in sorted(targets)]
