"""The project-specific lint rules.

Numbering: REPRO001 is reserved for parse errors (see engine.py);
REPRO1xx are per-file hygiene/determinism rules; REPRO302 keeps every
benchmark registered with the bench harness.
"""

import ast
import re

from repro.lint.engine import Rule

# Wall-clock reads that would leak host time into simulated results. The
# simulator has its own Clock; cycle counts must never depend on them.
WALL_CLOCK_CALLS = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.date.today",
}

# OS entropy: never regenerable from a seed, even when used *to* seed.
OS_ENTROPY_CALLS = {
    "os.urandom",
    "random.SystemRandom",
    "uuid.uuid1",
    "uuid.uuid4",
}

# numpy.random callables that are legitimately *seedable*: calling them
# with an explicit seed/argument is fine, calling them bare is not.
NUMPY_SEEDABLE = {"default_rng", "Generator", "RandomState", "SeedSequence"}

MUTABLE_LITERALS = (ast.List, ast.Dict, ast.Set)
MUTABLE_BUILTINS = {"list", "dict", "set", "bytearray"}


def _import_aliases(tree, package=None):
    """Map every imported binding to its fully qualified dotted name.

    With ``package`` (the importing module's own package, e.g.
    ``"repro.vmm"``) relative imports resolve to absolute ``repro.*``
    names too — without it they would leave bindings like ``T`` (from
    ``from . import traps as T``) unresolved, and a project module
    named like a stdlib module (``from . import time``) would
    shadow-match the stdlib qualified names.
    """
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                aliases[bound] = alias.name if alias.asname else alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            module = node.module
            if node.level:
                module = _resolve_relative(package, node.level, module)
                if module is None:
                    continue
            elif module is None:
                continue
            for alias in node.names:
                bound = alias.asname or alias.name
                aliases[bound] = "%s.%s" % (module, alias.name)
    return aliases


def _resolve_relative(package, level, module):
    """Absolute module name for a level-``level`` relative import."""
    if not package:
        return None
    parts = package.split(".")
    if level - 1 >= len(parts):
        return None  # beyond the package root: unresolvable
    base = parts[:len(parts) - (level - 1)]
    if module:
        base.append(module)
    return ".".join(base)


def tail_name(node):
    """The last name of an Attribute/Name chain (``self.host_mem`` →
    ``host_mem``), else None."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _dotted_name(node):
    """``a.b.c`` for an Attribute/Name chain, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _resolve(node, aliases):
    """The fully qualified dotted name of a callee, tracking imports."""
    dotted = _dotted_name(node)
    if dotted is None:
        return None
    head, _, rest = dotted.partition(".")
    expanded = aliases.get(head, head)
    return "%s.%s" % (expanded, rest) if rest else expanded


def classify_nondet_call(node, aliases):
    """Message if ``node`` (a Call) reads a nondeterminism source, else None.

    The one source list: wall-clock reads, OS entropy, the global
    ``random``/``numpy.random`` state, and unseeded seedable
    constructors.
    """
    full = _resolve(node.func, aliases)
    if full is None:
        return None
    has_args = bool(node.args or node.keywords)
    if full in WALL_CLOCK_CALLS:
        return ("wall-clock read `%s()` in simulator code; "
                "use the simulated Clock" % full)
    if full in OS_ENTROPY_CALLS or full.startswith("secrets."):
        return ("`%s()` draws OS entropy; derive all randomness from an "
                "explicit seed" % full)
    if full == "random.Random":
        if not has_args:
            return ("`random.Random()` without a seed; pass "
                    "an explicit seed")
        return None
    if full.startswith("random."):
        return ("`%s()` uses the global (unseeded) random "
                "state; use a seeded `random.Random` "
                "instance" % full)
    if full.startswith("numpy.random."):
        tail = full.rsplit(".", 1)[1]
        if tail in NUMPY_SEEDABLE:
            if not has_args:
                return ("`%s()` without a seed; pass an "
                        "explicit seed" % full)
            return None
        return ("`%s()` uses numpy's global random "
                "state; use a seeded Generator from "
                "`default_rng(seed)`" % full)
    return None


class UnseededRandomRule(Rule):
    """Determinism: no wall-clock reads, OS entropy, or unseeded RNGs.

    All randomness must flow through an explicitly seeded generator
    (``np.random.default_rng(seed)`` / ``random.Random(seed)``) that the
    caller owns, and all time must come from the simulated Clock: the
    cross-mode comparisons, the two-step methodology and the fuzz
    corpus (a case is named by its ``(seed, profile, ops)``) all rely on
    regenerating identical operation streams.
    """

    rule_id = "REPRO101"
    name = "unseeded-random"
    description = ("simulator code must use explicitly seeded RNGs and the "
                   "simulated clock, never global random state, OS entropy "
                   "or wall time (benchmarks/ exempt: timing harnesses read "
                   "the wall clock by design)")

    EXEMPT_SCOPE = "benchmarks/"

    def check_file(self, source_file):
        if self.EXEMPT_SCOPE in source_file.posix_path:
            return
        aliases = _import_aliases(source_file.tree, source_file.package)
        for node in ast.walk(source_file.tree):
            if not isinstance(node, ast.Call):
                continue
            message = classify_nondet_call(node, aliases)
            if message is not None:
                yield self.finding(source_file, node, message)


class MutableDefaultRule(Rule):
    """No mutable default arguments (shared across calls and runs)."""

    rule_id = "REPRO102"
    name = "mutable-default"
    description = "default argument values must not be mutable objects"

    def check_file(self, source_file):
        for node in ast.walk(source_file.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.Lambda)):
                continue
            defaults = list(node.args.defaults)
            defaults.extend(d for d in node.args.kw_defaults if d is not None)
            for default in defaults:
                if isinstance(default, MUTABLE_LITERALS):
                    yield self.finding(source_file, default,
                                       "mutable default argument (literal); "
                                       "use None and create it in the body")
                elif (isinstance(default, ast.Call)
                      and isinstance(default.func, ast.Name)
                      and default.func.id in MUTABLE_BUILTINS):
                    yield self.finding(source_file, default,
                                       "mutable default argument (`%s()`); "
                                       "use None and create it in the body"
                                       % default.func.id)


class BareExceptRule(Rule):
    """No bare ``except:`` — it swallows simulator bugs silently.

    Faults in this codebase are a typed taxonomy (``common/errors.py``);
    a handler must name what it expects so :class:`SimulationError` and
    ``InvariantViolation`` always propagate.
    """

    rule_id = "REPRO103"
    name = "bare-except"
    description = "exception handlers must name the exception types they handle"

    def check_file(self, source_file):
        for node in ast.walk(source_file.tree):
            if isinstance(node, ast.ExceptHandler) and node.type is None:
                yield self.finding(source_file, node,
                                   "bare `except:` hides simulator bugs; "
                                   "catch explicit exception types")


class BenchRegistrationRule(Rule):
    """Every ``benchmarks/bench_*.py`` must register with the bench harness.

    ``repro bench`` discovers targets by importing each bench file and
    scanning for functions decorated ``@bench_target(name, output=...)``.
    A bench file without a registration is invisible to the harness —
    and therefore to the ``--compare`` regression gates — so it silently
    falls out of continuous benchmarking. The declared ``output`` must
    be a literal ``BENCH_<name>.json`` filename (the same pattern
    ``repro.bench.registry.OUTPUT_NAME_RE`` enforces at run time) so the
    owned report file is knowable without importing the benchmark.
    """

    rule_id = "REPRO302"
    name = "bench-registration"
    description = ("benchmarks/bench_*.py must register a target via "
                   "@bench_target and declare a literal BENCH_*.json output")

    SCOPE = "benchmarks/"
    #: Mirror of repro.bench.registry.OUTPUT_NAME_RE — lint sits below
    #: the bench layer and must not import it (REPRO501).
    OUTPUT_RE = re.compile(r"^BENCH_[A-Za-z0-9_]+\.json$")

    def _in_scope(self, source_file):
        posix = source_file.posix_path
        if self.SCOPE not in posix:
            return False
        basename = posix.rsplit("/", 1)[-1]
        return basename.startswith("bench_") and basename.endswith(".py")

    def check_file(self, source_file):
        if not self._in_scope(source_file):
            return
        calls = [node for node in ast.walk(source_file.tree)
                 if isinstance(node, ast.Call)
                 and tail_name(node.func) == "bench_target"]
        if not calls:
            yield self.finding(
                source_file, source_file.tree,
                "benchmark file registers no target; decorate its entry "
                "point with @bench_target(name, output=\"BENCH_<name>.json\")"
                " so `repro bench` discovers and gates it")
            return
        for call in calls:
            output = call.args[1] if len(call.args) >= 2 else None
            for keyword in call.keywords:
                if keyword.arg == "output":
                    output = keyword.value
            if output is None:
                yield self.finding(
                    source_file, call,
                    "bench_target(...) declares no output= report name; "
                    "every target must own a BENCH_<name>.json file")
            elif not (isinstance(output, ast.Constant)
                      and isinstance(output.value, str)):
                yield self.finding(
                    source_file, call,
                    "bench_target output must be a string literal so the "
                    "owned BENCH file is knowable without importing the "
                    "benchmark")
            elif not self.OUTPUT_RE.match(output.value):
                yield self.finding(
                    source_file, call,
                    "bench_target output %r must match BENCH_<name>.json"
                    % (output.value,))


DEFAULT_RULES = (
    UnseededRandomRule(),
    MutableDefaultRule(),
    BareExceptRule(),
    BenchRegistrationRule(),
)
