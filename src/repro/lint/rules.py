"""The project-specific lint rules.

Numbering: REPRO001 is reserved for parse errors (see engine.py);
REPRO1xx are per-file hygiene/determinism rules; REPRO2xx are
cross-module accounting contracts; REPRO3xx are output-stream
discipline rules.
"""

import ast
import re

from repro.lint.engine import ProjectRule, Rule

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

    Shared between the per-file REPRO101 rule and the interprocedural
    REPRO403 taint pass so both agree on what counts as a source:
    wall-clock reads, the global ``random``/``numpy.random`` state, and
    unseeded seedable constructors.
    """
    full = _resolve(node.func, aliases)
    if full is None:
        return None
    has_args = bool(node.args or node.keywords)
    if full in WALL_CLOCK_CALLS:
        return ("wall-clock read `%s()` in simulator code; "
                "use the simulated Clock" % full)
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
    """Determinism: no global/unseeded RNG state, no wall-clock reads.

    All randomness must flow through an explicitly seeded generator
    (``np.random.default_rng(seed)`` / ``random.Random(seed)``) that the
    caller owns, and all time must come from the simulated Clock.
    """

    rule_id = "REPRO101"
    name = "unseeded-random"
    description = ("simulator code must use explicitly seeded RNGs and the "
                   "simulated clock, never global random state or wall time "
                   "(benchmarks/ exempt: timing harnesses read the wall "
                   "clock by design)")

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


class FuzzEntropyRule(Rule):
    """The fuzz subsystem may draw randomness only from its scenario seed.

    A fuzz case is *named* by (seed, profile, ops) and regenerated from
    that triple in worker processes and replays — so any ambient entropy
    in ``repro/fuzz/`` (an unseeded ``random.Random()``, ``os.urandom``,
    ``secrets``, ``uuid4``, ``SystemRandom``) silently breaks reproducer
    files, corpus naming, and shrink determinism. REPRO101 already bans
    the global ``random.*`` state everywhere; this rule additionally bans
    the OS entropy sources 101 tolerates, but only inside the fuzzer,
    where even *seeding from* fresh entropy is a contract violation.
    """

    rule_id = "REPRO105"
    name = "fuzz-entropy"
    description = ("repro/fuzz/ must derive all randomness from the scenario "
                   "seed: no unseeded random.Random(), os.urandom, secrets, "
                   "uuid1/uuid4, or SystemRandom")

    SCOPE = "repro/fuzz/"
    FORBIDDEN = {"os.urandom", "random.SystemRandom", "uuid.uuid1",
                 "uuid.uuid4"}

    def check_file(self, source_file):
        if self.SCOPE not in source_file.posix_path:
            return
        aliases = _import_aliases(source_file.tree, source_file.package)
        for node in ast.walk(source_file.tree):
            if not isinstance(node, ast.Call):
                continue
            full = _resolve(node.func, aliases)
            if full is None:
                continue
            if full == "random.Random" and not (node.args or node.keywords):
                yield self.finding(source_file, node,
                                   "unseeded `random.Random()` in the fuzz "
                                   "subsystem; scenarios must be regenerable "
                                   "from their (seed, profile, ops) name")
            elif full in self.FORBIDDEN or full.startswith("secrets."):
                yield self.finding(source_file, node,
                                   "`%s()` draws OS entropy; fuzz code must "
                                   "derive all randomness from the scenario "
                                   "seed" % full)


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


class PolicyHooksRule(Rule):
    """Policy classes must implement the hooks the VMM drives.

    The VMM calls reversion policies as ``tick(manager, hostpt, now)``
    and write-trigger policies as ``note_write(manager, node_gfn, now)``
    (Section III-C). A policy class missing — or mis-declaring — its hook
    fails at runtime only on the code path that fires it, which a short
    test run may never reach.
    """

    rule_id = "REPRO104"
    name = "policy-hooks"
    description = ("*ReversionPolicy classes must define tick(self, manager, "
                   "hostpt, now); *TriggerPolicy classes must define "
                   "note_write(self, manager, node_gfn, now)")

    REQUIRED = (
        ("ReversionPolicy", "tick", ("self", "manager", "hostpt", "now")),
        ("TriggerPolicy", "note_write", ("self", "manager", "node_gfn", "now")),
    )

    def check_file(self, source_file):
        for node in ast.walk(source_file.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            for suffix, hook, signature in self.REQUIRED:
                if not node.name.endswith(suffix):
                    continue
                method = next(
                    (item for item in node.body
                     if isinstance(item, ast.FunctionDef) and item.name == hook),
                    None,
                )
                if method is None:
                    yield self.finding(source_file, node,
                                       "policy class `%s` must define the "
                                       "`%s` hook" % (node.name, hook))
                    continue
                args = [arg.arg for arg in method.args.args]
                if len(args) != len(signature):
                    yield self.finding(
                        source_file, method,
                        "`%s.%s` must accept exactly %d arguments %r, got %r"
                        % (node.name, hook, len(signature), signature,
                           tuple(args)))


class TrapAccountingRule(ProjectRule):
    """Cross-module contract: the VMtrap taxonomy is fully accounted.

    Reading ``vmm/traps.py`` and ``common/config.py`` from the linted
    file set, enforce:

    * every trap-kind constant defined *above* ``ALL_TRAP_KINDS`` is a
      member of that tuple (membership is what registers the kind with
      ``RunMetrics.vmtraps`` — a kind defined but left out
      would silently vanish from the Figure 5 VMM bars),
    * every member of ``ALL_TRAP_KINDS`` is charged somewhere: it appears
      as the kind argument of a ``_trap(...)`` or ``.record(...)`` call,
    * every kind constant in ``traps.py`` (traps *and* hardware-assist
      kinds) is referenced outside ``traps.py`` — no dead taxonomy,
    * every ``vmtrap_*`` field of ``CostConfig`` is referenced somewhere
      — no unpriced or dead cost knobs.
    """

    rule_id = "REPRO201"
    name = "trap-accounting"
    description = ("every VMtrap kind must be in ALL_TRAP_KINDS, charged via "
                   "_trap/record, and every vmtrap_* cost field must be used")

    TRAPS_PATH = "vmm/traps.py"
    CONFIG_PATH = "common/config.py"

    def _module_constants(self, tree):
        """(ordered [(name, lineno)], ALL_TRAP_KINDS members, tuple lineno)."""
        constants = []
        members = None
        tuple_line = None
        for node in tree.body:
            if not isinstance(node, ast.Assign) or len(node.targets) != 1:
                continue
            target = node.targets[0]
            if not isinstance(target, ast.Name):
                continue
            if (target.id == "ALL_TRAP_KINDS"
                    and isinstance(node.value, (ast.Tuple, ast.List))):
                members = [elt.id for elt in node.value.elts
                           if isinstance(elt, ast.Name)]
                tuple_line = node.lineno
            elif (target.id.isupper()
                  and isinstance(node.value, ast.Constant)
                  and isinstance(node.value.value, str)):
                constants.append((target.id, node.lineno))
        return constants, members, tuple_line

    def _cost_fields(self, tree):
        """[(field, lineno)] of vmtrap_* fields on CostConfig."""
        fields = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef) or node.name != "CostConfig":
                continue
            for item in node.body:
                if (isinstance(item, ast.AnnAssign)
                        and isinstance(item.target, ast.Name)
                        and item.target.id.startswith("vmtrap_")):
                    fields.append((item.target.id, item.lineno))
        return fields

    def check_project(self, source_files):
        traps_file = next((f for f in source_files
                           if f.endswith(self.TRAPS_PATH)), None)
        if traps_file is None:
            return
        constants, members, tuple_line = self._module_constants(traps_file.tree)
        if members is None:
            yield self.finding(traps_file, traps_file.tree,
                               "traps module defines no ALL_TRAP_KINDS tuple")
            return
        config_file = next((f for f in source_files
                            if f.endswith(self.CONFIG_PATH)), None)

        charged = set()
        referenced = set()
        attr_refs = set()
        for source_file in source_files:
            in_traps = source_file is traps_file
            for node in ast.walk(source_file.tree):
                if isinstance(node, ast.Attribute):
                    attr_refs.add(node.attr)
                    if not in_traps:
                        referenced.add(node.attr)
                elif isinstance(node, ast.Name) and not in_traps:
                    referenced.add(node.id)
                if (isinstance(node, ast.Call)
                        and tail_name(node.func) in ("_trap", "record")
                        and node.args):
                    kind = tail_name(node.args[0])
                    if kind is not None:
                        charged.add(kind)

        member_set = set(members)
        for name, lineno in constants:
            if lineno < (tuple_line or 0) and name not in member_set:
                yield self.finding(
                    traps_file, _FakeNode(lineno),
                    "trap kind `%s` is defined above ALL_TRAP_KINDS but not a "
                    "member of it; it would be invisible to "
                    "RunMetrics.vmtraps" % name)
            if name not in referenced:
                yield self.finding(
                    traps_file, _FakeNode(lineno),
                    "trap kind `%s` is never referenced outside traps.py; "
                    "dead taxonomy entries hide unaccounted traps" % name)
        for name in members:
            if name not in charged:
                yield self.finding(
                    traps_file, _FakeNode(tuple_line),
                    "trap kind `%s` is in ALL_TRAP_KINDS but never charged "
                    "via _trap(...)/record(...); its VMtraps would cost zero "
                    "cycles" % name)
        if config_file is not None:
            for field, lineno in self._cost_fields(config_file.tree):
                if field not in attr_refs:
                    yield self.finding(
                        config_file, _FakeNode(lineno),
                        "cost-model field `%s` is never read; every vmtrap "
                        "cost knob must price some trap kind" % field)


class BarePrintRule(Rule):
    """No bare ``print(...)`` in library code.

    Library modules must never write to an ambient stdout: output goes
    through an explicit stream (``print(..., file=out)``), which is what
    lets the CLI keep machine-readable stdout separate from diagnostic
    stderr. Only the CLI itself and the table renderer are presentation
    layers; everything else under ``src/repro/`` must thread a stream.
    """

    rule_id = "REPRO301"
    name = "bare-print"
    description = ("library code must not call print() without an explicit "
                   "file= stream (cli.py, analysis/tables.py and the "
                   "benchmarks/ presentation harnesses exempt)")

    EXEMPT_SUFFIXES = ("repro/cli.py", "repro/analysis/tables.py")
    EXEMPT_DIRS = ("benchmarks/",)

    def check_file(self, source_file):
        if any(source_file.endswith(suffix)
               for suffix in self.EXEMPT_SUFFIXES):
            return
        if any(directory in source_file.posix_path
               for directory in self.EXEMPT_DIRS):
            return
        for node in ast.walk(source_file.tree):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "print"
                    and not any(kw.arg == "file" for kw in node.keywords)):
                yield self.finding(
                    source_file, node,
                    "bare `print(...)` writes to ambient stdout; pass an "
                    "explicit stream (`print(..., file=out)`) or move the "
                    "output to the CLI layer")


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


class _FakeNode:
    """Location carrier for findings not tied to a single AST node."""

    __slots__ = ("lineno", "col_offset")

    def __init__(self, lineno, col_offset=0):
        self.lineno = lineno or 1
        self.col_offset = col_offset


DEFAULT_RULES = (
    UnseededRandomRule(),
    FuzzEntropyRule(),
    MutableDefaultRule(),
    BareExceptRule(),
    PolicyHooksRule(),
    TrapAccountingRule(),
    BarePrintRule(),
    BenchRegistrationRule(),
)
