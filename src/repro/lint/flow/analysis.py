"""Whole-program analysis: symbol table, call graph, function summaries.

:func:`build_program` parses nothing itself — it walks the already
parsed ASTs of a :class:`repro.lint.engine.SourceFile` set exactly once
and produces a :class:`Program`: every module-level function and method
as a :class:`FunctionInfo` (with its declared effects and its resolved
call sites), plus the indexes the interprocedural rules query.

Call resolution is deliberately *conservative over edges, honest about
ambiguity*. An edge is produced when the callee can be pinned down:

* a bare name defined at the top level of the same module,
* an imported name (``_import_aliases`` resolves both absolute and
  relative imports to dotted ``repro.*`` paths),
* ``self.method()`` / ``cls.method()`` against the enclosing class,
* a dotted path through a known module (``repro.vmm.traps.charge`` or
  ``module.Class.method``).

Anything else with an attribute receiver (``state.manager.fill_for``)
falls back to *name matching* against every method of that name in the
program: one candidate makes an unambiguous edge, several make an
ambiguous one. The effect checks (REPRO401/406) consider every
candidate: a call that *might* reach a mutator already needs
authority.

The build is memoized on the file set's content hashes: the flow rules
all call :func:`build_program` from one engine run and share a single
analysis.
"""

import ast
import functools

from repro.lint.rules import _dotted_name, _import_aliases, tail_name

#: Decorator tails (from ``repro.common.effects``) the analyzer recognizes.
EFFECT_MARKERS = ("trap_handler", "policy_decision")


class FunctionInfo:
    """One module-level function or method: summary + call sites."""

    __slots__ = ("qualname", "module", "cls", "name", "path", "lineno",
                 "effects", "calls")

    def __init__(self, qualname, module, cls, name, path, lineno, effects):
        self.qualname = qualname
        self.module = module
        self.cls = cls
        self.name = name
        self.path = path
        self.lineno = lineno
        self.effects = frozenset(effects)
        self.calls = []


class CallSite:
    """One call expression attributed to its enclosing function.

    ``candidates`` are the project functions the callee may be;
    ``ambiguous`` is True when they came from name matching with more
    than one hit.
    """

    __slots__ = ("lineno", "col", "candidates", "ambiguous")

    def __init__(self, lineno, col, candidates, ambiguous):
        self.lineno = lineno
        self.col = col
        self.candidates = candidates
        self.ambiguous = ambiguous


class Program:
    """The whole-program view the flow rules run over."""

    __slots__ = ("functions", "modules", "module_functions", "classes",
                 "methods_by_name", "files_by_module", "aliases_by_module")

    def __init__(self):
        self.functions = {}          # qualname -> FunctionInfo
        self.modules = set()         # every module name in the file set
        self.module_functions = {}   # (module, name) -> qualname
        self.classes = {}            # (module, cls) -> {method: qualname}
        self.methods_by_name = {}    # method name -> (qualname, ...)
        self.files_by_module = {}    # module name -> SourceFile
        self.aliases_by_module = {}  # module name -> import alias map


def _decorator_effects(node):
    """The effect markers declared on one function definition."""
    effects = []
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        tail = tail_name(target)
        if (isinstance(decorator, ast.Call) and tail == "mutates"
                and decorator.args
                and isinstance(decorator.args[0], ast.Constant)
                and isinstance(decorator.args[0].value, str)):
            effects.append("mutates:" + decorator.args[0].value)
        elif tail in EFFECT_MARKERS:
            effects.append(tail)
    return effects


class _RawFunction:
    __slots__ = ("info", "node")

    def __init__(self, info, node):
        self.info = info
        self.node = node


def _collect_definitions(source_file, program):
    """Pass 1: register every top-level function and method."""
    module = source_file.module_name
    program.modules.add(module)
    program.files_by_module[module] = source_file
    raw = []
    for node in source_file.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qualname = "%s.%s" % (module, node.name)
            info = FunctionInfo(qualname, module, None, node.name,
                                source_file.path, node.lineno,
                                _decorator_effects(node))
            program.functions[qualname] = info
            program.module_functions[(module, node.name)] = qualname
            raw.append(_RawFunction(info, node))
        elif isinstance(node, ast.ClassDef):
            methods = program.classes.setdefault((module, node.name), {})
            for item in node.body:
                if not isinstance(item, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                    continue
                qualname = "%s.%s.%s" % (module, node.name, item.name)
                info = FunctionInfo(qualname, module, node.name, item.name,
                                    source_file.path, item.lineno,
                                    _decorator_effects(item))
                program.functions[qualname] = info
                methods[item.name] = qualname
                raw.append(_RawFunction(info, item))
    return raw


def _name_match(tail, program):
    """Fallback resolution: every project method named ``tail``."""
    candidates = program.methods_by_name.get(tail)
    if not candidates:
        return None
    return candidates, len(candidates) > 1


def _resolve_dotted(full, program):
    """Resolve ``repro.x.y.fn`` / ``repro.x.y.Class.method`` if known."""
    parts = full.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        module = ".".join(parts[:cut])
        if module not in program.modules:
            continue
        rest = parts[cut:]
        if len(rest) == 1:
            qualname = program.module_functions.get((module, rest[0]))
            if qualname is not None:
                return (qualname,), False
        elif len(rest) == 2:
            qualname = program.classes.get((module, rest[0]), {}).get(rest[1])
            if qualname is not None:
                return (qualname,), False
        return None
    return None


def _resolve_call(call, info, aliases, program):
    """Candidates for one Call node, or None when no edge can be made."""
    func = call.func
    dotted = _dotted_name(func)
    if dotted is None:
        # Computed receiver (a call result, a subscript): method-name
        # matching on the attribute tail is the best that can be done.
        if isinstance(func, ast.Attribute):
            return _name_match(func.attr, program)
        return None
    parts = dotted.split(".")
    head = parts[0]
    if len(parts) == 1:
        qualname = program.module_functions.get((info.module, head))
        if qualname is not None:
            return (qualname,), False
        target = aliases.get(head)
        if target is not None:
            return _resolve_dotted(target, program)
        return None
    if head in ("self", "cls"):
        if len(parts) == 2 and info.cls is not None:
            methods = program.classes.get((info.module, info.cls), {})
            qualname = methods.get(parts[1])
            if qualname is not None:
                return (qualname,), False
        return _name_match(parts[-1], program)
    if len(parts) == 2 and (info.module, head) in program.classes:
        qualname = program.classes[(info.module, head)].get(parts[1])
        if qualname is not None:
            return (qualname,), False
        return None
    expanded = aliases.get(head)
    if expanded is not None:
        return _resolve_dotted(
            ".".join([expanded] + parts[1:]), program)
    return _name_match(parts[-1], program)


def _analyze_bodies(source_file, raw_functions, program):
    """Pass 2: the resolved call sites of every function."""
    aliases = _import_aliases(source_file.tree, source_file.package)
    program.aliases_by_module[source_file.module_name] = aliases
    for raw in raw_functions:
        info = raw.info
        for node in ast.walk(raw.node):
            if not isinstance(node, ast.Call):
                continue
            resolved = _resolve_call(node, info, aliases, program)
            if resolved is None:
                continue
            candidates, ambiguous = resolved
            info.calls.append(CallSite(node.lineno, node.col_offset,
                                       tuple(candidates), ambiguous))


def memoized(analysis):
    """Memoize ``analysis(source_files)`` on the file set's paths and
    content hashes, so all rules of one engine run share one result."""
    last = [None, None]

    @functools.wraps(analysis)
    def cached(source_files):
        key = tuple((f.path, f.content_hash) for f in source_files)
        if key != last[0]:
            last[:] = [key, analysis(source_files)]
        return last[1]

    return cached


@memoized
def build_program(source_files):
    """The whole-program analysis of one file set."""
    program = Program()
    per_file = [(f, _collect_definitions(f, program)) for f in source_files]
    by_name = {}
    for info in program.functions.values():
        if info.cls is not None:
            by_name.setdefault(info.name, []).append(info.qualname)
    program.methods_by_name = {name: tuple(quals)
                               for name, quals in by_name.items()}
    for source_file, raw_functions in per_file:
        _analyze_bodies(source_file, raw_functions, program)
    return program
