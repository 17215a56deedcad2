"""Per-function abstract interpretation + interprocedural summaries.

:func:`analyze_domains` runs over the :func:`build_program` call graph
(parsing nothing — it walks the AST nodes the flow analysis already
kept per function) and produces a :class:`~repro.lint.absint.Report`:

* per-function forward dataflow over the domain lattice, run by the
  shared :class:`~repro.lint.absint.Interpreter` — locals are
  seeded from ``@takes``/``@translates`` parameters and updated through
  the shift/mask idioms (``addr >> PAGE_SHIFT`` → frame, ``frame << 12``
  → addr, ``x & OFFSET_MASK`` → offset, ``x & ~mask`` keeps x),
* call-site transfer across *unambiguous* edges: declared ``@returns``
  first, else the callee's inferred return summary (computed to a
  fixpoint, so an undeclared helper still propagates its domain),
* the findings for REPRO601–REPRO604, each carrying the inferred
  provenance chain, and the REPRO605 translator-closure checks.

Branches join conservatively (disagreeing values drop to unknown), so
only operations on two *known* conflicting values report — annotations
buy checking, unannotated code stays silent. A nested helper's body is
checked as part of its enclosing function; its returns are not the
enclosing function's returns.
"""

import ast

from repro.common.addrspace import PAPER_EDGES
from repro.lint.absint import (
    AnalysisFinding,
    Interpreter,
    Report,
    join,
    memoized,
    module_tail,
)
from repro.lint.domains.model import (
    Value,
    from_name,
    is_inverted_mask,
    is_offset_mask,
    is_page_shift,
    read_signature,
    spaces_conflict,
    units_conflict,
)
from repro.lint.flow.analysis import _resolve_call, build_program
from repro.lint.rules import tail_name

#: Rule ids, one per kind of finding.
CROSS_DOMAIN = "REPRO601"
WRONG_ARGUMENT = "REPRO602"
UNTRANSLATED = "REPRO603"
FRAME_BYTE = "REPRO604"
CLOSURE = "REPRO605"

#: PhysicalMemory accessors whose first argument indexes RAM by frame.
PHYSMEM_ACCESSORS = ("read", "read_required", "install", "free_frame")

#: Receiver spellings with a fixed backing space: ``self.guest_mem``
#: holds guest-physical frames, ``self.host_mem`` host-physical ones.
PHYSMEM_SPACES = {
    "guest_mem": ("guest-physical", "gfn"),
    "host_mem": ("host-physical", "hfn"),
}

#: Arithmetic operators checked for cross-space mixing (REPRO601).
_ADDITIVE_OPS = (ast.Add, ast.Sub, ast.BitOr, ast.BitXor,
                 ast.Mult, ast.Div, ast.FloorDiv, ast.Mod)

#: Comparison operators checked for cross-space mixing.
_ORDERED_CMPS = (ast.Eq, ast.NotEq, ast.Lt, ast.LtE, ast.Gt, ast.GtE)

#: Call-graph roots the translator-closure reachability starts from:
#: the hardware walk itself plus the VMexit handlers its faults invoke.
_ROOT_MODULE_TAILS = (("hw", "walker"), ("hw", "mmu"))

#: Modules that implement the gPA→hPA step and therefore must declare
#: it (dropping the @translates is a REPRO605, not a silent hole).
_REQUIRED_EDGES = {
    ("hw", "walker"): ("gfn", "hfn"),
    ("vmm", "hostpt"): ("gfn", "hfn"),
}


class _Interpreter(Interpreter):
    """The domain lattice's transfer functions, return summaries, and
    physical-memory accessor checks."""

    VALUE_TYPES = (Value,)
    from_name = staticmethod(from_name)

    def __init__(self, program, info, signatures, summaries, emit):
        super().__init__(program, info, signatures, emit)
        self.summaries = summaries
        self.returns = []  # one tuple of Value-or-None per return stmt

    def declared_params(self):
        return self.signatures[self.info.qualname].param_domains(
            self.info.node)

    def return_summary(self):
        """Positionwise join over every return statement's domains."""
        if not self.returns:
            return None
        width = max(len(r) for r in self.returns)
        summary = []
        for position in range(width):
            merged = self.returns[0][position] if position < len(
                self.returns[0]) else None
            for values in self.returns[1:]:
                other = values[position] if position < len(values) else None
                merged = join(merged, other)
            summary.append(merged.domain if merged is not None else None)
        if all(domain is None for domain in summary):
            return None
        return tuple(summary)

    def check_return(self, statement, value):
        values = (tuple(self.scalar(v) for v in value)
                  if isinstance(value, (tuple, list))
                  else (self.scalar(value),))
        self.returns.append(values)
        declared = self.signatures[self.info.qualname].return_domains()
        if declared is None:
            return
        for position, declared_name in enumerate(declared):
            if declared_name is None or position >= len(values):
                continue
            inferred = values[position]
            want = from_name(declared_name, "declared")
            if inferred is None or want is None:
                continue
            if spaces_conflict(want, inferred):
                self.report(WRONG_ARGUMENT, statement,
                            "`%s` returns %s where %s is declared — %s"
                            % (self.info.qualname, inferred.domain,
                               declared_name, inferred.origin))
            elif units_conflict(want, inferred):
                self.report(FRAME_BYTE, statement,
                            "`%s` returns %s where %s is declared "
                            "(frame/byte confusion) — %s"
                            % (self.info.qualname, inferred.domain,
                               declared_name, inferred.origin))

    # -- expressions -------------------------------------------------------

    def _eval_Compare(self, node, env):
        values = [self.scalar(self.eval(node.left, env))]
        for comparator in node.comparators:
            values.append(self.scalar(self.eval(comparator, env)))
        for index, op in enumerate(node.ops):
            if not isinstance(op, _ORDERED_CMPS):
                continue
            left, right = values[index], values[index + 1]
            if spaces_conflict(left, right):
                self.report(CROSS_DOMAIN, node,
                            "cross-domain comparison: %s (%s) vs %s (%s)"
                            % (left.domain, left.origin,
                               right.domain, right.origin))
            elif units_conflict(left, right):
                self.report(FRAME_BYTE, node,
                            "frame/byte comparison: %s (%s) vs %s (%s)"
                            % (left.domain, left.origin,
                               right.domain, right.origin))
        return None

    def _eval_BinOp(self, node, env):
        left = self.scalar(self.eval(node.left, env))
        right = self.scalar(self.eval(node.right, env))
        op = node.op
        if isinstance(op, ast.RShift):
            if left is not None and is_page_shift(node.right):
                if left.unit == "addr":
                    return Value(left.space, "frame",
                                 "%s; `>> PAGE_SHIFT` makes it a frame"
                                 % left.origin)
                if left.unit == "frame":
                    self.report(FRAME_BYTE, node,
                                "page-shifting %s again: it is already a "
                                "frame number (%s)"
                                % (left.domain, left.origin))
            return None
        if isinstance(op, ast.LShift):
            if left is not None and is_page_shift(node.right):
                if left.unit == "frame":
                    return Value(left.space, "addr",
                                 "%s; `<< PAGE_SHIFT` makes it a byte "
                                 "address" % left.origin)
                if left.unit == "addr":
                    self.report(FRAME_BYTE, node,
                                "page-shifting %s left: it is already a "
                                "byte address (%s)"
                                % (left.domain, left.origin))
            return None
        if isinstance(op, ast.BitAnd):
            if is_inverted_mask(node.right):
                return left
            if is_inverted_mask(node.left):
                return right
            if is_offset_mask(node.right) or is_offset_mask(node.left):
                masked = left if not is_offset_mask(node.left) else right
                origin = masked.origin if masked is not None else "mask"
                return Value(None, "offset",
                             "%s; `& OFFSET_MASK` leaves an offset" % origin)
            return None
        if isinstance(op, _ADDITIVE_OPS):
            return self._additive(op, node, left, right)
        return None

    def _additive(self, op, node, left, right):
        if left is None or right is None:
            if isinstance(op, (ast.FloorDiv, ast.Mod)):
                return left
            return None
        if spaces_conflict(left, right):
            self.report(CROSS_DOMAIN, node,
                        "cross-domain arithmetic: %s (%s) %s %s (%s)"
                        % (left.domain, left.origin,
                           type(op).__name__.lower(),
                           right.domain, right.origin))
            return None
        if left.unit == "offset":
            return right if right.unit != "offset" else left
        if right.unit == "offset":
            return left
        if units_conflict(left, right):
            self.report(FRAME_BYTE, node,
                        "frame/byte arithmetic: %s (%s) mixed with %s (%s)"
                        % (left.domain, left.origin,
                           right.domain, right.origin))
            return None
        if isinstance(op, ast.Mult):
            return None  # page_index * granule changes the unit
        space = left.space if left.space is not None else right.space
        return Value(space, left.unit, left.origin)

    # -- calls -------------------------------------------------------------

    def _eval_Call(self, node, env):
        argument_values, keyword_values = self._eval_arguments(node, env)
        if isinstance(node.func, ast.Attribute):
            self.eval(node.func.value, env)
        physmem_checked = self._check_physmem(node, argument_values,
                                              keyword_values)
        resolved = _resolve_call(node, self.info, self.aliases, self.program)
        if resolved is None:
            return None
        candidates, ambiguous = resolved
        if ambiguous or len(candidates) != 1:
            return None
        target = candidates[0]
        callee = self.program.functions.get(target)
        if callee is None or callee.node is None:
            return None
        signature = self.signatures.get(target)
        if signature is not None:
            self._check_arguments(node, callee, signature, argument_values,
                                  keyword_values, physmem_checked)
        return self._call_result(target, signature)

    def _call_result(self, target, signature):
        declared = signature.return_domains() if signature else None
        if declared is not None:
            values = tuple(
                from_name(name, "`%s(...)` returns declared %s"
                          % (target, name)) if name else None
                for name in declared)
        else:
            summary = self.summaries.get(target)
            if summary is None:
                return None
            values = tuple(
                from_name(name, "`%s(...)` returns inferred %s"
                          % (target, name)) if name else None
                for name in summary)
        if len(values) == 1:
            return values[0]
        return values

    def _check_arguments(self, node, callee, signature, argument_values,
                         keyword_values, physmem_checked):
        domains = signature.param_domains(callee.node)
        if not domains:
            return
        for parameter, value_node, value in self._bound_arguments(
                node, callee, argument_values, keyword_values):
            declared_name = domains.get(parameter)
            if declared_name is None or value is None:
                continue
            if physmem_checked and value_node in physmem_checked:
                continue
            value = self.scalar(value)
            if value is None:
                continue
            declared = from_name(declared_name, "declared")
            if spaces_conflict(declared, value):
                self.report(WRONG_ARGUMENT, value_node,
                            "argument `%s` of `%s` expects %s, got %s — %s"
                            % (parameter, callee.qualname, declared_name,
                               value.domain, value.origin))
            elif units_conflict(declared, value):
                self.report(FRAME_BYTE, value_node,
                            "argument `%s` of `%s` expects %s, got %s "
                            "(frame/byte confusion) — %s"
                            % (parameter, callee.qualname, declared_name,
                               value.domain, value.origin))

    def _check_physmem(self, node, argument_values, keyword_values):
        """guest_mem/host_mem accessor check (REPRO603/REPRO604)."""
        func = node.func
        if (not isinstance(func, ast.Attribute)
                or func.attr not in PHYSMEM_ACCESSORS):
            return ()
        receiver = tail_name(func.value)
        backing = PHYSMEM_SPACES.get(receiver)
        if backing is None:
            return ()
        space, frame_name = backing
        if node.args:
            value_node, value = node.args[0], argument_values[0]
        elif "frame" in keyword_values:
            value_node = next(kw.value for kw in node.keywords
                              if kw.arg == "frame")
            value = keyword_values["frame"]
        else:
            return ()
        value = self.scalar(value)
        if value is None:
            return ()
        if value.space is not None and value.space != space:
            self.report(UNTRANSLATED, value_node,
                        "`%s.%s` indexes %s RAM (%s frames) but got %s "
                        "without passing through a declared translator — %s"
                        % (receiver, func.attr, space, frame_name,
                           value.domain, value.origin))
            return (value_node,)
        if value.unit == "addr":
            self.report(FRAME_BYTE, value_node,
                        "`%s.%s` indexes RAM by frame number, got the "
                        "byte address %s — shift it right by PAGE_SHIFT "
                        "first (%s)"
                        % (receiver, func.attr, value.domain, value.origin))
            return (value_node,)
        return (value_node,)


# -- the whole-tree analysis --------------------------------------------------


def _closure_findings(program, signatures):
    """REPRO605: every declared translator is a real, reachable paper
    edge, and the modules that implement the gPA→hPA step declare it."""
    findings = []
    translators = {}
    for qualname, info in program.functions.items():
        signature = signatures[qualname]
        if signature.translates is not None:
            translators[qualname] = signature.translates
    paper_edges = set(PAPER_EDGES)
    roots = [qualname for qualname, info in program.functions.items()
             if module_tail(info.module) in _ROOT_MODULE_TAILS
             or "trap_handler" in info.effects]
    reachable = program.reachable_from(roots) if roots else None
    for qualname, (src, dst) in sorted(translators.items()):
        info = program.functions[qualname]
        if (src, dst) not in paper_edges:
            findings.append(AnalysisFinding(
                CLOSURE, info.path, info.lineno, 0,
                "`%s` declares @translates(%r, %r), which is not a "
                "paper-model edge (gVA→gPA→hPA): allowed pairs are %s"
                % (qualname, src, dst,
                   ", ".join("%s→%s" % edge for edge in PAPER_EDGES))))
        elif reachable is not None and qualname not in reachable:
            findings.append(AnalysisFinding(
                CLOSURE, info.path, info.lineno, 0,
                "translator `%s` (%s→%s) is not reachable from the "
                "hardware walker or any trap handler — a translation "
                "edge nothing can ever take" % (qualname, src, dst)))
    for module in sorted(program.modules):
        required = _REQUIRED_EDGES.get(module_tail(module))
        if required is None:
            continue
        declared = any(edge == required
                       for qualname, edge in translators.items()
                       if program.functions[qualname].module == module)
        if not declared:
            source_file = program.files_by_module[module]
            findings.append(AnalysisFinding(
                CLOSURE, source_file.path, 1, 0,
                "module `%s` implements the %s→%s translation step but "
                "declares no @translates(%r, %r) function"
                % (module, required[0], required[1], required[0],
                   required[1])))
    return findings


#: Fixpoint bound for inferred return summaries; chains of undeclared
#: helpers deeper than this stay unknown (quiet) rather than wrong.
MAX_SUMMARY_PASSES = 4


@memoized
def analyze_domains(source_files):
    """The address-domain analysis of one file set."""
    program = build_program(source_files)
    signatures = {qualname: read_signature(info.node)
                  for qualname, info in program.functions.items()}
    summaries = {}
    for _ in range(MAX_SUMMARY_PASSES):
        changed = False
        for qualname, info in program.functions.items():
            if signatures[qualname].return_domains() is not None:
                continue  # declared wins; nothing to infer
            interp = _Interpreter(program, info, signatures, summaries,
                                  emit=False).run()
            inferred = interp.return_summary()
            if summaries.get(qualname) != inferred:
                if inferred is None:
                    summaries.pop(qualname, None)
                else:
                    summaries[qualname] = inferred
                changed = True
        if not changed:
            break
    findings = []
    for qualname, info in program.functions.items():
        interp = _Interpreter(program, info, signatures, summaries,
                              emit=True).run()
        findings.extend(interp.findings)
    findings.extend(_closure_findings(program, signatures))
    return Report(findings)
