"""Per-function abstract interpretation over the time lattice.

:func:`analyze_time` runs over the :func:`build_program` call graph
(parsing nothing — it walks the AST nodes the flow analysis already
kept per function) and produces a :class:`~repro.lint.absint.Report`:

* per-function forward dataflow over the time lattice, run by the
  shared :class:`~repro.lint.absint.Interpreter` — locals are
  seeded from ``@cycles`` parameters and updated through the clock
  idioms (``self.clock.now`` is an instant on the module's clock side,
  ``x.system.clock`` is a VM's virtual clock, ``clock.host`` reaches
  the shared host clock through a ``VirtualClock``, instants subtract
  to durations, a duration shifts an instant along its own clock),
* the findings for REPRO701 (cross-clock arithmetic/compares/calls),
  REPRO702 (host-clock authority) and REPRO703 (cycle conservation:
  every clock-advance site sits in a function declaring ``@charges``).

Branches join conservatively (disagreeing values drop to unknown), so
only operations on two *known* conflicting values report — annotations
buy checking, unannotated code stays silent. A nested helper's body is
checked as part of its enclosing function (its advance sites are the
enclosing function's); its returns are not the enclosing function's
returns.
"""

import ast

from repro.lint.absint import (
    AnalysisFinding,
    Interpreter,
    Report,
    memoized,
)
from repro.lint.flow.analysis import _resolve_call, build_program
from repro.lint.time.model import (
    ClockRef,
    TimeValue,
    clocks_conflict,
    duration,
    from_name,
    instant,
    is_exempt,
    kinds_conflict,
    may_advance_host,
    module_clock_side,
    read_signature,
)

#: Rule ids, one per kind of finding.
CROSS_CLOCK = "REPRO701"
CLOCK_AUTHORITY = "REPRO702"
UNATTRIBUTED = "REPRO703"

#: Attribute tails that name a clock object on their holder.
_CLOCK_ATTRS = ("clock", "_clock")

#: Arithmetic operators checked for cross-clock mixing (REPRO701).
_ADDITIVE_OPS = (ast.Add, ast.Sub)

#: Comparison operators checked for cross-clock mixing.
_ORDERED_CMPS = (ast.Eq, ast.NotEq, ast.Lt, ast.LtE, ast.Gt, ast.GtE)


class _Interpreter(Interpreter):
    """The time lattice's transfer functions, clock-expression
    recognition, and advance-site collection."""

    VALUE_TYPES = (TimeValue,)
    from_name = staticmethod(from_name)

    def __init__(self, program, info, signatures):
        super().__init__(program, info, signatures)
        self.advance_sites = []  # [(Call node, ClockRef)]
        self.side = module_clock_side(info.module)

    def declared_params(self):
        return self.signatures[self.info.qualname].params

    def known(self, value):
        return value if isinstance(value, (TimeValue, ClockRef)) else None

    def check_return(self, statement, value):
        value = self.scalar(value)
        declared_name = self.signatures[self.info.qualname].returns
        if declared_name is None or value is None:
            return
        want = from_name(declared_name, "declared")
        if want is None:
            return
        if clocks_conflict(want, value):
            self.report(CROSS_CLOCK, statement,
                        "`%s` returns a %s value where %s is declared — %s"
                        % (self.info.qualname, value.domain, declared_name,
                           value.origin))
        elif kinds_conflict(want, value):
            self.report(CROSS_CLOCK, statement,
                        "`%s` returns an %s where a %s is declared "
                        "(epoch/interval confusion) — %s"
                        % (self.info.qualname, value.kind, declared_name,
                           value.origin))

    # -- clock-expression recognition --------------------------------------

    def _clock_of(self, node, env):
        """The ClockRef a receiver expression denotes, or None."""
        if isinstance(node, ast.Name):
            value = env.get(node.id)
            return value if isinstance(value, ClockRef) else None
        if not isinstance(node, ast.Attribute):
            return None
        attr = node.attr
        if attr == "host":
            inner = self._clock_of(node.value, env)
            if inner is not None:
                return ClockRef("host_wall",
                                "`%s` reaches the shared host clock "
                                "through a VirtualClock view"
                                % ast.unparse(node), via_host=True)
            return None
        if attr in _CLOCK_ATTRS:
            spelled = ast.unparse(node)
            if (isinstance(node.value, ast.Attribute)
                    and node.value.attr == "system"):
                # X.system.clock: one VM's machine, i.e. its virtual view.
                return ClockRef("guest",
                                "`%s` is a VM's virtual clock" % spelled)
            side = self.side
            what = ("the shared host clock" if side == "host_wall"
                    else "this machine's own clock")
            return ClockRef(side, "`%s` is %s (%s is %s-side)"
                            % (spelled, what, self.info.module,
                               "host" if side == "host_wall" else "guest"))
        return None

    # -- expressions -------------------------------------------------------

    def _eval_Attribute(self, node, env):
        ref = self._clock_of(node, env)
        if ref is not None:
            return ref
        if node.attr == "now":
            holder = self._clock_of(node.value, env)
            if holder is not None:
                return instant(holder.clock, "`%s` reads %s"
                               % (ast.unparse(node),
                                  "host wall time"
                                  if holder.clock == "host_wall"
                                  else "this machine's virtual time"))
        self.eval(node.value, env)
        return None

    def _eval_Compare(self, node, env):
        values = [self.scalar(self.eval(node.left, env))]
        for comparator in node.comparators:
            values.append(self.scalar(self.eval(comparator, env)))
        for index, op in enumerate(node.ops):
            if not isinstance(op, _ORDERED_CMPS):
                continue
            left, right = values[index], values[index + 1]
            if clocks_conflict(left, right):
                self.report(CROSS_CLOCK, node,
                            "cross-clock comparison: %s (%s) vs %s (%s)"
                            % (left.domain, left.origin,
                               right.domain, right.origin))
            elif kinds_conflict(left, right):
                self.report(CROSS_CLOCK, node,
                            "comparing an %s with a %s (epoch/interval "
                            "confusion): %s vs %s"
                            % (left.kind, right.kind,
                               left.origin, right.origin))
        return None

    def _eval_BinOp(self, node, env):
        left = self.scalar(self.eval(node.left, env))
        right = self.scalar(self.eval(node.right, env))
        if not isinstance(node.op, _ADDITIVE_OPS):
            return None
        if left is None or right is None:
            return None
        if left.kind == "instant" and right.kind == "instant":
            if clocks_conflict(left, right):
                self.report(CROSS_CLOCK, node,
                            "cross-clock arithmetic: %s (%s) %s %s (%s)"
                            % (left.domain, left.origin,
                               type(node.op).__name__.lower(),
                               right.domain, right.origin))
                return None
            if isinstance(node.op, ast.Sub):
                return duration("%s minus %s" % (left.origin, right.origin))
            return None  # adding two epochs is meaningless; stay quiet
        if left.kind == "instant" and right.kind == "duration":
            return TimeValue("instant", left.clock, left.origin)
        if left.kind == "duration" and right.kind == "instant":
            if isinstance(node.op, ast.Add):
                return TimeValue("instant", right.clock, right.origin)
            return None
        return duration(left.origin)

    # -- calls -------------------------------------------------------------

    def _eval_Call(self, node, env):
        argument_values, keyword_values = self._eval_arguments(node, env)
        func = node.func
        if isinstance(func, ast.Attribute):
            if func.attr == "advance":
                ref = self._clock_of(func.value, env)
                if ref is not None:
                    self.advance_sites.append((node, ref))
                    for value in argument_values:
                        value = self.scalar(value)
                        if value is not None and value.kind == "instant":
                            self.report(
                                CROSS_CLOCK, node,
                                "advancing a clock by an *instant* (%s) — "
                                "advance() takes a duration; subtract two "
                                "instants on the same clock first"
                                % value.origin)
            self.eval(func.value, env)
        resolved = _resolve_call(node, self.info, self.aliases, self.program)
        if resolved is None:
            return None
        candidates, ambiguous = resolved
        self._check_arguments(node, candidates, argument_values,
                              keyword_values)
        if ambiguous or len(candidates) != 1:
            return None
        signature = self.signatures.get(candidates[0])
        if signature is None or signature.returns is None:
            return None
        return from_name(signature.returns,
                         "`%s(...)` returns declared %s"
                         % (candidates[0], signature.returns))

    def _check_arguments(self, node, candidates, argument_values,
                         keyword_values):
        """Cross-clock argument check, tolerant of name-matched calls.

        A value node is checked when at least one candidate declares a
        time domain for the parameter it binds there and every declaring
        candidate agrees on the domain — so `state.policy.note_write`
        (name-matched against both policy classes, which agree on
        ``now="guest_sim"``) is still checked, while a coincidental
        method-name collision with disagreeing declarations stays quiet.
        """
        declared_per_node = {}
        for qualname in candidates:
            callee = self.program.functions.get(qualname)
            signature = self.signatures.get(qualname)
            if (callee is None or callee.node is None or signature is None
                    or not signature.params):
                continue
            for parameter, value_node, value in self._bound_arguments(
                    node, callee, argument_values, keyword_values):
                declared_name = signature.params.get(parameter)
                if declared_name is None:
                    continue
                entry = declared_per_node.setdefault(
                    value_node, (value, parameter, qualname, set()))
                entry[3].add(declared_name)
        for value_node, (value, parameter, qualname,
                         names) in declared_per_node.items():
            if len(names) != 1:
                continue  # declaring candidates disagree: stay quiet
            declared_name = names.pop()
            value = self.scalar(value)
            if value is None:
                continue
            declared = from_name(declared_name, "declared")
            if declared is None:
                continue
            if clocks_conflict(declared, value):
                self.report(CROSS_CLOCK, value_node,
                            "argument `%s` of `%s` expects %s time, got "
                            "%s — %s"
                            % (parameter, qualname, declared_name,
                               value.domain, value.origin))
            elif kinds_conflict(declared, value):
                self.report(CROSS_CLOCK, value_node,
                            "argument `%s` of `%s` expects a %s, got an "
                            "%s (epoch/interval confusion) — %s"
                            % (parameter, qualname, declared_name,
                               value.kind, value.origin))


def _site_findings(info, signature, advance_sites):
    """REPRO702/REPRO703 for one function's collected advance sites."""
    findings = []
    if is_exempt(info.module):
        return findings

    def fail(rule_id, node, message):
        findings.append(AnalysisFinding(rule_id, info.path, node.lineno,
                                        node.col_offset, message))

    for node, ref in advance_sites:
        if ref.via_host:
            fail(CLOCK_AUTHORITY, node,
                 "`%s` advances the host clock through a VirtualClock's "
                 "`.host` — VM-side code must charge its own virtual view "
                 "and let the pass-through in repro.common.clock bill host "
                 "wall time (%s)" % (info.qualname, ref.origin))
        elif (ref.clock == "host_wall"
              and not may_advance_host(info.module, info.cls)):
            fail(CLOCK_AUTHORITY, node,
                 "`%s` advances the shared host clock, but only "
                 "VCpuScheduler and Host hold that authority — %s"
                 % (info.qualname, ref.origin))
        side = "host_wall" if ref.clock == "host_wall" else "guest_sim"
        if not ref.via_host and side not in signature.advances:
            fail(CLOCK_AUTHORITY, node,
                 "`%s` advances a %s clock without declaring "
                 "@advances(%r) — %s"
                 % (info.qualname, side, side, ref.origin))
        if not signature.charges:
            fail(UNATTRIBUTED, node,
                 "unattributed clock advance in `%s`: declare "
                 "@charges(<RunMetrics counter>) or an explicit "
                 "@charges(\"sink:...\") so total_cycles stays the "
                 "sum of its parts (%s)" % (info.qualname, ref.origin))
    for clock in signature.advances:
        if (clock == "host_wall"
                and not may_advance_host(info.module, info.cls)):
            findings.append(AnalysisFinding(
                CLOCK_AUTHORITY, info.path, info.lineno, 0,
                "`%s` declares @advances(\"host_wall\") but only "
                "VCpuScheduler and Host may advance the shared "
                "host clock" % info.qualname))
    return findings


# -- the whole-tree analysis --------------------------------------------------


#: Rule each decorator's syntax errors are reported under.
_SYNTAX_ERROR_RULES = {"cycles": CROSS_CLOCK, "advances": CLOCK_AUTHORITY,
                       "charges": UNATTRIBUTED}


@memoized
def analyze_time(source_files):
    """The time-domain analysis of one file set."""
    program = build_program(source_files)
    signatures = {}
    findings = []
    for qualname, info in program.functions.items():
        signature, errors = read_signature(info.node)
        signatures[qualname] = signature
        for node, tail, message in errors:
            findings.append(AnalysisFinding(
                _SYNTAX_ERROR_RULES[tail], info.path, node.lineno,
                node.col_offset, message))
    for qualname, info in program.functions.items():
        interp = _Interpreter(program, info, signatures).run()
        findings.extend(interp.findings)
        findings.extend(_site_findings(info, signatures[qualname],
                                       interp.advance_sites))
    return Report(findings)
