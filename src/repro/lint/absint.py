"""One forward abstract interpreter for the lattice analyses.

The address-domain pass (:mod:`repro.lint.domains`, REPRO6xx) and
the time-domain pass (:mod:`repro.lint.time`, REPRO7xx) are one
analysis over two lattices, the way the paper's agile walk is one
walker with the paging mode chosen per level. This module holds what
they share:

* :class:`Interpreter` — a forward pass over one function body of the
  :func:`~repro.lint.flow.analysis.build_program` call graph (parsing
  nothing — it walks the AST nodes the flow analysis already kept): the
  statement walker, assignment and unpacking, the environment join at
  control-flow merges, and the lattice-independent expressions. A
  subclass plugs in its lattice: parameter seeding, the transfer
  functions (``_eval_BinOp``, ``_eval_Compare``, ``_eval_Call``, ...)
  and the return check.
* :func:`join` — the one control-flow join: agreeing points survive,
  anything else is unknown (quiet, never ⊥ — conflicts fire only at the
  operation that mixes two known values, so one mix-up is one finding).
* :class:`AnalysisFinding` / :class:`Report` — pre-rendered findings
  tagged with their rule id, and :class:`AnalysisRule`, the rule base
  that renders one rule's slice of a report.
* :func:`memoized` — the content-hash memo that lets every rule of one
  engine run share a single analysis.

Nested ``def``s are interpreted in a copy of the enclosing env, so
closed-over values keep their inferred points and findings inside the
helper are attributed to the enclosing function; the helper's
``return`` statements are its own, never the enclosing function's.
"""

import ast
import functools

from repro.lint.engine import Finding, ProjectRule

#: Longest message a finding carries; longer ones are clipped to "...".
MESSAGE_LIMIT = 220


def module_tail(module):
    """The last two dotted components (``repro.hw.walker`` → ``("hw",
    "walker")``): how the analyses name a module independent of where
    the linted tree is rooted."""
    return tuple(module.split(".")[-2:])


def join(a, b):
    """Control-flow join of two lattice values (None is unknown)."""
    if a is not None and a.same_point(b):
        return a
    return None


class AnalysisFinding:
    """One pre-rendered finding, tagged with its rule id."""

    __slots__ = ("rule_id", "path", "lineno", "col", "message")

    def __init__(self, rule_id, path, lineno, col, message):
        self.rule_id = rule_id
        self.path = path
        self.lineno = lineno
        self.col = col
        if len(message) > MESSAGE_LIMIT:
            message = message[:MESSAGE_LIMIT - 3] + "..."
        self.message = message


class Report:
    """Every finding one analysis produced."""

    __slots__ = ("findings",)

    def __init__(self, findings):
        self.findings = findings

    def by_rule(self, rule_id):
        return [f for f in self.findings if f.rule_id == rule_id]


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


class AnalysisRule(ProjectRule):
    """Base: render this rule's slice of a shared analysis report.

    Subclasses set ``analysis`` to the memoized whole-tree analysis
    (``staticmethod(analyze_domains)``, ``staticmethod(analyze_time)``)
    whose findings carry this rule's ``rule_id``.
    """

    analysis = None

    def check_project(self, source_files):
        for finding in self.analysis(source_files).by_rule(self.rule_id):
            yield Finding(self.rule_id, self.name, finding.path,
                          finding.lineno, finding.col, finding.message)


class Interpreter:
    """One forward pass over one function body (nested defs included).

    Subclasses set :attr:`VALUE_TYPES`, implement
    :meth:`declared_params` and :meth:`from_name`, and add the
    ``_eval_<Node>`` transfer functions their lattice needs (an
    expression with no transfer function evaluates its children and is
    unknown). ``_eval_BinOp`` is required: augmented assignment runs
    through it.
    """

    #: The lattice's point classes; any other value is unknown to
    #: arithmetic and comparisons.
    VALUE_TYPES = ()

    def __init__(self, program, info, signatures, emit=True):
        self.program = program
        self.info = info
        self.signatures = signatures
        self.emit = emit  # False: a summary-only pass, no findings
        self.findings = []
        self.aliases = program.aliases_by_module.get(info.module, {})
        self._nested = 0  # depth of nested defs being interpreted

    # -- lattice hooks -----------------------------------------------------

    def declared_params(self):
        """{parameter name: declared domain name} seeding the entry env."""
        raise NotImplementedError

    def from_name(self, name, origin):
        """The lattice value of a declared domain name (None if unknown)."""
        raise NotImplementedError

    def check_return(self, statement, value):
        """Hook: ``return <value>`` of the interpreted function itself."""

    def scalar(self, value):
        return value if isinstance(value, self.VALUE_TYPES) else None

    def known(self, value):
        """What a conditional expression (``IfExp``/``BoolOp``) joins:
        the scalar points, unless the lattice keeps more."""
        return self.scalar(value)

    # -- plumbing ----------------------------------------------------------

    def report(self, rule_id, node, message):
        if self.emit:
            self.findings.append(AnalysisFinding(
                rule_id, self.info.path, node.lineno, node.col_offset,
                message))

    def run(self):
        env = {}
        for name, domain in self.declared_params().items():
            env[name] = self.from_name(
                domain, "`%s` is a %s parameter of `%s`"
                % (name, domain, self.info.qualname))
        self.exec_block(self.info.node.body, env)
        return self

    # -- statements --------------------------------------------------------

    def exec_block(self, statements, env):
        for statement in statements:
            self.exec_stmt(statement, env)

    def _assign(self, target, value, env):
        if isinstance(target, ast.Name):
            if value is None or isinstance(value, (tuple, list)):
                env.pop(target.id, None)
            else:
                env[target.id] = value
        elif isinstance(target, (ast.Tuple, ast.List)):
            elements = list(value) if isinstance(value, (tuple, list)) else []
            for index, element in enumerate(target.elts):
                self._assign(element, elements[index]
                             if index < len(elements) else None, env)
        elif isinstance(target, (ast.Attribute, ast.Subscript)):
            self.eval(target.value, env)
        elif isinstance(target, ast.Starred):
            self._assign(target.value, None, env)

    def exec_stmt(self, statement, env):
        if isinstance(statement, ast.Assign):
            value = self.eval(statement.value, env)
            for target in statement.targets:
                self._assign(target, value, env)
        elif isinstance(statement, ast.AnnAssign):
            value = (self.eval(statement.value, env)
                     if statement.value is not None else None)
            self._assign(statement.target, value, env)
        elif isinstance(statement, ast.AugAssign):
            synthetic = ast.BinOp(left=statement.target,
                                  op=statement.op, right=statement.value)
            ast.copy_location(synthetic, statement)
            ast.fix_missing_locations(synthetic)
            self._assign(statement.target, self._eval_BinOp(synthetic, env),
                         env)
        elif isinstance(statement, ast.Return):
            if statement.value is not None:
                value = self.eval(statement.value, env)
                if not self._nested:
                    self.check_return(statement, value)
        elif isinstance(statement, ast.Expr):
            self.eval(statement.value, env)
        elif isinstance(statement, ast.If):
            self.eval(statement.test, env)
            after_body = dict(env)
            self.exec_block(statement.body, after_body)
            after_orelse = dict(env)
            self.exec_block(statement.orelse, after_orelse)
            self._merge_into(env, after_body, after_orelse)
        elif isinstance(statement, (ast.For, ast.AsyncFor)):
            self.eval(statement.iter, env)
            body_env = dict(env)
            self._assign(statement.target, None, body_env)
            self.exec_block(statement.body, body_env)
            self.exec_block(statement.orelse, body_env)
            self._assign(statement.target, None, env)
            self._merge_into(env, env, body_env)
        elif isinstance(statement, ast.While):
            self.eval(statement.test, env)
            body_env = dict(env)
            self.exec_block(statement.body, body_env)
            self.exec_block(statement.orelse, body_env)
            self._merge_into(env, env, body_env)
        elif isinstance(statement, (ast.With, ast.AsyncWith)):
            for item in statement.items:
                value = self.eval(item.context_expr, env)
                if item.optional_vars is not None:
                    self._assign(item.optional_vars, value, env)
            self.exec_block(statement.body, env)
        elif isinstance(statement, ast.Try):
            after_body = dict(env)
            self.exec_block(statement.body, after_body)
            merged = after_body
            for handler in statement.handlers:
                after_handler = dict(env)
                self.exec_block(handler.body, after_handler)
                merged = self._merged(merged, after_handler)
            self._merge_into(env, env, merged)
            self.exec_block(statement.orelse, env)
            self.exec_block(statement.finalbody, env)
        elif isinstance(statement, ast.Delete):
            for target in statement.targets:
                self._assign(target, None, env)
        elif isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = dict(env)
            for arg in statement.args.args:
                inner.pop(arg.arg, None)
            self._nested += 1
            self.exec_block(statement.body, inner)
            self._nested -= 1
        elif isinstance(statement, (ast.ClassDef, ast.Import,
                                    ast.ImportFrom, ast.Global,
                                    ast.Nonlocal, ast.Pass, ast.Break,
                                    ast.Continue)):
            pass
        else:
            for child in ast.iter_child_nodes(statement):
                if isinstance(child, ast.expr):
                    self.eval(child, env)

    @staticmethod
    def _merged(env_a, env_b):
        merged = {}
        for name, value in env_a.items():
            kept = join(value, env_b.get(name))
            if kept is not None:
                merged[name] = kept
        return merged

    def _merge_into(self, env, env_a, env_b):
        merged = self._merged(env_a, env_b)
        env.clear()
        env.update(merged)

    # -- expressions -------------------------------------------------------

    def eval(self, node, env):
        method = getattr(self, "_eval_" + type(node).__name__, None)
        if method is not None:
            return method(node, env)
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self.eval(child, env)
        return None

    def _eval_Name(self, node, env):
        return env.get(node.id)

    def _eval_Constant(self, node, env):
        return None

    def _eval_Tuple(self, node, env):
        return tuple(self.eval(element, env) for element in node.elts)

    def _eval_NamedExpr(self, node, env):
        value = self.eval(node.value, env)
        self._assign(node.target, value, env)
        return value

    def _eval_IfExp(self, node, env):
        self.eval(node.test, env)
        return join(self.known(self.eval(node.body, env)),
                    self.known(self.eval(node.orelse, env)))

    def _eval_BoolOp(self, node, env):
        merged = self.known(self.eval(node.values[0], env))
        for value in node.values[1:]:
            merged = join(merged, self.known(self.eval(value, env)))
        return merged

    def _eval_UnaryOp(self, node, env):
        value = self.eval(node.operand, env)
        if isinstance(node.op, (ast.USub, ast.UAdd)):
            return self.scalar(value)
        return None

    # -- calls -------------------------------------------------------------

    def _eval_arguments(self, node, env):
        """Evaluate a call's arguments: ([positional values],
        {keyword: value}); ``**kwargs`` is evaluated for its findings."""
        argument_values = [self.eval(arg, env) for arg in node.args]
        keyword_values = {kw.arg: self.eval(kw.value, env)
                          for kw in node.keywords if kw.arg is not None}
        for keyword in node.keywords:
            if keyword.arg is None:
                self.eval(keyword.value, env)
        return argument_values, keyword_values

    @staticmethod
    def _bound_arguments(node, callee, argument_values, keyword_values):
        """[(param name, value node, value)] for checkable arguments."""
        if any(isinstance(arg, ast.Starred) for arg in node.args):
            return []
        parameters = [arg.arg for arg in callee.node.args.args]
        if (callee.cls is not None and parameters
                and parameters[0] in ("self", "cls")):
            parameters = parameters[1:]
        bound = []
        for index, value in enumerate(argument_values):
            if index < len(parameters):
                bound.append((parameters[index], node.args[index], value))
        for keyword in node.keywords:
            if keyword.arg in keyword_values:
                bound.append((keyword.arg, keyword.value,
                              keyword_values[keyword.arg]))
        return bound
