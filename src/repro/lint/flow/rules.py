"""The interprocedural rules (REPRO4xx/5xx) of ``repro lint --deep``.

All of these are :class:`~repro.lint.engine.ProjectRule` subclasses:
they see the whole file set at once and most of them query the shared
:func:`repro.lint.flow.analysis.build_program` call-graph analysis.
Numbering: REPRO4xx are call-graph contracts (effects, taint, taxonomy,
dispatch), REPRO5xx are architecture checks (layering, config keys).
"""

import ast
import re

from repro.lint.engine import Finding, ProjectRule
from repro.lint.flow.analysis import build_program
from repro.lint.flow.layers import module_layer
from repro.lint.rules import _resolve_relative, tail_name

# Effects that authorize reaching a shadow-PT mutator (REPRO401) and a
# switching-bit mutator (REPRO402): the shadow manager's own mutators
# call each other, trap handlers are the VMM entry points, and policy
# decisions drive the mode switches (Section III-C).
SHADOW_EFFECT = "mutates:shadow_pt"
SWITCH_EFFECT = "mutates:switching_bits"
LEDGER_EFFECT = "mutates:host_ledger"
ALLOWED_INTO_SHADOW = frozenset((SHADOW_EFFECT, "trap_handler",
                                 "policy_decision"))
ALLOWED_INTO_SWITCH = frozenset((SWITCH_EFFECT, SHADOW_EFFECT,
                                 "trap_handler", "policy_decision"))

# REPRO403 scope: the deterministic core of the simulator. runner/,
# analysis/, cli and the fuzz *campaign* layer legitimately read wall
# time (progress reporting, wall-clock budgets); the scenario/oracle/
# shrink triple must regenerate bit-identically from a seed.
DETERMINISTIC_SUBPACKAGES = frozenset(
    ("common", "mem", "hw", "guest", "vmm", "core", "workloads"))
DETERMINISTIC_MODULES = frozenset(
    ("repro.fuzz.scenario", "repro.fuzz.oracle", "repro.fuzz.shrink"))


def _in_deterministic_scope(module):
    if module in DETERMINISTIC_MODULES:
        return True
    parts = module.split(".")
    return (len(parts) >= 2 and parts[0] == "repro"
            and parts[1] in DETERMINISTIC_SUBPACKAGES)


class ShadowAuthorityRule(ProjectRule):
    """REPRO401: only authorized code may reach shadow-PT mutators.

    Every call whose (possible) callee is annotated
    ``@mutates("shadow_pt")`` must come from a function that is itself a
    shadow-PT mutator, a ``@trap_handler``, or a ``@policy_decision`` —
    the static form of "nothing outside the VMM writes a shadow PTE".
    Every name-match candidate counts: an ambiguous callee that *might*
    be a mutator already demands the authority.
    """

    rule_id = "REPRO401"
    name = "shadow-authority"
    description = ("calls into @mutates(\"shadow_pt\") functions are allowed "
                   "only from trap handlers, policy decisions, or other "
                   "shadow-PT mutators")

    def check_project(self, source_files):
        program = build_program(source_files)
        for info in program.functions.values():
            if info.effects & ALLOWED_INTO_SHADOW:
                continue
            for call in info.calls:
                mutator = next(
                    (target for target in call.candidates
                     if SHADOW_EFFECT in program.functions[target].effects),
                    None)
                if mutator is not None:
                    yield Finding(
                        self.rule_id, self.name, info.path, call.lineno,
                        call.col,
                        "`%s` calls shadow-PT mutator `%s` but is neither a "
                        "@trap_handler, a @policy_decision, nor a shadow-PT "
                        "mutator itself" % (info.qualname, mutator))


class SwitchingProvenanceRule(ProjectRule):
    """REPRO402: every switching-bit mutation traces to a policy decision.

    Two obligations: (a) calls into ``@mutates("switching_bits")``
    functions need switching/shadow/trap/policy authority, and (b) every
    switching-bit mutator must be reachable in the call graph from at
    least one ``@policy_decision`` function — a mutator no policy can
    reach is either dead or wired around the Section III-C policy layer.
    """

    rule_id = "REPRO402"
    name = "switching-provenance"
    description = ("switching-bit mutators must be called with authority and "
                   "be reachable from at least one @policy_decision function")

    def check_project(self, source_files):
        program = build_program(source_files)
        for info in program.functions.values():
            if info.effects & ALLOWED_INTO_SWITCH:
                continue
            for call in info.calls:
                mutator = next(
                    (target for target in call.candidates
                     if SWITCH_EFFECT in program.functions[target].effects),
                    None)
                if mutator is not None:
                    yield Finding(
                        self.rule_id, self.name, info.path, call.lineno,
                        call.col,
                        "`%s` calls switching-bit mutator `%s` without "
                        "trap/policy/shadow authority" % (info.qualname,
                                                          mutator))
        roots = [qualname for qualname, info in program.functions.items()
                 if "policy_decision" in info.effects]
        reachable = program.reachable_from(roots)
        for qualname, info in sorted(program.functions.items()):
            if SWITCH_EFFECT in info.effects and qualname not in reachable:
                yield Finding(
                    self.rule_id, self.name, info.path, info.lineno, 0,
                    "switching-bit mutator `%s` is not reachable from any "
                    "@policy_decision function; mode switches must originate "
                    "in the policy layer" % qualname)


class DeterminismTaintRule(ProjectRule):
    """REPRO403: nondeterminism must not leak into the deterministic core.

    Wall-clock and unseeded-RNG reads (the REPRO101 sources) are tainted
    through the call graph: a function that calls a tainted function is
    tainted. A finding fires at each call site, inside the deterministic
    scope, whose callee is tainted — the ≥1-hop leaks REPRO101's
    per-file view cannot see. Only unambiguous edges propagate taint, so
    a popular method name cannot manufacture a false leak; suppressing
    the source line silences REPRO101 but not the taint, because the
    finding is anchored at the caller.
    """

    rule_id = "REPRO403"
    name = "determinism-taint"
    description = ("simulator-core functions must not reach wall-clock or "
                   "unseeded-RNG sources through any call chain")

    def check_project(self, source_files):
        program = build_program(source_files)
        tainted = {}
        frontier = []
        for qualname, info in sorted(program.functions.items()):
            if info.nondet_sources:
                tainted[qualname] = ((qualname,), info.nondet_sources[0][1])
                frontier.append(qualname)
        reverse = program.callers_of(ambiguous_ok=False)
        while frontier:
            current = frontier.pop(0)
            chain, source = tainted[current]
            for caller in sorted(reverse.get(current, ())):
                if caller not in tainted:
                    tainted[caller] = ((caller,) + chain, source)
                    frontier.append(caller)
        for info in program.functions.values():
            if not _in_deterministic_scope(info.module):
                continue
            for call in info.calls:
                target = call.target
                if target is None or target == info.qualname:
                    continue
                if target not in tainted:
                    continue
                chain, source = tainted[target]
                yield Finding(
                    self.rule_id, self.name, info.path, call.lineno, call.col,
                    "`%s` reaches a nondeterminism source through `%s`; %s "
                    "(call chain: %s)"
                    % (info.qualname, target, source,
                       " -> ".join((info.qualname,) + chain)))


class EventTaxonomyRule(ProjectRule):
    """REPRO404: tracer emit sites and the event taxonomy stay closed.

    (a) every call on a receiver named ``tracer``/``_tracer``/``tr``
    must use a method the ``NullTracer``/``Tracer`` interface defines —
    a typo'd emit method on a NullTracer receiver would silently no-op
    forever; (b) every ``EV_*`` kind in ``obs/events.py`` is a member of
    ``ALL_EVENT_KINDS``; (c) every ``ALL_EVENT_KINDS`` member is emitted
    by some ``Tracer`` method. Skipped when the linted set does not
    contain the tracer module.
    """

    rule_id = "REPRO404"
    name = "event-taxonomy"
    description = ("tracer receivers may call only interface methods, and "
                   "EV_* constants must stay closed under ALL_EVENT_KINDS")

    TRACER_PATH = "obs/tracer.py"
    EVENTS_PATH = "obs/events.py"
    RECEIVERS = frozenset(("tracer", "_tracer", "tr"))
    CLASSES = ("NullTracer", "Tracer")

    def check_project(self, source_files):
        tracer_file = next((f for f in source_files
                            if f.endswith(self.TRACER_PATH)), None)
        if tracer_file is None:
            return
        allowed = set()
        tracer_names = set()
        for node in tracer_file.tree.body:
            if isinstance(node, ast.ClassDef) and node.name in self.CLASSES:
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                        allowed.add(item.name)
                for sub in ast.walk(node):
                    if isinstance(sub, ast.Name):
                        tracer_names.add(sub.id)
        if not allowed:
            return
        for source_file in source_files:
            for node in ast.walk(source_file.tree):
                if (not isinstance(node, ast.Call)
                        or not isinstance(node.func, ast.Attribute)):
                    continue
                receiver = tail_name(node.func.value)
                if receiver in self.RECEIVERS and node.func.attr not in allowed:
                    yield Finding(
                        self.rule_id, self.name, source_file.path,
                        node.lineno, node.col_offset,
                        "`%s.%s(...)` is not part of the tracer interface; "
                        "known methods: %s" % (receiver, node.func.attr,
                                               ", ".join(sorted(allowed))))
        events_file = next((f for f in source_files
                            if f.endswith(self.EVENTS_PATH)), None)
        if events_file is None:
            return
        kinds = []
        members = None
        members_line = None
        for node in events_file.tree.body:
            if (not isinstance(node, ast.Assign) or len(node.targets) != 1
                    or not isinstance(node.targets[0], ast.Name)):
                continue
            target = node.targets[0].id
            if (target.startswith("EV_") and isinstance(node.value, ast.Constant)
                    and isinstance(node.value.value, str)):
                kinds.append((target, node.lineno))
            elif (target == "ALL_EVENT_KINDS"
                  and isinstance(node.value, (ast.Tuple, ast.List))):
                members = [elt.id for elt in node.value.elts
                           if isinstance(elt, ast.Name)]
                members_line = node.lineno
        if members is None:
            return
        member_set = set(members)
        for kind, lineno in kinds:
            if kind not in member_set:
                yield Finding(
                    self.rule_id, self.name, events_file.path, lineno, 0,
                    "event kind `%s` is not a member of ALL_EVENT_KINDS; it "
                    "would be invisible to taxonomy-driven consumers" % kind)
        for kind in members:
            if kind not in tracer_names:
                yield Finding(
                    self.rule_id, self.name, events_file.path,
                    members_line or 1, 0,
                    "event kind `%s` is in ALL_EVENT_KINDS but no Tracer "
                    "method ever emits it" % kind)


class LedgerAuthorityRule(ProjectRule):
    """REPRO406: only the host subsystem meters the commit ledger.

    The consolidated host's frame ledger (``@mutates("host_ledger")``:
    :class:`repro.host.memory.HostMemoryManager`'s charge/credit) is the
    ground truth ballooning defends — a stray charge or credit from
    outside the consolidation layer silently corrupts overcommit
    accounting for *every* VM. Two obligations: (a) every call into a
    host-ledger mutator must come from ``repro.host`` code, a trap
    handler, or another ledger mutator; (b) every host-ledger mutator
    must itself be defined inside ``repro.host``.
    """

    rule_id = "REPRO406"
    name = "ledger-authority"
    description = ("calls into @mutates(\"host_ledger\") functions are "
                   "allowed only from repro.host, trap handlers, or other "
                   "ledger mutators, and ledger mutators must live in "
                   "repro.host")

    HOST_PACKAGE = "repro.host"
    ALLOWED = frozenset((LEDGER_EFFECT, "trap_handler"))

    @classmethod
    def _in_host(cls, module):
        return (module == cls.HOST_PACKAGE
                or module.startswith(cls.HOST_PACKAGE + "."))

    def check_project(self, source_files):
        program = build_program(source_files)
        for qualname, info in sorted(program.functions.items()):
            if LEDGER_EFFECT in info.effects and not self._in_host(info.module):
                yield Finding(
                    self.rule_id, self.name, info.path, info.lineno, 0,
                    "host-ledger mutator `%s` is defined outside repro.host; "
                    "commit-ledger state belongs to the consolidation "
                    "subsystem" % qualname)
        for info in program.functions.values():
            if info.effects & self.ALLOWED or self._in_host(info.module):
                continue
            for call in info.calls:
                mutator = next(
                    (target for target in call.candidates
                     if LEDGER_EFFECT in program.functions[target].effects),
                    None)
                if mutator is not None:
                    yield Finding(
                        self.rule_id, self.name, info.path, call.lineno,
                        call.col,
                        "`%s` calls host-ledger mutator `%s` from outside "
                        "repro.host without trap/ledger authority"
                        % (info.qualname, mutator))


class DispatchExhaustivenessRule(ProjectRule):
    """REPRO405: closed dispatches over modes / op kinds are exhaustive.

    (a) a ``getattr(self, "_op_" + kind)`` dispatch requires the
    enclosing class to define a ``_op_<kind>`` handler for every member
    of the project's ``OP_KINDS`` tuple; (b) a *closed* if-chain over a
    paging-mode subject (an elif chain whose else raises, or consecutive
    early-return ifs followed by a raise) must cover every ``ALL_MODES``
    value — otherwise adding a mode silently falls into the raise.
    Open chains and membership tests are not exhaustiveness claims and
    are skipped.
    """

    rule_id = "REPRO405"
    name = "dispatch-exhaustiveness"
    description = ("_op_* getattr dispatches must handle every OP_KINDS "
                   "member; closed mode if-chains must cover ALL_MODES")

    def check_project(self, source_files):
        op_kinds = None
        mode_values = {}
        all_modes = None
        for source_file in source_files:
            for node in source_file.tree.body:
                if (not isinstance(node, ast.Assign) or len(node.targets) != 1
                        or not isinstance(node.targets[0], ast.Name)):
                    continue
                target = node.targets[0].id
                if (target == "OP_KINDS"
                        and isinstance(node.value, (ast.Tuple, ast.List))):
                    op_kinds = [elt.value for elt in node.value.elts
                                if isinstance(elt, ast.Constant)
                                and isinstance(elt.value, str)]
                elif (target.startswith("MODE_")
                      and isinstance(node.value, ast.Constant)
                      and isinstance(node.value.value, str)):
                    mode_values[target] = node.value.value
                elif (target == "ALL_MODES"
                      and isinstance(node.value, (ast.Tuple, ast.List))):
                    all_modes = [elt.id for elt in node.value.elts
                                 if isinstance(elt, ast.Name)]
        for source_file in source_files:
            if op_kinds:
                for finding in self._check_getattr(source_file, op_kinds):
                    yield finding
            if all_modes and all(name in mode_values for name in all_modes):
                required = frozenset(mode_values[name] for name in all_modes)
                for finding in self._check_mode_chains(
                        source_file, required,
                        frozenset(mode_values.values()), mode_values):
                    yield finding

    def _check_getattr(self, source_file, op_kinds):
        for node in source_file.tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            defined = {item.name for item in node.body
                       if isinstance(item, (ast.FunctionDef,
                                            ast.AsyncFunctionDef))}
            for sub in ast.walk(node):
                if (not isinstance(sub, ast.Call)
                        or not isinstance(sub.func, ast.Name)
                        or sub.func.id != "getattr" or len(sub.args) < 2):
                    continue
                dispatch = sub.args[1]
                if (not isinstance(dispatch, ast.BinOp)
                        or not isinstance(dispatch.op, ast.Add)
                        or not isinstance(dispatch.left, ast.Constant)
                        or not isinstance(dispatch.left.value, str)
                        or not dispatch.left.value.startswith("_op_")):
                    continue
                prefix = dispatch.left.value
                missing = [kind for kind in op_kinds
                           if prefix + kind not in defined]
                if missing:
                    yield Finding(
                        self.rule_id, self.name, source_file.path,
                        sub.lineno, sub.col_offset,
                        "class `%s` dispatches on `%s + kind` but has no "
                        "handler for op kind(s): %s" % (node.name, prefix,
                                                        ", ".join(missing)))

    @staticmethod
    def _mode_value(node, literal_values, mode_values):
        if (isinstance(node, ast.Constant)
                and node.value in literal_values):
            return node.value
        if isinstance(node, ast.Name) and node.id in mode_values:
            return mode_values[node.id]
        return None

    def _pure_mode_test(self, test, literal_values, mode_values):
        """(subject dump, value) for a bare ``subject == MODE`` test."""
        if (not isinstance(test, ast.Compare) or len(test.ops) != 1
                or not isinstance(test.ops[0], ast.Eq)):
            return None
        value = self._mode_value(test.comparators[0], literal_values,
                                 mode_values)
        if value is None:
            return None
        return ast.dump(test.left), value

    def _check_mode_chains(self, source_file, required, literal_values,
                           mode_values):
        consumed = set()
        stack = [source_file.tree]
        while stack:
            node = stack.pop()
            for handler in getattr(node, "handlers", ()) or ():
                stack.append(handler)
            for field in ("body", "orelse", "finalbody"):
                block = getattr(node, field, None)
                if not isinstance(block, list):
                    continue
                stack.extend(block)
                for finding in self._scan_block(
                        source_file, block, consumed, required,
                        literal_values, mode_values):
                    yield finding

    def _scan_block(self, source_file, block, consumed, required,
                    literal_values, mode_values):
        index = 0
        while index < len(block):
            stmt = block[index]
            if not isinstance(stmt, ast.If) or id(stmt) in consumed:
                index += 1
                continue
            if stmt.orelse:
                finding = self._elif_chain(source_file, stmt, consumed,
                                           required, literal_values,
                                           mode_values)
                if finding is not None:
                    yield finding
                index += 1
                continue
            run, next_index = self._if_run(block, index, consumed,
                                           literal_values, mode_values)
            if run is not None:
                covered = frozenset(value for _, value in run)
                missing = required - covered
                if missing:
                    yield Finding(
                        self.rule_id, self.name, source_file.path,
                        run[0][0].lineno, run[0][0].col_offset,
                        "closed mode dispatch covers {%s} but ALL_MODES "
                        "requires {%s}; missing: %s"
                        % (", ".join(sorted(covered)),
                           ", ".join(sorted(required)),
                           ", ".join(sorted(missing))))
                index = next_index
                continue
            index += 1

    def _elif_chain(self, source_file, stmt, consumed, required,
                    literal_values, mode_values):
        # Consume the whole elif spine up front, so an abandoned chain's
        # tail cannot be re-examined as a shorter (misleading) chain.
        spine = [stmt]
        current = stmt
        while (len(current.orelse) == 1
               and isinstance(current.orelse[0], ast.If)):
            current = current.orelse[0]
            spine.append(current)
            consumed.add(id(current))
        final_orelse = current.orelse
        if not final_orelse or not any(isinstance(s, ast.Raise)
                                       for s in final_orelse):
            return None  # open chain: not an exhaustiveness claim
        tests = [self._pure_mode_test(branch.test, literal_values,
                                      mode_values)
                 for branch in spine]
        if any(test is None for test in tests) or len(tests) < 2:
            return None
        subjects = {subject for subject, _ in tests}
        if len(subjects) != 1:
            return None
        covered = frozenset(value for _, value in tests)
        missing = required - covered
        if not missing:
            return None
        return Finding(
            self.rule_id, self.name, source_file.path, stmt.lineno,
            stmt.col_offset,
            "closed mode dispatch covers {%s} but ALL_MODES requires {%s}; "
            "missing: %s" % (", ".join(sorted(covered)),
                             ", ".join(sorted(required)),
                             ", ".join(sorted(missing))))

    def _if_run(self, block, start, consumed, literal_values, mode_values):
        """A run of early-return mode ifs closed by a trailing raise."""
        run = []
        subject = None
        index = start
        while index < len(block):
            stmt = block[index]
            if (not isinstance(stmt, ast.If) or stmt.orelse
                    or id(stmt) in consumed):
                break
            test = self._pure_mode_test(stmt.test, literal_values,
                                        mode_values)
            if test is None:
                break
            this_subject, value = test
            if subject is None:
                subject = this_subject
            elif this_subject != subject:
                break
            if not stmt.body or not isinstance(stmt.body[-1],
                                               (ast.Return, ast.Raise)):
                break
            run.append((stmt, value))
            index += 1
        if (len(run) < 2 or index >= len(block)
                or not isinstance(block[index], ast.Raise)):
            return None, start + 1
        for stmt, _ in run:
            consumed.add(id(stmt))
        return run, index + 1


class LayeringRule(ProjectRule):
    """REPRO501: imports must point down the declared layer map.

    See :mod:`repro.lint.flow.layers` for the map and its two declared
    inversions. The rule resolves relative imports against the module's
    own package and refines ``from pkg import name`` to ``pkg.name``
    when that names a module in the linted set.
    """

    rule_id = "REPRO501"
    name = "layering"
    description = ("a repro module may import only same-or-lower layers of "
                   "the declared architecture map")

    def check_project(self, source_files):
        modules = {f.module_name for f in source_files}
        for source_file in source_files:
            source_layer = module_layer(source_file.module_name)
            if source_layer is None:
                continue
            for node in ast.walk(source_file.tree):
                if isinstance(node, ast.Import):
                    targets = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    base = node.module
                    if node.level:
                        base = _resolve_relative(source_file.package,
                                                 node.level, node.module)
                    if base is None:
                        continue
                    targets = []
                    for alias in node.names:
                        refined = "%s.%s" % (base, alias.name)
                        targets.append(refined if refined in modules else base)
                else:
                    continue
                for target in targets:
                    target_layer = module_layer(target)
                    if target_layer is not None and target_layer > source_layer:
                        yield Finding(
                            self.rule_id, self.name, source_file.path,
                            node.lineno, node.col_offset,
                            "layer violation: `%s` (layer %d) imports `%s` "
                            "(layer %d); dependencies must point downward"
                            % (source_file.module_name, source_layer, target,
                               target_layer))


class ConfigKeysRule(ProjectRule):
    """REPRO502: no dead config fields, no phantom override keys.

    Cross-references ``common/config.py``'s dataclasses against the
    whole tree: (a) every declared field must be read as an attribute
    somewhere — an unread knob silently prices nothing; (b) every
    dotted string key whose head is a dataclass-typed ``MachineConfig``
    field (the ``CellSpec`` override namespace, e.g. ``"pwc.enabled"``)
    must resolve to a declared field path.
    """

    rule_id = "REPRO502"
    name = "config-keys"
    description = ("every config dataclass field must be read somewhere, and "
                   "every dotted override key must name a declared field")

    CONFIG_PATH = "common/config.py"
    DOTTED_KEY_RE = re.compile(r"^[a-z_][a-z0-9_]*(\.[a-z_][a-z0-9_]*)+$")

    @staticmethod
    def _annotation_name(node):
        if isinstance(node, ast.Name):
            return node.id
        if isinstance(node, ast.Attribute):
            return node.attr
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value
        return None

    def check_project(self, source_files):
        config_file = next((f for f in source_files
                            if f.endswith(self.CONFIG_PATH)), None)
        if config_file is None:
            return
        dataclasses = {}
        field_sites = []
        for node in config_file.tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            decorated = any(
                tail_name(dec.func if isinstance(dec, ast.Call) else dec)
                == "dataclass" for dec in node.decorator_list)
            if not decorated:
                continue
            fields = {}
            for item in node.body:
                if (isinstance(item, ast.AnnAssign)
                        and isinstance(item.target, ast.Name)):
                    fields[item.target.id] = self._annotation_name(
                        item.annotation)
                    field_sites.append((node.name, item.target.id,
                                        item.lineno))
            dataclasses[node.name] = fields
        if not dataclasses:
            return
        attr_reads = set()
        key_literals = []
        for source_file in source_files:
            for node in ast.walk(source_file.tree):
                if isinstance(node, ast.Attribute):
                    attr_reads.add(node.attr)
                elif (isinstance(node, ast.Constant)
                      and isinstance(node.value, str)
                      and self.DOTTED_KEY_RE.match(node.value)):
                    key_literals.append((source_file, node))
        for class_name, field, lineno in field_sites:
            if field not in attr_reads:
                yield Finding(
                    self.rule_id, self.name, config_file.path, lineno, 0,
                    "config field `%s.%s` is never read anywhere in the "
                    "tree; a dead knob silently prices nothing"
                    % (class_name, field))
        machine_fields = dataclasses.get("MachineConfig", {})
        heads = {field: annotation
                 for field, annotation in machine_fields.items()
                 if annotation in dataclasses}
        for source_file, node in key_literals:
            parts = node.value.split(".")
            if parts[0] not in heads:
                continue
            current = heads[parts[0]]
            for part in parts[1:]:
                fields = dataclasses.get(current)
                if fields is None:
                    break  # beyond the typed config: nothing to check
                if part not in fields:
                    yield Finding(
                        self.rule_id, self.name, source_file.path,
                        node.lineno, node.col_offset,
                        "override key `%s` does not resolve: `%s` has no "
                        "field `%s`" % (node.value, current, part))
                    break
                current = fields[part]


FLOW_RULES = (
    ShadowAuthorityRule(),
    SwitchingProvenanceRule(),
    DeterminismTaintRule(),
    EventTaxonomyRule(),
    LedgerAuthorityRule(),
    DispatchExhaustivenessRule(),
    LayeringRule(),
    ConfigKeysRule(),
)
