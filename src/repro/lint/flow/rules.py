"""The interprocedural rules (REPRO4xx/5xx) of ``repro lint --deep``.

All of these are :class:`~repro.lint.engine.ProjectRule` subclasses:
they see the whole file set at once and most of them query the shared
:func:`repro.lint.flow.analysis.build_program` call-graph analysis.
Numbering: REPRO4xx are call-graph contracts (effects, taxonomy),
REPRO5xx are architecture checks (layering, config keys).
"""

import ast
import re

from repro.lint.engine import Finding, ProjectRule
from repro.lint.flow.analysis import build_program
from repro.lint.flow.layers import module_layer
from repro.lint.rules import _resolve_relative, tail_name

# Effects that authorize reaching a shadow-PT mutator (REPRO401): the
# shadow manager's own mutators call each other, trap handlers are the
# VMM entry points, and policy decisions drive the mode switches
# (Section III-C).
SHADOW_EFFECT = "mutates:shadow_pt"
LEDGER_EFFECT = "mutates:host_ledger"
ALLOWED_INTO_SHADOW = frozenset((SHADOW_EFFECT, "trap_handler",
                                 "policy_decision"))

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
    EventTaxonomyRule(),
    LedgerAuthorityRule(),
    LayeringRule(),
    ConfigKeysRule(),
)
