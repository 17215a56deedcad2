"""Experiment cells: frozen, hashable specifications of one simulation.

A :class:`CellSpec` names everything needed to reproduce one run —
workload, paging mode, page size, operation budget, seed, and config
overrides — in a canonical, JSON-stable form. Two properties follow:

* the spec is *hashable and order-independent*, so it can key a result
  cache and shard deterministically across workers, and
* :func:`execute_cell` can rebuild the identical simulation from the
  spec alone in any process, which is what makes serial and parallel
  sweeps bit-identical.

Config overrides use dotted paths into the nested config dataclasses
(``{"pwc.enabled": False, "policy.write_threshold": 4}``); page sizes
are stored by name (``"4K"``). Workloads resolve through the Table V
suite by name, or through an explicit ``factory`` dotted path
(``"package.module:ClassName"``) for custom/test workloads.
"""

import dataclasses
import hashlib
import importlib
import json
from dataclasses import dataclass

from repro.common.config import EXTENDED_MODES, sandy_bridge_config
from repro.common.params import PAGE_SIZES, PageSize

#: Config fields whose values are page sizes, stored by name in a spec.
_PAGE_SIZE_FIELDS = ("page_size", "host_page_size")

_SCALARS = (type(None), bool, int, float, str)


class SpecError(ValueError):
    """A cell spec is malformed or names something that does not exist."""


def _flatten_overrides(overrides, prefix=""):
    """Yield (dotted_key, scalar) pairs from a friendly overrides dict.

    Accepts nested dataclasses (``pwc=PWCConfig(enabled=False)``),
    nested dicts, :class:`PageSize` values, and already-dotted keys.
    """
    for key, value in overrides.items():
        dotted = prefix + key
        if dataclasses.is_dataclass(value) and not isinstance(value, type):
            for field in dataclasses.fields(value):
                yield from _flatten_overrides(
                    {field.name: getattr(value, field.name)}, dotted + ".")
        elif isinstance(value, dict):
            yield from _flatten_overrides(value, dotted + ".")
        elif isinstance(value, PageSize):
            yield dotted, value.name
        elif isinstance(value, _SCALARS):
            yield dotted, value
        else:
            raise SpecError(
                "override %r has unsupported type %s (use scalars, dicts, "
                "config dataclasses, or PageSize)" % (dotted, type(value).__name__))


def canonicalize_overrides(overrides):
    """Normalize an overrides dict to a sorted tuple of (key, value) pairs."""
    if not overrides:
        return ()
    flat = dict(_flatten_overrides(overrides))
    return tuple(sorted(flat.items()))


def _canonicalize_kwargs(kwargs):
    if not kwargs:
        return ()
    for key, value in kwargs.items():
        if not isinstance(value, _SCALARS):
            raise SpecError(
                "workload kwarg %r must be a JSON scalar, got %s"
                % (key, type(value).__name__))
    return tuple(sorted(kwargs.items()))


def _type_matches(current, value):
    """Does an override ``value`` fit a field now holding ``current``?

    An int may stand in for a float; a bool is never an int (or float),
    and a field now holding None accepts anything.
    """
    if current is None:
        return True
    if isinstance(current, bool) or isinstance(value, bool):
        return isinstance(current, bool) and isinstance(value, bool)
    if isinstance(current, float):
        return isinstance(value, (int, float))
    return isinstance(value, type(current))


def _apply_dotted(config, dotted, value):
    """Return ``config`` with one dotted override applied, validating names,
    value types, and the rebuilt dataclass's own checks."""

    def rebuild(obj, remaining):
        name = remaining[0]
        if not any(f.name == name for f in dataclasses.fields(obj)):
            raise SpecError("unknown config field %r (in override %r)"
                            % (name, dotted))
        current = getattr(obj, name)
        if len(remaining) == 1:
            new_value = value
            if name in _PAGE_SIZE_FIELDS and isinstance(value, str):
                try:
                    new_value = PAGE_SIZES[value]
                except KeyError:
                    raise SpecError("unknown page size %r (in override %r)"
                                    % (value, dotted)) from None
            if not _type_matches(current, new_value):
                raise SpecError(
                    "override %r expects %s, got %r"
                    % (dotted, type(current).__name__, value))
        elif dataclasses.is_dataclass(current):
            new_value = rebuild(current, remaining[1:])
        else:
            raise SpecError("config field %r is not nested; cannot apply %r"
                            % (name, dotted))
        try:
            return dataclasses.replace(obj, **{name: new_value})
        except (TypeError, ValueError) as exc:
            raise SpecError("override %r=%r is invalid: %s"
                            % (dotted, value, exc)) from exc

    return rebuild(config, dotted.split("."))


def resolve_workload_class(spec):
    """The workload class a spec names (suite name or factory path)."""
    if spec.factory:
        module_name, _, attr = spec.factory.partition(":")
        if not module_name or not attr:
            raise SpecError("factory must look like 'pkg.module:ClassName', "
                            "got %r" % (spec.factory,))
        try:
            module = importlib.import_module(module_name)
            return getattr(module, attr)
        except (ImportError, AttributeError) as exc:
            raise SpecError("cannot resolve workload factory %r: %s"
                            % (spec.factory, exc)) from exc
    from repro.workloads.suite import SUITE

    classes = {cls.name: cls for cls in SUITE}
    try:
        return classes[spec.workload]
    except KeyError:
        raise SpecError("unknown workload %r (suite: %s)"
                        % (spec.workload, ", ".join(sorted(classes)))) from None


@dataclass(frozen=True)
class CellSpec:
    """One experiment cell: (workload, mode, page size, ops, seed, config).

    ``overrides`` and ``workload_kwargs`` are canonical sorted tuples of
    (key, scalar) pairs — construct specs through :meth:`make`, which
    accepts friendly dicts and normalizes them.
    """

    workload: str
    mode: str = "agile"
    page_size: str = "4K"
    ops: int = 60_000
    seed: int = None  # None: the workload class's default seed
    overrides: tuple = ()
    workload_kwargs: tuple = ()
    factory: str = None

    def __post_init__(self):
        if self.mode not in EXTENDED_MODES:
            raise SpecError("unknown paging mode %r" % (self.mode,))
        if self.page_size not in PAGE_SIZES:
            raise SpecError("unknown page size %r (known: %s)"
                            % (self.page_size, ", ".join(sorted(PAGE_SIZES))))
        if self.ops <= 0:
            raise SpecError("ops must be positive, got %r" % (self.ops,))

    @classmethod
    def make(cls, workload, mode="agile", page_size="4K", ops=60_000,
             seed=None, overrides=None, factory=None, **workload_kwargs):
        """Build a spec from friendly types.

        ``workload`` may be a suite name or a workload class (classes
        from the suite are stored by name; others by factory path).
        ``page_size`` may be a name or a :class:`PageSize`. ``overrides``
        is a dict of config overrides (dotted keys, nested dataclasses,
        or nested dicts).
        """
        if isinstance(workload, type):
            from repro.workloads.suite import SUITE

            if workload in SUITE:
                workload_name = workload.name
            else:
                factory = "%s:%s" % (workload.__module__, workload.__qualname__)
                workload_name = workload.name
            workload = workload_name
        if isinstance(page_size, PageSize):
            page_size = page_size.name
        return cls(
            workload=workload,
            mode=mode,
            page_size=page_size,
            ops=ops,
            seed=seed,
            overrides=canonicalize_overrides(overrides),
            workload_kwargs=_canonicalize_kwargs(workload_kwargs),
            factory=factory,
        )

    # -- identity -------------------------------------------------------------

    def as_dict(self):
        """A JSON-safe dict with a stable shape (for hashing and storage)."""
        return {
            "workload": self.workload,
            "mode": self.mode,
            "page_size": self.page_size,
            "ops": self.ops,
            "seed": self.seed,
            "overrides": [list(pair) for pair in self.overrides],
            "workload_kwargs": [list(pair) for pair in self.workload_kwargs],
            "factory": self.factory,
        }

    @classmethod
    def from_dict(cls, data):
        return cls(
            workload=data["workload"],
            mode=data["mode"],
            page_size=data["page_size"],
            ops=data["ops"],
            seed=data["seed"],
            overrides=tuple((k, v) for k, v in data.get("overrides", ())),
            workload_kwargs=tuple(
                (k, v) for k, v in data.get("workload_kwargs", ())),
            factory=data.get("factory"),
        )

    def cell_key(self):
        """Content hash of the spec: the cache/shard identity of the cell."""
        blob = json.dumps(self.as_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def describe(self):
        """Short human label: ``mcf/agile/4K``, plus seed/override marks."""
        label = "%s/%s/%s" % (self.workload, self.mode, self.page_size)
        if self.seed is not None:
            label += "/s%d" % self.seed
        if self.overrides:
            label += "+%d ovr" % len(self.overrides)
        return label

    # -- materialization ------------------------------------------------------

    def build_config(self):
        """The :class:`MachineConfig` this cell runs under."""
        config = sandy_bridge_config(mode=self.mode,
                                     page_size=PAGE_SIZES[self.page_size])
        for dotted, value in self.overrides:
            config = _apply_dotted(config, dotted, value)
        return config

    def build_workload(self, config=None):
        """A fresh workload instance with the cell's deterministic seed."""
        if config is None:
            config = self.build_config()
        workload_cls = resolve_workload_class(self)
        kwargs = {"ops": self.ops, "page_size": config.page_size}
        kwargs.update(dict(self.workload_kwargs))
        if self.seed is not None:
            kwargs["seed"] = self.seed
        return workload_cls(**kwargs)


def execute_cell(spec, trace=False, trace_every=1024):
    """Run one cell from scratch; returns :class:`RunMetrics`.

    Used identically by the serial path and by pool workers, so a cell's
    result never depends on where it ran.

    With ``trace=True`` the run is executed under a fresh tracer and
    interval recorder (sampling every ``trace_every`` ops) and the
    return value becomes ``(metrics, payload)``, where ``payload`` is
    the JSON-safe :func:`repro.obs.exporters.trace_payload` bundle.
    """
    from repro.core.machine import System
    from repro.core.simulator import Simulator

    config = spec.build_config()
    workload = spec.build_workload(config)
    system = System(config)
    if not trace:
        return Simulator(system).run(workload)
    from repro.obs import IntervalRecorder, Tracer
    from repro.obs.exporters import trace_payload

    tracer = Tracer()
    recorder = IntervalRecorder(every=trace_every)
    system.attach_observability(tracer, recorder)
    metrics = Simulator(system).run(workload)
    return metrics, trace_payload(tracer, recorder)
