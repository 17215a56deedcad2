"""The declared architecture layer map (REPRO501's ground truth).

A module may import same-or-lower layers only, so dependencies point
strictly downward:

    common(0) < mem(1) < hw/guest/workloads(2) < vmm(3) < core/host(4)
              < runner/obs/fuzz/analysis/lint(5) < cli(6)

``repro.host`` (the multi-VM consolidation subsystem) shares layer 4
with ``core``: a Host assembles N per-VM machines exactly the way
``System`` assembles one, so ``host`` imports ``core`` sideways.

Two deliberate inversions are declared rather than discovered:
``repro.obs.tracer`` and ``repro.obs.events`` sit at layer 0 even
though the rest of ``repro.obs`` is a layer-5 consumer. They are the observability *ports* — pure data types plus a
null object with no imports of their own — that hw/vmm/core emit into,
the standard dependency-inversion shape (the alternative, homing them
in ``common``, would split the obs package's public API in two).
"""

LAYERS = {
    "common": 0,
    "mem": 1,
    "hw": 2,
    "guest": 2,
    "workloads": 2,
    "vmm": 3,
    "core": 4,
    "host": 4,
    "runner": 5,
    "obs": 5,
    "fuzz": 5,
    "analysis": 5,
    "lint": 5,
    "bench": 5,
    "cli": 6,
}

#: Per-module exceptions to the subpackage layer (dependency inversion).
MODULE_LAYER_OVERRIDES = {
    "repro.obs.tracer": 0,
    "repro.obs.events": 0,
}


def module_layer(module):
    """The layer of a dotted module name, or None when unconstrained.

    Unconstrained: anything outside ``repro.*``, the ``repro`` package
    root itself (it re-exports the public API from every layer), and
    subpackages the map does not name (e.g. ``repro.__main__``).
    """
    override = MODULE_LAYER_OVERRIDES.get(module)
    if override is not None:
        return override
    parts = module.split(".")
    if parts[0] != "repro" or len(parts) < 2:
        return None
    return LAYERS.get(parts[1])
