"""Whole-program static analysis: call graph, effects, layering.

The ``repro lint --deep`` layer. :func:`~repro.lint.flow.analysis.build_program`
turns a parsed file set into a call-graph :class:`~repro.lint.flow.analysis.Program`;
the :data:`FLOW_RULES` (REPRO4xx, REPRO5xx) run the interprocedural
contracts over it. See ``docs/static_analysis.md``.
"""

from repro.lint.flow.analysis import Program, build_program
from repro.lint.flow.layers import LAYERS, MODULE_LAYER_OVERRIDES, module_layer
from repro.lint.flow.rules import FLOW_RULES

__all__ = [
    "Program",
    "build_program",
    "LAYERS",
    "MODULE_LAYER_OVERRIDES",
    "module_layer",
    "FLOW_RULES",
]
