"""repro: a reproduction of "Agile Paging: Exceeding the Best of Nested
and Shadow Paging" (Gandhi, Hill, Swift — ISCA 2016).

A functional simulator of virtualized address translation: x86-64-style
four-level page tables, the Table III TLB hierarchy, page-walk caches,
hardware walk state machines for native/nested/shadow/agile paging, a
guest OS, a KVM-shaped VMM with the paper's switching policies and both
optional hardware optimizations, the Table V workload suite (scaled),
and harnesses regenerating every table and figure in the evaluation.

Quickstart::

    from repro import run_workload, sandy_bridge_config
    from repro.workloads.suite import McfLike

    metrics = run_workload(McfLike(ops=50_000),
                           sandy_bridge_config(mode="agile"))
    print(metrics.summary())
"""

from repro.common.config import (
    ALL_MODES,
    MODE_AGILE,
    MODE_NATIVE,
    MODE_NESTED,
    MODE_SHADOW,
    CostConfig,
    HostConfig,
    MachineConfig,
    PolicyConfig,
    sandy_bridge_config,
)
from repro.common.params import FOUR_KB, ONE_GB, TWO_MB
from repro.core.machine import System
from repro.core.metrics import RunMetrics
from repro.core.simulator import MachineAPI, Simulator, run_workload
from repro.host.host import run_consolidated
from repro.workloads.base import Workload
from repro.workloads.suite import SUITE, make_suite

__version__ = "1.0.0"

__all__ = [
    "ALL_MODES",
    "MODE_AGILE",
    "MODE_NATIVE",
    "MODE_NESTED",
    "MODE_SHADOW",
    "CostConfig",
    "HostConfig",
    "MachineConfig",
    "PolicyConfig",
    "sandy_bridge_config",
    "FOUR_KB",
    "TWO_MB",
    "ONE_GB",
    "System",
    "run_consolidated",
    "RunMetrics",
    "MachineAPI",
    "Simulator",
    "run_workload",
    "Workload",
    "SUITE",
    "make_suite",
    "__version__",
]
