"""repro.host — the multi-VM consolidation subsystem.

Generalizes the single-VM stack to N guests sharing one physical
machine: a global frame ledger with per-VM reservations and overcommit
(:mod:`repro.host.memory`), per-VM machine bundles on a shared clock
(:mod:`repro.host.vm`), a weighted round-robin vCPU scheduler
(:mod:`repro.host.scheduler`), a balloon/reclaim driver
(:mod:`repro.host.balloon`), and the :class:`Host` that assembles them
with :func:`run_consolidated`, the host-scale ``run_workload``
(:mod:`repro.host.host`). See ``docs/multivm.md`` for the architecture
and experiment guide.
"""

from repro.host.balloon import BalloonDriver
from repro.host.host import Host, run_consolidated
from repro.host.memory import HostMemoryManager, HostPressureError, MeteredMemory
from repro.host.scheduler import VCpuScheduler
from repro.host.vm import VirtualMachine, VMachineAPI

__all__ = [
    "BalloonDriver",
    "Host",
    "HostMemoryManager",
    "HostPressureError",
    "MeteredMemory",
    "VCpuScheduler",
    "VirtualMachine",
    "VMachineAPI",
    "run_consolidated",
]
