"""The consolidated-host runner: ``HostSystem`` alongside ``System``.

Where :class:`repro.core.machine.System` is one guest machine and
:func:`repro.core.simulator.run_workload` runs one workload on it,
``HostSystem`` is N guest machines multiplexed over shared RAM
(:class:`repro.host.host.Host`) and :func:`run_consolidated` runs one
*stepped* workload per VM to completion under the vCPU scheduler.

Workloads must be steppable — expose ``program(api)`` returning a
generator that yields at preemption-safe points (the
:mod:`repro.workloads.consolidation` family does; any plain workload
can be adapted with :func:`stepped`).
"""

from repro.common.config import HostConfig
from repro.host.host import Host


def stepped(workload):
    """Adapt a plain workload into a one-step program factory.

    The whole ``execute`` runs as a single schedulable step — correct,
    but unpreemptible. Prefer workloads with a native ``program(api)``
    generator for realistic interleaving.
    """
    def factory(api):
        def run():
            workload.execute(api)
            return
            yield  # makes `run` a generator: execute() is one step
        return run()
    return factory


def _program_factory(workload):
    program = getattr(workload, "program", None)
    if callable(program):
        return program
    return stepped(workload)


class HostSystem:
    """N consolidated VMs behind a ``System``-shaped runner façade."""

    def __init__(self, host_config=None, machine_config=None, configs=None,
                 tracer=None):
        self.host = Host(host_config=host_config,
                         machine_config=machine_config, configs=configs,
                         tracer=tracer)
        self.config = self.host.config
        self.clock = self.host.clock

    @property
    def vms(self):
        return self.host.vms

    def run(self, workloads):
        """Run one workload per VM to completion; per-VM RunMetrics.

        ``workloads`` may mix steppable workloads (with ``program``),
        plain workloads, and raw program factories (bare callables).
        """
        programs = []
        for workload in workloads:
            if callable(workload) and not hasattr(workload, "execute"):
                programs.append(workload)
            else:
                programs.append(_program_factory(workload))
        self.host.load(programs)
        self.host.run()
        return self.host.collect_metrics()

    def host_report(self):
        return self.host.host_report()


def run_consolidated(workloads, host_config=None, machine_config=None,
                     configs=None, tracer=None):
    """One-call convenience: build a host, run, return per-VM metrics.

    Mirrors :func:`repro.core.simulator.run_workload` at host scale::

        from repro.core.hostsys import run_consolidated
        from repro.common.config import HostConfig, sandy_bridge_config
        from repro.workloads.consolidation import PackedHog

        per_vm = run_consolidated(
            [PackedHog(ops=5_000, seed=s) for s in (1, 2)],
            HostConfig(vms=2),
            sandy_bridge_config(mode="agile"))

    When ``host_config`` is omitted, one is derived with ``vms`` set to
    the number of workloads.
    """
    if host_config is None:
        host_config = HostConfig(vms=len(workloads))
    system = HostSystem(host_config=host_config,
                        machine_config=machine_config, configs=configs,
                        tracer=tracer)
    metrics_per_vm = system.run(workloads)
    return metrics_per_vm, system.host_report()
