"""The Host: N guest VMs over shared, overcommitted RAM.

Assembly mirrors :class:`repro.core.machine.System` one level up: where
``System`` wires one guest's hardware + kernel (+ VMM), ``Host`` wires
one *machine's* worth of guests — a shared clock, a global frame ledger
partitioned into per-VM reservations, N fully independent single-VM
systems built on those reservations, the vCPU scheduler, and the
balloon driver.

Isolation invariant (what the fuzz oracle asserts): each VM's system is
constructed exactly as a solo machine with ``host_mem_frames`` equal to
its reservation would be — same allocator geometry, same VM-local frame
numbers — so consolidation changes *when* a guest runs and what its
traps cost, never what its translations resolve to.

Time authority: the ``Host`` owns the one wall-time :class:`Clock` and
hands each VM a :class:`VirtualClock` view of it. Only
``VCpuScheduler`` advances the host clock directly (world switches);
everything VM-side bills its own view and reaches host wall time solely
through the pass-through inside ``repro.common.clock``. :meth:`Host.run`
checks the arrangement at the end of every run: host time must equal
the VMs' virtual time plus the world switches.
"""

from dataclasses import replace

from repro.common.clock import Clock, VirtualClock
from repro.common.config import MODE_NATIVE, HostConfig
from repro.common.errors import SimulationError
from repro.core.machine import System
from repro.host.balloon import BalloonDriver
from repro.host.memory import HostMemoryManager
from repro.host.scheduler import VCpuScheduler
from repro.host.vm import VirtualMachine
from repro.obs.tracer import NULL_TRACER


class Host:
    """One consolidated physical machine."""

    def __init__(self, host_config=None, machine_config=None, configs=None,
                 tracer=None):
        """Assemble the host.

        ``machine_config`` applies one :class:`MachineConfig` to every
        VM (the homogeneous grid the bench sweeps); ``configs`` gives an
        explicit per-VM sequence instead (heterogeneous modes). Exactly
        one of the two must be provided.
        """
        self.config = host_config if host_config is not None else HostConfig()
        if (machine_config is None) == (configs is None):
            raise SimulationError(
                "pass exactly one of machine_config= (uniform) or "
                "configs= (per-VM)")
        if configs is None:
            configs = [machine_config] * self.config.vms
        configs = list(configs)
        if len(configs) != self.config.vms:
            raise SimulationError(
                "%d per-VM configs for %d VMs" % (len(configs),
                                                  self.config.vms))
        self.clock = Clock()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.memory = HostMemoryManager(self.config.commit_limit_frames)
        self.vms = []
        for vm_id, config in enumerate(configs):
            reservation = self._reservation_for(config)
            # The per-VM config must agree with the reservation so any
            # code reading config.host_mem_frames sees the truth.
            if config.mode != MODE_NATIVE and (
                    config.host_mem_frames != reservation):
                config = replace(config, host_mem_frames=reservation)
            host_mem = self.memory.attach_vm(vm_id, reservation)
            # Each VM runs on its own virtual view of the host clock:
            # charges pass through to host wall time, but the guest (and
            # its VMM's policy intervals) sees only its own cycles.
            system = System(config, clock=VirtualClock(self.clock),
                            host_mem=host_mem)
            if tracer is not None:
                system.attach_observability(tracer=tracer)
            vm = VirtualMachine(vm_id, system,
                                weight=self.config.weight_of(vm_id))
            self.vms.append(vm)
        self.scheduler = VCpuScheduler(self.config, self.clock,
                                       tracer=self.tracer)
        self.balloon = BalloonDriver(self.config, self.memory, self.vms,
                                     tracer=self.tracer, clock=self.clock)

    def _reservation_for(self, config):
        """Host frames reserved for one VM.

        Virtualized guests draw from ``vm_frames``; a native "VM" (a
        bare-metal tenant with no VMM) needs its RAM sized like a solo
        native machine's — ``guest_mem_frames`` — or its allocator
        geometry (and thus its behavior under memory pressure) would
        diverge from the solo baseline.
        """
        if config.mode == MODE_NATIVE:
            return config.guest_mem_frames
        return self.config.vm_frames

    def load(self, programs):
        """Install one guest program per VM (``factory(api) -> generator``)."""
        if len(programs) != len(self.vms):
            raise SimulationError(
                "%d programs for %d VMs" % (len(programs), len(self.vms)))
        for vm, program in zip(self.vms, programs):
            vm.load(program)

    def run(self):
        """Schedule every loaded program to completion.

        Then check cycle conservation: host wall time is exactly the
        VMs' virtual times plus the scheduler's world switches. A cycle
        advanced on the host clock that no VM and no world switch
        accounts for raises :class:`SimulationError`, naming the gap.
        """
        self.scheduler.run(self.vms)
        accounted = (sum(vm.system.clock.now for vm in self.vms)
                     + self.scheduler.world_switch_cycles)
        if self.clock.now != accounted:
            raise SimulationError(
                "host clock %d != VM virtual time + world switches %d "
                "(%+d unattributed cycles)"
                % (self.clock.now, accounted, self.clock.now - accounted))

    def collect_metrics(self, label=None):
        """Per-VM :class:`RunMetrics`, in ``vm_id`` order."""
        prefix = label if label is not None else "vm"
        return [vm.collect_metrics("%s%d" % (prefix, vm.vm_id))
                for vm in self.vms]

    def host_report(self):
        """JSON-safe host-level accounting for bench/experiment output."""
        return {
            "vms": self.config.vms,
            "overcommit_ratio": self.config.overcommit_ratio,
            "world_switches": self.scheduler.world_switches,
            "world_switch_cycles": self.scheduler.world_switch_cycles,
            "balloon_episodes": self.balloon.episodes,
            "balloon_frames": self.balloon.frames_reclaimed,
            "ledger": self.memory.snapshot(),
            "per_vm": [
                {
                    "vm_id": vm.vm_id,
                    "weight": vm.weight,
                    "cpu_cycles": vm.cpu_cycles,
                    "world_switches": vm.world_switches,
                    "world_switch_cycles": vm.world_switch_cycles,
                    "balloon_frames": vm.balloon_frames,
                    "balloon_episodes": vm.balloon_episodes,
                }
                for vm in self.vms
            ],
        }


def run_consolidated(workloads, host_config=None, machine_config=None,
                     configs=None, tracer=None):
    """Run one workload per VM on a fresh :class:`Host` to completion.

    The host-scale :func:`repro.core.simulator.run_workload`: returns
    ``(per_vm_metrics, host_report)``. Each workload must be steppable,
    exposing ``program(api)`` — a generator factory that yields at
    preemption-safe points, as the :mod:`repro.workloads.consolidation`
    family does::

        from repro import HostConfig, run_consolidated, sandy_bridge_config
        from repro.workloads.consolidation import PackedHog

        per_vm, report = run_consolidated(
            [PackedHog(ops=5_000, seed=s) for s in (1, 2)],
            HostConfig(vms=2),
            sandy_bridge_config(mode="agile"))

    When ``host_config`` is omitted, one is derived with ``vms`` set to
    the number of workloads.
    """
    if host_config is None:
        host_config = HostConfig(vms=len(workloads))
    host = Host(host_config=host_config, machine_config=machine_config,
                configs=configs, tracer=tracer)
    host.load([workload.program for workload in workloads])
    host.run()
    return host.collect_metrics(), host.host_report()
