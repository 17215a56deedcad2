"""One guest VM on a consolidated host.

A :class:`VirtualMachine` bundles a fully assembled single-VM
:class:`repro.core.machine.System` (built on a per-VM
:class:`~repro.common.clock.VirtualClock` view of the host clock and
the VM's metered memory reservation) with the scheduling state the host
needs: the guest program to run, per-vCPU cycle accounting, and the
world-switch / balloon counters that are the host's cost — never the
guest's.

Guest programs are *generators*: ``program(api)`` yields between small
batches of guest work, and each ``next()`` is one schedulable step. The
scheduler preempts only at yield points, so a preempted-and-resumed
program executes the exact operation stream of an uninterrupted one —
the property the determinism tests and the cross-VM isolation oracle
both assert.
"""

from repro.core.simulator import MachineAPI


class VMachineAPI(MachineAPI):
    """The machine API one VM's program sees, with per-VM accounting.

    Identical to :class:`MachineAPI` except that ``start_measurement``
    also pins this VM's cpu-cycle baseline, so per-VM metrics can report
    *vCPU* cycles in the measured window rather than host wall-clock
    (which includes every other VM's quanta).
    """

    def __init__(self, system, vm):
        super().__init__(system)
        self.vm = vm

    def start_measurement(self):
        super().start_measurement()
        self.vm.note_measurement_start()


class VirtualMachine:
    """Scheduling and accounting state for one consolidated guest."""

    def __init__(self, vm_id, system, weight=1.0):
        self.vm_id = vm_id
        self.system = system
        self.weight = weight
        self.api = VMachineAPI(system, self)
        self.program = None
        self.finished = False
        # vCPU time: clock cycles consumed while this VM's program ran.
        self.cpu_cycles = 0
        self._measured_base = None
        self._step_begin = None
        # Host-side costs attributed to (but not charged as) this VM.
        self.world_switches = 0
        self.world_switch_cycles = 0
        self.balloon_frames = 0
        self.balloon_episodes = 0

    def load(self, program_factory):
        """Install the guest program (``program_factory(api) -> generator``)."""
        self.program = program_factory(self.api)
        self.finished = False

    @property
    def runnable(self):
        return self.program is not None and not self.finished

    def step(self):
        """Run one schedulable unit of guest work.

        Returns True while the program has more work, False at exit.
        The virtual-clock delta across the ``next()`` is this vCPU's
        time; balloon revocations triggered by this VM's allocations
        advance the *victims'* virtual clocks (and host wall time), not
        this one's.
        """
        if not self.runnable:
            return False
        clock = self.system.clock
        self._step_begin = clock.now
        try:
            next(self.program)
        except StopIteration:
            self.finished = True
            self.program = None
        finally:
            self.cpu_cycles += clock.now - self._step_begin
            self._step_begin = None
        return not self.finished

    def note_measurement_start(self):
        """Pin the measured-window baseline (mid-step safe)."""
        partial = 0
        if self._step_begin is not None:
            partial = self.system.clock.now - self._step_begin
        self._measured_base = self.cpu_cycles + partial

    @property
    def measured_cpu_cycles(self):
        """vCPU cycles since ``start_measurement`` (whole run if never called)."""
        base = self._measured_base if self._measured_base is not None else 0
        return self.cpu_cycles - base

    def collect_metrics(self, label=None):
        """Per-VM :class:`RunMetrics` with vCPU (not wall) total cycles.

        Everything except ``total_cycles`` comes straight from the VM's
        own ``System`` — counters are per-system already, so they are
        guest-accurate under consolidation. ``total_cycles`` must be
        overridden: the system computes wall-clock since measurement
        start, which under consolidation includes other VMs' quanta.
        """
        metrics = self.system.collect_metrics(
            label if label is not None else "vm%d" % self.vm_id)
        metrics.total_cycles = self.measured_cpu_cycles
        return metrics

    def __repr__(self):
        return ("VirtualMachine(id=%d, weight=%s, cpu_cycles=%d, "
                "finished=%r)" % (self.vm_id, self.weight, self.cpu_cycles,
                                  self.finished))
