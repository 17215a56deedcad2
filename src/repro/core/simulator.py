"""The trace-driven run loop and the API workloads program against."""

from repro.common.config import sandy_bridge_config
from repro.core.machine import System


class MachineAPI:
    """What a workload may do to the machine.

    A thin façade over :class:`System` and its guest kernel, so workload
    code reads like an application plus the syscalls it makes.
    """

    def __init__(self, system):
        self.system = system
        self.kernel = system.kernel

    # -- plain memory traffic ------------------------------------------------

    def read(self, va):
        return self.system.access(va, is_write=False)

    def write(self, va):
        return self.system.access(va, is_write=True)

    def access(self, va, is_write):
        return self.system.access(va, is_write=is_write)

    def access_many(self, vas, writes):
        """One access per address in ``vas``; ``writes`` marks the writes."""
        return self.system.access_many(vas, writes)

    # -- "syscalls" -------------------------------------------------------------

    @property
    def current(self):
        return self.kernel.current

    def spawn(self, code_pages=None):
        return self.kernel.create_process(code_pages=code_pages)

    def exit(self, proc):
        self.kernel.destroy_process(proc)

    def mmap(self, size, writable=True, kind="anon", populate=False, proc=None):
        proc = proc if proc is not None else self.kernel.current
        return self.kernel.mmap(proc, size, writable=writable, kind=kind,
                                populate=populate)

    def munmap(self, va, size, proc=None):
        proc = proc if proc is not None else self.kernel.current
        self.kernel.munmap(proc, va, size)

    def fork(self, proc=None):
        proc = proc if proc is not None else self.kernel.current
        return self.kernel.fork(proc)

    def switch_to(self, proc):
        return self.kernel.context_switch(proc.pid)

    def settle(self, intervals=2):
        """Idle long enough for periodic VMM policies to converge."""
        self.system.settle_policies(intervals)

    def start_measurement(self):
        """End setup/warmup: metrics describe steady state from here."""
        self.system.reset_counters()

    def mprotect(self, va, size, writable, proc=None):
        proc = proc if proc is not None else self.kernel.current
        return self.kernel.mprotect(proc, va, size, writable)

    def dedup(self, va, size, group=2, proc=None):
        proc = proc if proc is not None else self.kernel.current
        return self.kernel.dedup_region(proc, va, size, group=group)

    def reclaim(self, pages, proc=None, precise_aging=False):
        proc = proc if proc is not None else self.kernel.current
        return self.kernel.reclaim(proc, pages, precise_aging=precise_aging)


class Simulator:
    """Runs one workload on one system configuration."""

    def __init__(self, system):
        self.system = system
        self.api = MachineAPI(system)

    def run(self, workload):
        """Execute the workload to completion; returns RunMetrics."""
        workload.execute(self.api)
        return self.system.collect_metrics(label=workload.name)


def run_workload(workload, config=None, seed=None, rng=None, ops=None,
                 tracer=None, recorder=None, **config_overrides):
    """One-call convenience: build a system, run, return metrics.

    This is the primary public entry point::

        from repro import run_workload, sandy_bridge_config
        metrics = run_workload(my_workload,
                               sandy_bridge_config(mode="agile"))

    ``tracer``/``recorder`` (a :class:`repro.obs.Tracer` and
    :class:`repro.obs.IntervalRecorder`) are attached to the built
    system before the run, capturing its full event stream and interval
    time-series alongside the returned metrics.

    ``workload`` may also be a workload *class*; it is then constructed
    here with the config's page size and, when given, ``ops`` and either
    ``seed`` or a pre-seeded ``rng`` — threading the caller's randomness
    through to construction under the ``Workload(rng=...)`` contract::

        metrics = run_workload(McfLike, seed=7, ops=20_000, mode="agile")

    Passing ``seed``/``rng``/``ops`` alongside an already-constructed
    workload instance is an error: an instance's stream is fixed at
    construction, and silently ignoring the arguments would break the
    determinism they are meant to pin down.
    """
    if config is None:
        config = sandy_bridge_config(**config_overrides)
    if isinstance(workload, type):
        kwargs = {"page_size": config.page_size}
        if ops is not None:
            kwargs["ops"] = ops
        if rng is not None:
            kwargs["rng"] = rng
            kwargs["seed"] = None
        elif seed is not None:
            kwargs["seed"] = seed
        workload = workload(**kwargs)
    elif seed is not None or rng is not None or ops is not None:
        raise TypeError(
            "seed=/rng=/ops= require a workload class; %r is already "
            "constructed (pass them to its constructor instead)"
            % (type(workload).__name__,))
    system = System(config)
    if tracer is not None or recorder is not None:
        system.attach_observability(tracer=tracer, recorder=recorder)
    return Simulator(system).run(workload)
