"""The virtual cycle clock shared by every simulated component.

This module is the one place host wall time and a VM's virtual time
legitimately meet: :meth:`VirtualClock.advance` bills its host clock as
a side effect of billing itself. Two runtime identities keep the time
bases honest: ``Host.run`` checks that host time is the VMs' virtual
time plus the world switches, and ``System.collect_metrics`` that
every cycle on a machine's clock is charged to a counter.
"""


class Clock:
    """A monotonically advancing cycle counter.

    All costs — ideal per-operation work, page-walk memory references,
    guest fault handling, VMtraps — advance this one clock, so policy
    intervals (Section III-C's "fixed time interval") and reported
    overheads share a time base.
    """

    __slots__ = ("now",)

    def __init__(self):
        self.now = 0

    def advance(self, cycles):
        if cycles < 0:
            raise ValueError("time cannot move backwards")
        self.now += cycles

    def __repr__(self):
        return "Clock(now=%d)" % self.now


class VirtualClock:
    """One VM's view of a shared host :class:`Clock`.

    Advances pass through to the host clock — host wall time is the sum
    of every tenant's work — but ``now`` reads only the cycles advanced
    through *this* view: the VM's own virtual time. Guest-side policy
    intervals (Section III-C's "fixed time interval") therefore measure
    guest execution time, not host wall time, so a VM's switching
    decisions — and with them its whole translation state — are
    independent of what other tenants do on the shared machine. This is
    what makes a consolidated VM bit-identical to its solo baseline
    (the cross-VM isolation oracle's invariant).
    """

    __slots__ = ("host", "now")

    def __init__(self, host):
        self.host = host
        self.now = 0

    def advance(self, cycles):
        if cycles < 0:
            raise ValueError("time cannot move backwards")
        self.now += cycles
        self.host.advance(cycles)

    def __repr__(self):
        return "VirtualClock(now=%d, host=%d)" % (self.now, self.host.now)
