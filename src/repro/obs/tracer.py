"""The tracer: typed event capture behind a null-object fast path.

Two classes share one interface:

* :class:`NullTracer` — the default wired into every component. All of
  its emit methods are no-ops and its :attr:`enabled` class attribute is
  False, so hot paths guard with one attribute load + branch::

      tr = self.tracer
      if tr.enabled:
          tr.walk(now, mode=..., refs=...)

  That guard is the *entire* cost of the subsystem when tracing is off
  (see ``benchmarks/bench_obs_overhead.py`` for the measured bound).

* :class:`Tracer` — records :class:`repro.obs.events.Event` objects
  into an in-memory list, timestamped off the simulated clock it is
  attached to. Events carry only simulation-derived data, so the stream
  is deterministic for a given (workload, seed, config).

Attach a tracer to a built system with
:func:`repro.core.machine.System.attach_observability`; it threads the
tracer into the MMU, the page walker, the VMM, and the trap accountant.
"""

from repro.obs.events import (
    EV_BALLOON,
    EV_CTX_SWITCH,
    EV_GUEST_FAULT,
    EV_MARK,
    EV_POLICY,
    EV_PWC,
    EV_TLB_HIT,
    EV_VMTRAP,
    EV_VM_SWITCH,
    EV_WALK,
    Event,
)


class NullTracer:
    """The do-nothing tracer every component holds by default.

    Also the interface definition: :class:`Tracer` overrides every emit
    method, so code may call any of them unconditionally — but hot paths
    should guard on :attr:`enabled` to skip argument construction.
    """

    enabled = False

    def vmtrap(self, ts, trap, cycles):
        """One VMtrap (or hardware-assist/background-work) charge."""

    def walk(self, ts, mode, refs, depth, shift, asid):
        """One completed page walk (= one TLB miss)."""

    def tlb_hit(self, ts, level, asid):
        """One L1/L2 TLB hit."""

    def pwc(self, ts, structure, hit):
        """One page-walk-cache probe (guest- or host-side)."""

    def policy(self, ts, direction, pid=None, node=None, level=None,
               count=None):
        """One policy decision (shadow<->nested, promotion, SHSP)."""

    def ctx_switch(self, ts, old_pid, new_pid):
        """One guest context switch."""

    def guest_fault(self, ts, pid, va, is_write):
        """One guest page fault resolved by the guest OS."""

    def vm_switch(self, ts, old_vm, new_vm, cycles):
        """One cross-VM world switch on a consolidated host."""

    def balloon(self, ts, victim_vm, frames, requester_vm):
        """One balloon/reclaim episode revoking frames from a victim."""

    def mark(self, ts, name):
        """A named point in the run (e.g. measurement_start)."""


#: The shared null instance; safe to share because it has no state.
NULL_TRACER = NullTracer()


class Tracer(NullTracer):
    """Records typed events; the real implementation of the interface."""

    enabled = True

    def __init__(self):
        self.events = []

    def __len__(self):
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def clear(self):
        self.events = []

    # -- emit methods ---------------------------------------------------------

    def vmtrap(self, ts, trap, cycles):
        self.events.append(Event(EV_VMTRAP, ts, cycles, {"trap": trap}))

    def walk(self, ts, mode, refs, depth, shift, asid):
        self.events.append(Event(EV_WALK, ts, 0, {
            "mode": mode, "refs": refs, "depth": str(depth),
            "shift": shift, "asid": asid}))

    def tlb_hit(self, ts, level, asid):
        self.events.append(Event(EV_TLB_HIT, ts, 0,
                                 {"level": level, "asid": asid}))

    def pwc(self, ts, structure, hit):
        self.events.append(Event(EV_PWC, ts, 0,
                                 {"structure": structure, "hit": bool(hit)}))

    def policy(self, ts, direction, pid=None, node=None, level=None,
               count=None):
        data = {"direction": direction}
        if pid is not None:
            data["pid"] = pid
        if node is not None:
            data["node"] = node
        if level is not None:
            data["level"] = level
        if count is not None:
            data["count"] = count
        self.events.append(Event(EV_POLICY, ts, 0, data))

    def ctx_switch(self, ts, old_pid, new_pid):
        self.events.append(Event(EV_CTX_SWITCH, ts, 0,
                                 {"old": old_pid, "new": new_pid}))

    def guest_fault(self, ts, pid, va, is_write):
        self.events.append(Event(EV_GUEST_FAULT, ts, 0, {
            "pid": pid, "va": va, "write": bool(is_write)}))

    def vm_switch(self, ts, old_vm, new_vm, cycles):
        self.events.append(Event(EV_VM_SWITCH, ts, cycles,
                                 {"old": old_vm, "new": new_vm}))

    def balloon(self, ts, victim_vm, frames, requester_vm):
        self.events.append(Event(EV_BALLOON, ts, 0, {
            "victim": victim_vm, "frames": frames,
            "requester": requester_vm}))

    def mark(self, ts, name):
        self.events.append(Event(EV_MARK, ts, 0, {"name": name}))
