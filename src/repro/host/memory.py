"""Host physical memory for a consolidated machine.

One real machine's RAM, partitioned into per-VM reservations with
overcommit. Two cooperating classes:

* :class:`HostMemoryManager` — the global commit ledger. It knows how
  many frames the machine physically has, how many each VM currently
  holds, and invokes the pressure handler (the balloon driver) when a
  charge would exceed the physical limit.

* :class:`MeteredMemory` — one VM's *view* of host memory. It subclasses
  :class:`repro.mem.physmem.PhysicalMemory` with the reservation as its
  frame count, so the VM-local frame numbers it hands out are
  **bit-identical to a solo machine** built with the same reservation —
  the property the cross-VM isolation oracle asserts. Every allocation
  first charges the ledger; every free credits it.

The metered view also tracks live frames and refuses a double free:
the balloon driver and the VMM both return frames, and a frame freed
twice would silently corrupt a *different VM* once the ledger undercounts
(exactly the bug class the revocation path risks).
"""

from repro.common.effects import mutates
from repro.common.errors import SimulationError
from repro.mem.physmem import OutOfMemoryError, PhysicalMemory


class HostPressureError(OutOfMemoryError):
    """The commit limit was hit and reclaim could not free enough."""


class MeteredMemory(PhysicalMemory):
    """One VM's reservation-sized slice of host memory.

    ``base`` is the VM's partition origin in host-global frame space —
    reporting only (``global_frame``); all simulator state is keyed by
    the VM-local frame number so solo and consolidated runs match.
    """

    def __init__(self, num_frames, name, ledger, vm_id, base):
        super().__init__(num_frames, name)
        self.ledger = ledger
        self.vm_id = vm_id
        self.base = base
        self._live = set()

    def global_frame(self, frame):
        """The host-global frame number of a VM-local frame."""
        return self.base + frame

    # NOTE: these overrides carry no @mutates("host_ledger") annotation
    # on purpose — their names shadow PhysicalMemory's, and the analyzer
    # resolves attribute calls by name matching, so annotating them
    # would demand ledger authority at every guest allocation site in
    # the tree. The REPRO406 authority boundary is drawn at the uniquely
    # named ledger mutators (charge/credit) instead.

    def alloc_frame(self, contents=None):
        self.ledger.charge(self.vm_id, 1)
        frame = super().alloc_frame(contents)
        self._live.add(frame)
        return frame

    def alloc_contiguous(self, count):
        self.ledger.charge(self.vm_id, count)
        frame = super().alloc_contiguous(count)
        self._live.update(range(frame, frame + count))
        return frame

    def free_frame(self, frame):
        if frame not in self._live:
            raise SimulationError(
                "%s: double free of frame %d (vm %d) — the frame is not "
                "live; a revoked frame may have been returned twice"
                % (self.name, frame, self.vm_id))
        self._live.discard(frame)
        super().free_frame(frame)
        self.ledger.credit(self.vm_id, 1)

    @property
    def live_frames(self):
        """Frames this VM currently holds (== its ledger charge)."""
        return len(self._live)


class HostMemoryManager:
    """The global frame ledger of one consolidated host.

    Tracks per-VM committed frames against the physical total. When a
    charge would exceed it, the pressure handler (installed by the
    balloon driver) runs in direct-reclaim style — synchronously, on
    the requesting VM's time — and the charge retries. Determinism:
    the ledger's decisions depend only on allocation history, never on
    wall time.
    """

    def __init__(self, total_frames):
        if total_frames <= 0:
            raise ValueError("total_frames must be positive")
        self.total_frames = total_frames
        self.committed = {}
        self.reservations = {}
        self._next_base = 0
        # Installed by the balloon driver: callable(requester_vm_id,
        # frames_needed) -> frames actually freed.
        self.pressure_handler = None
        # Reclaim accounting (surfaced in bench reports).
        self.reclaim_episodes = 0
        self.frames_reclaimed = 0

    def attach_vm(self, vm_id, reservation, name=None):
        """Carve out one VM's reservation; returns its metered view."""
        if vm_id in self.reservations:
            raise SimulationError("vm %d already attached" % vm_id)
        self.reservations[vm_id] = reservation
        self.committed[vm_id] = 0
        memory = MeteredMemory(
            reservation,
            name if name is not None else "host[vm%d]" % vm_id,
            ledger=self,
            vm_id=vm_id,
            base=self._next_base,
        )
        self._next_base += reservation
        return memory

    @property
    def total_committed(self):
        return sum(self.committed.values())

    @property
    def available(self):
        return self.total_frames - self.total_committed

    @property
    def overcommitted(self):
        """Is the sum of reservations above the physical total?"""
        return sum(self.reservations.values()) > self.total_frames

    @mutates("host_ledger")
    def charge(self, vm_id, frames):
        """Commit ``frames`` to ``vm_id``, reclaiming under pressure."""
        while self.total_committed + frames > self.total_frames:
            need = self.total_committed + frames - self.total_frames
            freed = 0
            if self.pressure_handler is not None:
                self.reclaim_episodes += 1
                freed = self.pressure_handler(vm_id, need)
                self.frames_reclaimed += freed
            if freed <= 0:
                raise HostPressureError(
                    "host memory exhausted: vm %d needs %d frame(s), "
                    "%d/%d committed and reclaim freed nothing"
                    % (vm_id, frames, self.total_committed,
                       self.total_frames))
        self.committed[vm_id] += frames

    @mutates("host_ledger")
    def credit(self, vm_id, frames):
        """Return ``frames`` from ``vm_id`` to the host pool."""
        remaining = self.committed.get(vm_id, 0) - frames
        if remaining < 0:
            raise SimulationError(
                "vm %d credited %d frame(s) it never charged" % (vm_id, frames))
        self.committed[vm_id] = remaining

    def snapshot(self):
        """JSON-safe ledger state (bench / experiment reports)."""
        return {
            "total_frames": self.total_frames,
            "committed": dict(self.committed),
            "reservations": dict(self.reservations),
            "reclaim_episodes": self.reclaim_episodes,
            "frames_reclaimed": self.frames_reclaimed,
        }
