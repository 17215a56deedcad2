"""Simulated physical memories.

Two instances exist in a virtualized system, exactly as in the paper:

* **guest-physical memory** — the RAM the guest believes it owns; guest
  page-table nodes and guest data pages live here, addressed by guest
  frame number (gfn),
* **host-physical memory** — the machine's real RAM; host and shadow
  page-table nodes live here, and every guest frame is backed by a host
  frame via the host page table.

The simulator is functional, so a "frame" stores a Python object (a page
table node or a data-page descriptor) rather than 4096 bytes. Memory
*references* are counted by the hardware walker, not here.
"""

from repro.common.errors import SimulationError


class OutOfMemoryError(SimulationError):
    """The frame allocator is exhausted."""


class DataPage:
    """Contents of one allocated data frame.

    ``tag`` identifies what the page holds (useful for content-based
    sharing experiments); ``shared`` counts COW references to the frame.
    """

    __slots__ = ("tag", "shared")

    def __init__(self, tag=None):
        self.tag = tag
        self.shared = 1

    def __repr__(self):
        return "DataPage(tag=%r, shared=%d)" % (self.tag, self.shared)


class FrameAllocator:
    """A bump-then-free-list allocator of physical frames.

    Frames can be allocated singly or as naturally aligned contiguous
    runs (needed to back 2 MB / 1 GB pages with real contiguity).
    """

    def __init__(self, num_frames):
        if num_frames <= 0:
            raise ValueError("num_frames must be positive")
        self.num_frames = num_frames
        self._next = 0
        self._free = []

    @property
    def allocated(self):
        return self._next - len(self._free)

    @property
    def available(self):
        return self.num_frames - self.allocated

    def alloc(self):
        """Allocate one frame; returns its frame number."""
        if self._free:
            return self._free.pop()
        if self._next >= self.num_frames:
            raise OutOfMemoryError("out of physical frames (%d in use)" % self.allocated)
        frame = self._next
        self._next += 1
        return frame

    def alloc_contiguous(self, count):
        """Allocate ``count`` frames, naturally aligned; returns the first.

        Large-page backing requires alignment: a 2 MB page needs 512
        frames starting at a 512-frame boundary. The bump region is
        preferred; once it is exhausted, the lowest fully free aligned
        block is reclaimed from the free list (without this, map/unmap
        churn of large pages "leaks" the bump pointer and a long-running
        guest OOMs with most of memory on the free list — found by the
        differential fuzzer's 2M campaigns).
        """
        if count <= 0:
            raise ValueError("count must be positive")
        start = (self._next + count - 1) // count * count
        if start + count <= self.num_frames:
            # Frames skipped for alignment go back on the free list.
            self._free.extend(range(self._next, start))
            self._next = start + count
            return start
        free_set = set(self._free)
        for base in range(0, self._next - count + 1, count):
            if all(base + offset in free_set for offset in range(count)):
                block = set(range(base, base + count))
                self._free = [f for f in self._free if f not in block]
                return base
        raise OutOfMemoryError(
            "cannot back a %d-frame large page (%d in use)" % (count, self.allocated)
        )

    def free(self, frame):
        """Return one frame to the allocator."""
        if not 0 <= frame < self._next:
            raise SimulationError("freeing frame %d that was never allocated" % frame)
        self._free.append(frame)


class PhysicalMemory:
    """A frame-indexed object store plus its allocator.

    ``name`` distinguishes guest from host memory in error messages.
    """

    def __init__(self, num_frames, name="mem"):
        self.name = name
        self.allocator = FrameAllocator(num_frames)
        self._frames = {}

    def alloc_frame(self, contents=None):
        """Allocate a frame and optionally install its contents."""
        frame = self.allocator.alloc()
        if contents is not None:
            self._frames[frame] = contents
        return frame

    def alloc_data_page(self, tag=None):
        """Allocate a frame holding a fresh :class:`DataPage`."""
        return self.alloc_frame(DataPage(tag))

    def alloc_contiguous(self, count):
        """Allocate an aligned run of ``count`` empty frames."""
        return self.allocator.alloc_contiguous(count)

    def free_frame(self, frame):
        """Free a frame and drop its contents."""
        self._frames.pop(frame, None)
        self.allocator.free(frame)

    def install(self, frame, contents):
        """Set the contents of an already allocated frame."""
        self._frames[frame] = contents

    def read(self, frame):
        """Contents of ``frame`` (None if the frame holds no object)."""
        return self._frames.get(frame)

    def __contains__(self, frame):
        return frame in self._frames
