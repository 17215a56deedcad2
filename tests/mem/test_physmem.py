"""Unit tests for the frame allocator and physical memory store."""

import pytest

from repro.mem.physmem import (
    DataPage,
    FrameAllocator,
    OutOfMemoryError,
    PhysicalMemory,
)


class TestFrameAllocator:
    def test_allocates_distinct_frames(self):
        alloc = FrameAllocator(16)
        frames = {alloc.alloc() for _ in range(16)}
        assert len(frames) == 16

    def test_exhaustion_raises(self):
        alloc = FrameAllocator(2)
        alloc.alloc()
        alloc.alloc()
        with pytest.raises(OutOfMemoryError):
            alloc.alloc()

    def test_free_enables_reuse(self):
        alloc = FrameAllocator(1)
        frame = alloc.alloc()
        alloc.free(frame)
        assert alloc.alloc() == frame

    def test_free_unallocated_raises(self):
        alloc = FrameAllocator(4)
        with pytest.raises(Exception):
            alloc.free(3)

    def test_accounting(self):
        alloc = FrameAllocator(8)
        a = alloc.alloc()
        alloc.alloc()
        assert alloc.allocated == 2
        assert alloc.available == 6
        alloc.free(a)
        assert alloc.allocated == 1

    def test_contiguous_is_aligned(self):
        alloc = FrameAllocator(4096)
        alloc.alloc()  # misalign the bump pointer
        base = alloc.alloc_contiguous(512)
        assert base % 512 == 0

    def test_contiguous_skipped_frames_are_reusable(self):
        alloc = FrameAllocator(2048)
        alloc.alloc()
        alloc.alloc_contiguous(512)
        # Frames 1..511 went to the free list.
        singles = {alloc.alloc() for _ in range(511)}
        assert singles == set(range(1, 512))

    def test_contiguous_exhaustion(self):
        alloc = FrameAllocator(256)
        with pytest.raises(OutOfMemoryError):
            alloc.alloc_contiguous(512)

    def test_contiguous_reuses_freed_blocks(self):
        # Map/unmap churn of large pages must not leak the bump pointer:
        # once the bump region is gone, freed aligned blocks are reused
        # (found by the differential fuzzer's 2M campaigns).
        alloc = FrameAllocator(1024)
        first = alloc.alloc_contiguous(512)
        second = alloc.alloc_contiguous(512)
        for frame in range(second, second + 512):
            alloc.free(frame)
        assert alloc.alloc_contiguous(512) == second
        assert first == 0

    def test_contiguous_reuse_takes_lowest_aligned_block(self):
        alloc = FrameAllocator(1024)
        blocks = [alloc.alloc_contiguous(256) for _ in range(4)]
        for base in (blocks[3], blocks[1]):
            for frame in range(base, base + 256):
                alloc.free(frame)
        assert alloc.alloc_contiguous(256) == blocks[1]
        assert alloc.alloc_contiguous(256) == blocks[3]

    def test_contiguous_reuse_requires_fully_free_block(self):
        alloc = FrameAllocator(512)
        base = alloc.alloc_contiguous(512)
        for frame in range(base, base + 512):
            alloc.free(frame)
        hole = alloc.alloc()  # one frame back out of the only block
        with pytest.raises(OutOfMemoryError):
            alloc.alloc_contiguous(512)
        alloc.free(hole)
        assert alloc.alloc_contiguous(512) == base

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            FrameAllocator(0)
        with pytest.raises(ValueError):
            FrameAllocator(4).alloc_contiguous(0)


class TestPhysicalMemory:
    def test_alloc_and_read(self):
        mem = PhysicalMemory(16)
        frame = mem.alloc_frame("hello")
        assert mem.read(frame) == "hello"
        assert frame in mem

    def test_alloc_data_page(self):
        mem = PhysicalMemory(16)
        frame = mem.alloc_data_page(tag="heap")
        page = mem.read(frame)
        assert isinstance(page, DataPage)
        assert page.tag == "heap"
        assert page.shared == 1

    def test_read_empty_frame(self):
        mem = PhysicalMemory(16)
        frame = mem.alloc_frame()
        assert mem.read(frame) is None

    def test_free_clears_contents(self):
        mem = PhysicalMemory(16)
        frame = mem.alloc_frame("x")
        mem.free_frame(frame)
        assert frame not in mem

    def test_install_overwrites(self):
        mem = PhysicalMemory(16)
        frame = mem.alloc_frame("a")
        mem.install(frame, "b")
        assert mem.read(frame) == "b"
