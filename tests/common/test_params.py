"""Unit tests for the address-space geometry helpers."""

import pytest

from repro.common import params
from repro.common.params import (
    FOUR_KB,
    ONE_GB,
    TWO_MB,
    align_up,
    level_shift,
    pt_index,
)


class TestGeometryConstants:
    def test_va_width_is_48_bits(self):
        assert params.VA_BITS == 48
        assert params.VA_LIMIT == 1 << 48

    def test_four_levels_of_nine_bits(self):
        assert params.NUM_LEVELS == 4
        assert params.ENTRIES_PER_NODE == 512

    def test_page_sizes(self):
        assert FOUR_KB.bytes == 4096
        assert TWO_MB.bytes == 2 * 1024 * 1024
        assert ONE_GB.bytes == 1024 ** 3

    def test_leaf_levels_match_x86(self):
        assert FOUR_KB.leaf_level == 1
        assert TWO_MB.leaf_level == 2
        assert ONE_GB.leaf_level == 3


class TestLevelShift:
    def test_known_shifts(self):
        assert level_shift(1) == 12
        assert level_shift(2) == 21
        assert level_shift(3) == 30
        assert level_shift(4) == 39

    @pytest.mark.parametrize("level", [0, 5, -1])
    def test_rejects_bad_level(self, level):
        with pytest.raises(ValueError):
            level_shift(level)


class TestPtIndex:
    def test_extracts_each_field(self):
        va = (5 << 39) | (17 << 30) | (111 << 21) | (511 << 12) | 0x123
        assert pt_index(va, 4) == 5
        assert pt_index(va, 3) == 17
        assert pt_index(va, 2) == 111
        assert pt_index(va, 1) == 511

    def test_index_is_nine_bits(self):
        va = (1 << 48) - 1
        for level in range(1, 5):
            assert pt_index(va, level) == 511

    def test_zero_va(self):
        for level in range(1, 5):
            assert pt_index(0, level) == 0


class TestPageHelpers:
    def test_align_up(self):
        assert align_up(1, 4096) == 4096
        assert align_up(4096, 4096) == 4096
        assert align_up(0, 4096) == 0
