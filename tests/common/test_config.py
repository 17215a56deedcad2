"""Unit tests for machine configuration objects."""

import pytest

from repro.common.config import (
    MODE_AGILE,
    MODE_NATIVE,
    MODE_NESTED,
    MODE_SHADOW,
    MachineConfig,
    TLBConfig,
    sandy_bridge_config,
    sandy_bridge_tlbs,
)
from repro.common.params import FOUR_KB, TWO_MB


class TestTLBConfig:
    def test_sets_derived(self):
        assert TLBConfig(entries=64, ways=4).sets == 16

    def test_rejects_non_multiple(self):
        with pytest.raises(ValueError):
            TLBConfig(entries=10, ways=4)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            TLBConfig(entries=0, ways=1)


class TestSandyBridgeTable3:
    """The Table III geometry, verbatim."""

    def test_l1_dtlb(self):
        tlbs = sandy_bridge_tlbs()
        assert tlbs.l1d["4K"] == TLBConfig(64, 4)
        assert tlbs.l1d["2M"] == TLBConfig(32, 4)
        assert tlbs.l1d["1G"] == TLBConfig(4, 4)

    def test_l1_itlb(self):
        tlbs = sandy_bridge_tlbs()
        assert tlbs.l1i["4K"] == TLBConfig(128, 4)
        assert tlbs.l1i["2M"] == TLBConfig(8, 8)

    def test_l2_tlb(self):
        tlbs = sandy_bridge_tlbs()
        assert tlbs.l2["4K"] == TLBConfig(512, 4)
        assert tlbs.l2["2M"] == TLBConfig(512, 4)
        assert "1G" not in tlbs.l2


class TestMachineConfig:
    def test_default_is_native_4k(self):
        config = MachineConfig()
        assert config.mode == MODE_NATIVE
        assert config.page_size is FOUR_KB
        assert not config.virtualized

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            MachineConfig(mode="paravirt")

    def test_rejects_non_pagesize(self):
        with pytest.raises(TypeError):
            MachineConfig(page_size=4096)

    @pytest.mark.parametrize("mode", [MODE_NESTED, MODE_SHADOW, MODE_AGILE])
    def test_virtualized_modes(self, mode):
        assert MachineConfig(mode=mode).virtualized

    def test_with_mode_returns_copy(self):
        base = sandy_bridge_config()
        nested = base.with_mode(MODE_NESTED)
        assert nested.mode == MODE_NESTED
        assert base.mode == MODE_NATIVE
        assert nested.tlbs == base.tlbs

    def test_with_page_size(self):
        config = sandy_bridge_config().with_page_size(TWO_MB)
        assert config.page_size is TWO_MB

    def test_overrides(self):
        config = sandy_bridge_config(hw_ad_assist=False)
        assert not config.hw_ad_assist
