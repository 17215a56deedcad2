"""Walker interaction with the page-walk caches (guest and host PWC)."""

import pytest

from helpers import TwoLevelSetup, make_native_setup, native_ctx
from repro.hw.pwc import PageWalkCache
from repro.hw.walker import PageWalker

VA = (3 << 39) | (7 << 30) | (11 << 21) | (13 << 12)
NEIGHBOR = VA + (1 << 12)  # same leaf node, different PTE


class TestNativeWithPWC:
    def test_second_walk_skips_to_leaf(self):
        mem, table = make_native_setup()
        table.map(VA, mem.alloc_data_page())
        table.map(NEIGHBOR, mem.alloc_data_page())
        walker = PageWalker(mem, pwc=PageWalkCache())
        ctx = native_ctx(table)
        first = walker.native_walk(VA, ctx)
        second = walker.native_walk(NEIGHBOR, ctx)
        assert first.refs == 4
        assert second.refs == 1  # depth-3 PWC hit: leaf access only

    def test_partial_prefix_hit(self):
        mem, table = make_native_setup()
        table.map(VA, mem.alloc_data_page())
        other_l2 = VA + (1 << 21)  # shares L4+L3, different L2 subtree
        table.map(other_l2, mem.alloc_data_page())
        walker = PageWalker(mem, pwc=PageWalkCache())
        ctx = native_ctx(table)
        walker.native_walk(VA, ctx)
        result = walker.native_walk(other_l2, ctx)
        assert result.refs == 2  # depth-2 hit: walk L2 + leaf


class TestNestedWithCaches:
    def build(self, pwc=True, host_pwc=True):
        setup = TwoLevelSetup()
        setup.map_guest(VA)
        setup.map_guest(NEIGHBOR)
        walker = PageWalker(
            setup.host_mem,
            setup.guest_mem,
            pwc=PageWalkCache() if pwc else None,
            host_pwc=PageWalkCache() if host_pwc else None,
        )
        return setup, walker

    def test_warm_nested_walk_costs_two_refs(self):
        setup, walker = self.build()
        ctx = setup.nested_ctx()
        first = walker.nested_walk(VA, ctx)
        second = walker.nested_walk(NEIGHBOR, ctx)
        # Even the cold walk reuses the host PWC *within* itself (this
        # small guest's gPAs share one host L1 node): 4 refs for the
        # first host walk, then 1 per group: 4 + (1+1)*4 = 12.
        assert first.refs == 12
        # Guest PWC skips to the guest leaf; host PWC skips to the host
        # leaf for the data page: 1 gPT read + 1 hPT read.
        assert second.refs == 2

    def test_host_pwc_alone(self):
        setup, walker = self.build(pwc=False, host_pwc=True)
        ctx = setup.nested_ctx()
        walker.nested_walk(VA, ctx)
        second = walker.nested_walk(NEIGHBOR, ctx)
        # 5 host-walk groups collapse to 1 ref each: 4 gPT + 5 hPT... the
        # gptr translation plus one per level: 4 guest reads + 5 host hits.
        assert second.refs == 9

    def test_agile_pwc_mode_bits(self):
        setup, walker = self.build()
        setup.build_full_shadow()
        setup.set_switching(VA, 2)
        ctx = setup.agile_ctx()
        first = walker.agile_walk(VA, ctx)
        second = walker.agile_walk(VA, ctx)
        assert first.refs == 8
        # The guest-mode PWC entry resumes the walk nested at the leaf.
        assert second.refs <= 3
        assert second.nested_levels >= 1
