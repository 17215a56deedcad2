"""Tests for eager shadow rebuild on nested=>shadow reversion."""

from repro.common.config import sandy_bridge_config
from repro.core.machine import System
from repro.core.simulator import MachineAPI
from repro.vmm import traps as T


def build_switched_system():
    system = System(sandy_bridge_config(mode="agile"))
    api = MachineAPI(system)
    proc = api.spawn()
    base = api.mmap(32 << 12)
    for i in range(32):
        api.write(base + i * 4096)  # burst: leaf node switches to nested
    manager = system.vmm.states[proc.pid].manager
    return system, api, proc, manager, base


class TestRevertRebuild:
    def test_revert_rebuilds_leaves(self):
        system, api, proc, manager, base = build_switched_system()
        nested = manager.nested_node_gfns()
        assert nested, "setup should have switched at least one node"
        for gfn in nested:
            meta = manager.node_meta[gfn]
            if gfn == manager.root_gfn or (
                manager.node_meta[meta.parent_gfn].mode == "shadow"
            ):
                manager.revert_to_shadow(gfn)
        # Every mapped page in the region translates via shadow without
        # any fill trap.
        system.vmm.traps.reset()
        system.mmu.flush_all()
        for i in range(32):
            api.read(base + i * 4096)
        assert system.vmm.traps.count(T.SHADOW_FILL) == 0

    def test_revert_installs_switch_for_nested_children(self):
        system, api, proc, manager, base = build_switched_system()
        # Force the whole table nested, then revert only the root: its
        # children stay nested and must get switching-bit entries.
        manager.switch_to_nested(manager.root_gfn)
        manager.revert_to_shadow(manager.root_gfn)
        system.vmm.traps.reset()
        system.mmu.flush_all()
        outcome = api.read(base)
        # The walk crossed into nested mode via an SB installed by the
        # rebuild, with no shadow-fill trap.
        assert system.vmm.traps.count(T.SHADOW_FILL) == 0
        assert outcome.nested_levels >= 1  # the flushed TLB forced a walk

    def test_policy_reversion_charges_background_work(self):
        system, api, proc, manager, base = build_switched_system()
        # Drive time past several reversion intervals with read-only
        # traffic; the dirty-bit policy reverts everything and the
        # background work must be accounted.
        deadline = system.clock.now + 3 * system.config.policy.revert_interval
        while system.clock.now < deadline:
            system.mmu.flush_all()  # keep walks (and time) flowing
            for i in range(32):
                api.read(base + i * 4096)
        assert not manager.nested_node_gfns()
        assert system.vmm.traps.counts.get(T.REVERT_REBUILD, 0) >= 1
        assert system.vmm.traps.cycles.get(T.REVERT_REBUILD, 0) > 0
        # Background work is attributed to the VMM but is not a VMexit.
        assert T.REVERT_REBUILD not in T.ALL_TRAP_KINDS
