"""Configuration objects describing the simulated machine.

``sandy_bridge_config`` reproduces the per-core TLB hierarchy of the
paper's Table III (dual-socket Xeon E5-2430). Everything else — paging
mode, page size, page-walk caches, the two optional hardware
optimizations, and policy intervals — is selected per experiment.
"""

from dataclasses import dataclass, field, replace

from repro.common.params import FOUR_KB, ONE_GB, TWO_MB, PageSize

# Paging modes, named as in the paper's figures (B / N / S / A).
MODE_NATIVE = "native"
MODE_NESTED = "nested"
MODE_SHADOW = "shadow"
MODE_AGILE = "agile"
# SHSP (Wang et al., VEE 2011): the prior-work baseline that switches a
# whole process between nested and shadow paging over time.
MODE_SHSP = "shsp"
ALL_MODES = (MODE_NATIVE, MODE_NESTED, MODE_SHADOW, MODE_AGILE)
VIRTUALIZED_MODES = (MODE_NESTED, MODE_SHADOW, MODE_AGILE, MODE_SHSP)
EXTENDED_MODES = ALL_MODES + (MODE_SHSP,)

MODE_LABELS = {
    MODE_NATIVE: "B",
    MODE_NESTED: "N",
    MODE_SHADOW: "S",
    MODE_AGILE: "A",
}


@dataclass(frozen=True)
class TLBConfig:
    """Geometry of one TLB structure for one page size."""

    entries: int
    ways: int

    def __post_init__(self):
        if self.entries <= 0 or self.ways <= 0:
            raise ValueError("TLB geometry must be positive")
        if self.entries % self.ways:
            raise ValueError(
                "entries (%d) must be a multiple of ways (%d)" % (self.entries, self.ways)
            )

    @property
    def sets(self):
        return self.entries // self.ways


@dataclass(frozen=True)
class TLBHierarchyConfig:
    """Per-core TLB hierarchy: L1 data, L1 instruction, unified L2.

    Maps page-size name -> :class:`TLBConfig`. A missing page size means
    that structure cannot hold entries of that size (e.g., no 1 GB entries
    in the Sandy Bridge L2), in which case L1 is the only cache for them.
    """

    l1d: dict
    l1i: dict
    l2: dict


def sandy_bridge_tlbs():
    """The Table III per-core TLB hierarchy."""
    return TLBHierarchyConfig(
        l1d={
            "4K": TLBConfig(entries=64, ways=4),
            "2M": TLBConfig(entries=32, ways=4),
            "1G": TLBConfig(entries=4, ways=4),
        },
        l1i={
            "4K": TLBConfig(entries=128, ways=4),
            "2M": TLBConfig(entries=8, ways=8),
        },
        l2={
            "4K": TLBConfig(entries=512, ways=4),
            "2M": TLBConfig(entries=512, ways=4),
        },
    )


@dataclass(frozen=True)
class PWCConfig:
    """Page-walk-cache geometry: one skip table per skippable level count.

    Mirrors Intel's three partial-translation tables (skip 1, 2, or 3 top
    levels of the radix tree), extended per Section III-A with a mode bit
    so entries may point into either the shadow or the guest page table.
    """

    enabled: bool = True
    entries_per_table: int = 32


@dataclass(frozen=True)
class PolicyConfig:
    """Knobs for the VMM switching policies of Section III-C."""

    # Writes to one guest PT page within `write_interval` cycles that
    # trigger a shadow->nested conversion of that subtree. The paper's
    # interval is 1 second; ours is scaled to simulated run lengths.
    write_threshold: int = 2
    write_interval: int = 60_000
    # Period of the nested->shadow reversion scan.
    revert_interval: int = 150_000
    # 'dirty' (scan host-PT dirty bits, revert quiescent subtrees) or
    # 'simple' (revert everything each interval) or 'none'.
    revert_policy: str = "dirty"
    # Short-lived process handling: start fully nested, enable agile only
    # after `grace_cycles` if TLB misses exceed `miss_rate_threshold`
    # misses per 1000 operations.
    start_nested: bool = False
    grace_cycles: int = 500_000
    miss_rate_threshold: float = 5.0


@dataclass(frozen=True)
class CostConfig:
    """Cycle costs feeding the Table IV performance model.

    Calibrated, not measured: a page-walk memory reference costs roughly a
    cache/DRAM access; a VMtrap costs thousands of cycles (Section II-B).
    """

    cycles_per_op: int = 2  # ideal cycles per simulated operation
    cycles_per_walk_ref: int = 40
    cycles_tlb_l1_hit: int = 0
    cycles_tlb_l2_hit: int = 7
    vmtrap_base_cycles: int = 1200  # VMexit + resume
    vmtrap_pt_write_cycles: int = 2200
    vmtrap_context_switch_cycles: int = 1800
    vmtrap_shadow_fill_cycles: int = 2800
    vmtrap_dirty_sync_cycles: int = 2000
    vmtrap_host_fault_cycles: int = 3500
    guest_fault_cycles: int = 900


@dataclass(frozen=True)
class MachineConfig:
    """Everything needed to assemble one simulated system."""

    mode: str = MODE_NATIVE
    page_size: PageSize = FOUR_KB  # guest translation granule
    # Host (second-stage) granule; None means "same as the guest", the
    # paper's evaluated configuration. Setting them differently models
    # Section V's mixed case: the TLB entry is broken to the smaller
    # granule.
    host_page_size: PageSize = None
    tlbs: TLBHierarchyConfig = field(default_factory=sandy_bridge_tlbs)
    pwc: PWCConfig = field(default_factory=PWCConfig)
    policy: PolicyConfig = field(default_factory=PolicyConfig)
    cost: CostConfig = field(default_factory=CostConfig)
    # Optional hardware optimizations (Section IV).
    hw_ad_assist: bool = True
    hw_cr3_cache: bool = True
    cr3_cache_entries: int = 8
    # Paranoid mode (repro.vmm.invariants): re-validate shadow/guest/TLB
    # coherence after every VMtrap and mode switch. Costs simulation
    # wall-clock time but never simulated cycles.
    paranoid: bool = False
    # Physical memory sizes, in frames (4 KB each).
    guest_mem_frames: int = 1 << 16  # 256 MB of guest-physical space
    host_mem_frames: int = 1 << 17  # 512 MB of host-physical space

    def __post_init__(self):
        if self.mode not in EXTENDED_MODES:
            raise ValueError("unknown paging mode: %r" % (self.mode,))
        if not isinstance(self.page_size, PageSize):
            raise TypeError("page_size must be a PageSize")
        if self.host_page_size is not None and not isinstance(
                self.host_page_size, PageSize):
            raise TypeError("host_page_size must be a PageSize or None")

    @property
    def host_granule(self):
        """The second-stage translation granule."""
        return self.host_page_size if self.host_page_size is not None else self.page_size

    @property
    def virtualized(self):
        return self.mode != MODE_NATIVE

    def with_mode(self, mode):
        """A copy of this config running under a different paging mode."""
        return replace(self, mode=mode)

    def with_page_size(self, page_size):
        """A copy of this config using a different translation granule."""
        return replace(self, page_size=page_size)


def sandy_bridge_config(mode=MODE_NATIVE, page_size=FOUR_KB, **overrides):
    """A Table III machine in the requested mode/page size."""
    return replace(MachineConfig(mode=mode, page_size=page_size), **overrides)


@dataclass(frozen=True)
class HostConfig:
    """A consolidated host: N guest VMs multiplexed over shared RAM.

    The paper evaluates one guest at a time; this config describes the
    multi-tenant deployment its claims matter most for — several VMs
    sharing one physical machine, scheduled on one clock, with the host
    memory optionally overcommitted (``vms * vm_frames > host_frames``).
    Paired with a per-VM :class:`MachineConfig` by
    :class:`repro.host.host.Host`.
    """

    # Number of guest VMs packed onto the host (the consolidation ratio).
    vms: int = 2
    # Physical host frames actually present (the commit limit ballooning
    # defends). 0 means "no overcommit": vms * vm_frames.
    host_frames: int = 0
    # Per-VM host-physical reservation, in frames. Each VM allocates
    # from its own partition of this size, so its frame numbers are
    # bit-identical to a solo machine with host_mem_frames=vm_frames.
    vm_frames: int = 1 << 16
    # vCPU scheduling: round-robin with weighted quanta on the shared
    # clock. A VM runs for quantum_cycles * weight before preemption.
    quantum_cycles: int = 20_000
    # Per-VM scheduling weights; empty means every VM weighs 1.0.
    weights: tuple = ()
    # Cross-VM world switch: VMCS save/restore plus host scheduler work.
    # Deliberately distinct from (and costlier than) the guest-internal
    # vmtrap_context_switch_cycles of CostConfig.
    world_switch_cycles: int = 4_000
    # VPID-style tagged TLBs: when False a world switch flushes the
    # incoming VM's TLBs, as on hardware without address-space tags.
    vpid: bool = True
    # Ballooning: frames reclaimed from a victim per pressure episode,
    # and the per-frame revocation cost charged to the victim's VMM.
    balloon_batch: int = 64
    balloon_page_cycles: int = 300

    def __post_init__(self):
        if self.vms <= 0:
            raise ValueError("a host needs at least one VM")
        if self.vm_frames <= 0:
            raise ValueError("vm_frames must be positive")
        if self.host_frames < 0:
            raise ValueError("host_frames cannot be negative")
        if self.quantum_cycles <= 0:
            raise ValueError("quantum_cycles must be positive")
        if self.weights and len(self.weights) != self.vms:
            raise ValueError(
                "weights must be empty or name every VM (%d given, %d VMs)"
                % (len(self.weights), self.vms))
        if any(w <= 0 for w in self.weights):
            raise ValueError("scheduling weights must be positive")

    @property
    def total_reserved_frames(self):
        """Sum of every VM's reservation (may exceed host_frames)."""
        return self.vms * self.vm_frames

    @property
    def commit_limit_frames(self):
        """Physical frames the host can actually commit."""
        return self.host_frames if self.host_frames else self.total_reserved_frames

    @property
    def overcommit_ratio(self):
        """reserved / physical — above 1.0 ballooning may be needed."""
        return self.total_reserved_frames / self.commit_limit_frames

    def weight_of(self, vm_id):
        """Scheduling weight of one VM (1.0 unless configured)."""
        return float(self.weights[vm_id]) if self.weights else 1.0


__all__ = [
    "MODE_NATIVE",
    "MODE_NESTED",
    "MODE_SHADOW",
    "MODE_AGILE",
    "ALL_MODES",
    "VIRTUALIZED_MODES",
    "MODE_LABELS",
    "TLBConfig",
    "TLBHierarchyConfig",
    "PWCConfig",
    "PolicyConfig",
    "CostConfig",
    "MachineConfig",
    "HostConfig",
    "sandy_bridge_tlbs",
    "sandy_bridge_config",
    "FOUR_KB",
    "TWO_MB",
    "ONE_GB",
]
