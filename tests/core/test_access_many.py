"""``System.access_many`` is ``System.access`` applied op by op.

The same scripted op list runs through one ``access_many`` call per
phase on one fresh system and through ``access`` per op on another. The
script demand-faults a region in (guest, host and shadow faults), writes
through the clean entries it left (write upgrades), crosses policy-epoch
boundaries inside one batch, and writes pages that ``dedup`` and
``fork`` made copy-on-write (shadow protection faults). Both systems
must end with equal state digests, metrics and traced event streams.
"""

import random

import pytest

from repro.common.config import (
    EXTENDED_MODES,
    PolicyConfig,
    sandy_bridge_config,
)
from repro.common.params import FOUR_KB, TWO_MB
from repro.core.machine import POLICY_EPOCH_OPS, System
from repro.core.simulator import MachineAPI
from repro.obs.tracer import Tracer

PAGES = 12


def script():
    """Phases of (page, is_write) ops; each phase is one batch."""
    rng = random.Random(7)
    fill = ([(page, False) for page in range(PAGES)]
            + [(page, True) for page in range(PAGES)]
            + [(rng.randrange(PAGES), rng.random() < 0.3)
               for _ in range(600)])
    assert len(fill) > 2 * POLICY_EPOCH_OPS
    cow = ([(page, True) for page in range(PAGES)]
           + [(rng.randrange(PAGES), rng.random() < 0.5)
              for _ in range(100)])
    return fill, cow


def run(mode, page_size, batched):
    """Run the script; returns (system, tracer, fault kinds raised)."""
    # Agile starts fully nested and enables shadow coverage at the second
    # policy epoch, inside the first batch: the loop must re-read the
    # translation context there.
    system = System(sandy_bridge_config(
        mode=mode, page_size=page_size,
        policy=PolicyConfig(start_nested=True, grace_cycles=256,
                            miss_rate_threshold=0.0)))
    tracer = Tracer()
    system.attach_observability(tracer=tracer)
    api = MachineAPI(system)
    raised = set()
    translate = system.mmu.translate

    def spy(*args):
        try:
            return translate(*args)
        except Exception as fault:
            raised.add(type(fault).__name__)
            raise

    # access_many fetches translate through the instance on every call.
    system.mmu.translate = spy
    granule = page_size.bytes
    api.spawn()
    base = api.mmap(PAGES * granule)

    def issue(ops):
        vas = [base + page * granule for page, _write in ops]
        writes = [write for _page, write in ops]
        if batched:
            api.access_many(vas, writes)
        else:
            for va, write in zip(vas, writes):
                api.access(va, write)

    fill, cow = script()
    issue(fill)
    api.dedup(base, PAGES * granule, group=2)
    api.fork()
    issue(cow)
    api.settle()
    issue(fill[:50])
    return system, tracer, raised


def events(tracer):
    return [(event.kind, event.ts, event.dur, event.data)
            for event in tracer.events]


@pytest.mark.parametrize("page_size", (FOUR_KB, TWO_MB), ids=("4K", "2M"))
@pytest.mark.parametrize("mode", EXTENDED_MODES)
def test_one_batch_equals_one_access_per_op(mode, page_size):
    batched, batched_tracer, raised = run(mode, page_size, batched=True)
    single, single_tracer, _raised = run(mode, page_size, batched=False)
    assert batched.state_digest() == single.state_digest()
    assert batched.snapshot().to_dict() == single.snapshot().to_dict()
    assert events(batched_tracer) == events(single_tracer)
    assert batched.mmu.counters.tlb_hits_l1 > 0
    assert batched.mmu.counters.tlb_misses > 0
    assert "GuestPageFault" in raised or "ShadowNotPresentFault" in raised


def test_the_script_raises_every_fault_kind():
    raised = set()
    for mode in EXTENDED_MODES:
        raised |= run(mode, FOUR_KB, batched=True)[2]
    assert raised == {"GuestPageFault", "HostPageFault",
                      "ShadowNotPresentFault", "ShadowProtectionFault"}


@pytest.mark.parametrize("page_size", (FOUR_KB, TWO_MB), ids=("4K", "2M"))
def test_a_fault_that_moves_the_root_to_nested_is_seen_by_the_retry(page_size):
    """A guest fault inside a batch switches the guest root to nested.

    Touching regions in two fresh root slots makes the guest kernel
    write two new root entries; both are mediated, so the write policy
    moves the root to nested mode while the second fault is handled. The
    retry must walk with the re-read context (root switched); walking
    with the stale one misses the cleared shadow root until the livelock
    error.
    """
    system = System(sandy_bridge_config(mode="agile", page_size=page_size))
    api = MachineAPI(system)
    api.spawn()
    granule = page_size.bytes
    near = api.mmap(4 * granule)
    api.mmap(1 << 39)  # skip to the next root slot
    far1 = api.mmap(4 * granule)
    api.mmap(1 << 39)
    far2 = api.mmap(4 * granule)
    vas = [near + page * granule for page in range(4)]
    vas += [far1, far2, far1 + granule, far2 + granule, near]
    manager = system.vmm.states[api.current.pid].manager
    assert not manager.root_switched
    epoch_ops = system._epoch_ops
    assert epoch_ops + len(vas) < POLICY_EPOCH_OPS  # no epoch in the batch

    translated = api.access_many(vas, [True] * len(vas))

    assert manager.root_switched
    assert translated.frame is not None
    assert system.ops == len(vas)
