"""VMM policies: what degree of nesting to use (Section III-C).

Three decisions, exactly as the paper frames them:

* **shadow=>nested** (:class:`WriteTriggerPolicy`): page-table updates
  are bimodal within a time interval — one write, or many. Two mediated
  writes to the same guest PT page within the interval move that level
  and everything below it to nested mode ("a small threshold like the
  one used in branch predictors").
* **nested=>shadow** (:class:`SimpleReversionPolicy` /
  :class:`DirtyBitReversionPolicy`): periodically move quiescent parts
  back so TLB misses get cheap again. The simple policy reverts
  everything each interval; the dirty-bit policy scans host-PT dirty
  bits over the guest PT pages and reverts only untouched subtrees,
  parents before children.
* **short-lived processes** (:class:`ShortLivedPolicy`): start fully
  nested; enable shadow coverage only once the process has lived past a
  grace period with enough TLB-miss pressure to pay for shadowing.
"""

from repro.common.effects import policy_decision
from repro.obs.events import POLICY_PROMOTE, POLICY_TO_NESTED, POLICY_TO_SHADOW
from repro.vmm.shadowmgr import NODE_NESTED, NODE_SHADOW


class WriteTriggerPolicy:
    """Shadow=>nested trigger: N mediated writes within a window."""

    def __init__(self, threshold=2, interval=200_000):
        if threshold < 1:
            raise ValueError("write threshold must be >= 1")
        self.threshold = threshold
        self.interval = interval
        self._windows = {}  # node gfn -> (window_start, count)

    @policy_decision
    def note_write(self, manager, node_gfn, now):
        """Record a mediated write; switch the subtree when triggered.

        Returns True if the node was moved to nested mode.
        """
        start, count = self._windows.get(node_gfn, (now, 0))
        if now - start > self.interval:
            start, count = now, 0
        count += 1
        self._windows[node_gfn] = (start, count)
        if count >= self.threshold:
            del self._windows[node_gfn]
            return manager.switch_to_nested(node_gfn)
        return False


class SimpleReversionPolicy:
    """Nested=>shadow: revert everything every interval."""

    def __init__(self, interval=1_000_000):
        self.interval = interval
        self._last = 0

    @policy_decision
    def tick(self, manager, hostpt, now):
        """Returns the number of nodes reverted this tick."""
        if now - self._last < self.interval:
            return 0
        self._last = now
        return manager.revert_all()


class DirtyBitReversionPolicy:
    """Nested=>shadow: revert only quiescent subtrees, parents first.

    At each interval boundary the VMM inspects the host-PT dirty bits
    covering nested-mode guest PT pages: a clean page saw no guest
    writes during the interval and is a reversion candidate; a dirty
    page has its bit cleared so the next interval can observe it afresh.
    """

    def __init__(self, interval=1_000_000):
        self.interval = interval
        self._last = 0

    @policy_decision
    def tick(self, manager, hostpt, now):
        if now - self._last < self.interval:
            return 0
        self._last = now
        reverted = 0
        for gfn in manager.nested_node_gfns():  # top (root) level first
            meta = manager.node_meta.get(gfn)
            if meta is None or meta.mode != NODE_NESTED:
                continue
            if hostpt.is_dirty(gfn):
                hostpt.clear_dirty(gfn)
                continue
            parent_ok = (
                gfn == manager.root_gfn
                or manager.node_meta[meta.parent_gfn].mode == NODE_SHADOW
            )
            if parent_ok and manager.revert_to_shadow(gfn):
                reverted += 1
        return reverted


class NoReversionPolicy:
    """Ablation baseline: once nested, always nested."""

    @policy_decision
    def tick(self, manager, hostpt, now):
        return 0


class ShortLivedPolicy:
    """Start fully nested; enable agile shadowing if the process earns it."""

    def __init__(self, grace_cycles=500_000, miss_rate_threshold=5.0):
        self.grace_cycles = grace_cycles
        self.miss_rate_threshold = miss_rate_threshold
        self._birth = None
        self.decided = False

    @policy_decision
    def tick(self, manager, now, miss_rate_per_kop):
        """``miss_rate_per_kop``: recent TLB misses per 1000 operations
        (the paper reads this from hardware performance counters)."""
        if self.decided or not manager.fully_nested:
            self.decided = True
            return False
        if self._birth is None:
            self._birth = now
        if now - self._birth < self.grace_cycles:
            return False
        self.decided = True
        if miss_rate_per_kop >= self.miss_rate_threshold:
            manager.enable_shadow_coverage()
            return True
        return False


def make_reversion_policy(name, interval):
    """Factory keyed by PolicyConfig.revert_policy."""
    if name == "dirty":
        return DirtyBitReversionPolicy(interval)
    if name == "simple":
        return SimpleReversionPolicy(interval)
    if name == "none":
        return NoReversionPolicy()
    raise ValueError("unknown reversion policy %r" % (name,))


class ProcessPolicy:
    """Bundle of the three per-process policy mechanisms."""

    def __init__(self, config):
        self.write_trigger = WriteTriggerPolicy(
            config.write_threshold, config.write_interval
        )
        self.reversion = make_reversion_policy(
            config.revert_policy, config.revert_interval
        )
        self.short_lived = ShortLivedPolicy(
            config.grace_cycles, config.miss_rate_threshold
        )
        self.miss_rate_threshold = config.miss_rate_threshold
        self.switches_to_nested = 0
        self.reversions = 0
        # Observability: set by VMM.attach_tracer; decisions become
        # `policy` events when tracing.
        self.tracer = None
        self.pid = None

    def attach_tracer(self, tracer, pid):
        self.tracer = tracer
        self.pid = pid

    @policy_decision
    def note_write(self, manager, node_gfn, now):
        switched = self.write_trigger.note_write(manager, node_gfn, now)
        if switched:
            self.switches_to_nested += 1
            tracer = self.tracer
            if tracer is not None and tracer.enabled:
                meta = manager.node_meta.get(node_gfn)
                tracer.policy(now, POLICY_TO_NESTED, pid=self.pid,
                              node=node_gfn,
                              level=meta.level if meta is not None else None)
        return switched

    @policy_decision
    def tick(self, manager, hostpt, now, miss_rate_per_kop):
        promoted = self.short_lived.tick(manager, now, miss_rate_per_kop)
        tracer = self.tracer
        if promoted and tracer is not None and tracer.enabled:
            tracer.policy(now, POLICY_PROMOTE, pid=self.pid)
        # Section III-C: "programs with very few TLB misses should use
        # nested paging for the whole address space, as shadow mode has
        # no benefit" — without miss pressure, leave nested parts alone.
        if miss_rate_per_kop < self.miss_rate_threshold:
            return 0
        reverted = self.reversion.tick(manager, hostpt, now)
        self.reversions += reverted
        if reverted and tracer is not None and tracer.enabled:
            tracer.policy(now, POLICY_TO_SHADOW, pid=self.pid, count=reverted)
        return reverted
