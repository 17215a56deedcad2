"""The differential oracle: replay one scenario on N machines, compare.

The paper's central correctness claim (Sections III, Tables I-II) is
that nested, shadow, and agile paging are *behaviourally equivalent*
virtualizations of the same guest: every gVA translates to the same
frame, the guest-visible page tables (including A/D bits at the leaves)
evolve identically, and only the VMtrap sites and reference counts
differ — and those differ in provably ordered ways (agile traps at most
as often as pure shadow at every shadow-specific trap site).

This module checks exactly that, mechanically. A scenario's op stream
drives one :class:`ScenarioRunner` per translation mode in lockstep; the
oracle then cross-checks

* **fault counters** after every op — guest page faults, minor/COW
  faults, and protection violations must match exactly across modes;
* **guest leaf state** at the end — every present leaf PTE (frame,
  writable, accessed, dirty) must be identical across modes, with one
  documented relaxation: under agile + hardware A/D assist the *guest*
  dirty bit may lag (the shadow leaf carries it until the next sync),
  so assisted machines must show a subset of the reference dirty set;
* **trap-count ordering** — native traps never; nested traps only for
  host faults; shadow never host-faults; agile's shadow-site traps
  (pt_write, invlpg, dirty_sync, guest_fault_exit) never exceed pure
  shadow's, and agile's CR3 traps plus gCR3-cache hits equal shadow's
  CR3 traps exactly (Section IV);
* **the PR 1 invariant suite** — every machine runs paranoid, so scoped
  checks fire after every trap; the oracle adds periodic and final
  full sweeps;
* **end-to-end translation** — a final probe switches to each process
  and reads every mapped page, asserting the returned host frame equals
  the guest-frame composed through that machine's host table.

Anything that disagrees produces a :class:`Verdict` naming the check,
the op index, and the modes involved — the input to the shrinker.
"""

from repro.common.config import (
    EXTENDED_MODES,
    MODE_AGILE,
    sandy_bridge_config,
)
from repro.common.errors import SimulationError
from repro.common.params import PAGE_SIZES
from repro.core.machine import System
from repro.core.simulator import MachineAPI
from repro.guest.kernel import GuestProtectionError
from repro.guest.process import GuestSegfault
from repro.vmm.invariants import InvariantViolation
from repro.vmm.traps import (
    CONTEXT_SWITCH,
    CR3_CACHE_HIT,
    DIRTY_SYNC,
    GUEST_FAULT_EXIT,
    HOST_FAULT,
    INVLPG,
    PT_WRITE,
)

DEFAULT_MODES = ("native", "nested", "shadow", "agile")

# Registry caps: identical to the generator's (see scenario.py), but the
# interpreter re-checks every one so arbitrary op subsequences stay valid.
MAX_PROCS = 6
MAX_REGIONS = 12

# Big-granule clamps: a 2M guest page costs 512 frames, so region and
# code sizes shrink (deterministically, per page size — every mode of a
# given page size sees the same clamp) to fit guest-physical memory.
_CODE_PAGES_SMALL = 4
_CODE_PAGES_BIG = 2
_PAGES_CAP_BIG = 4

# Shadow-site trap kinds where agile must trap at most as often as pure
# shadow (it only mediates the subtree still in shadow mode).
AGILE_LE_SHADOW_KINDS = (
    PT_WRITE, INVLPG, DIRTY_SYNC, CONTEXT_SWITCH, GUEST_FAULT_EXIT)


def build_system(mode, page_size="4K", paranoid=True, **overrides):
    """One machine for the oracle: a Table III config, paranoid by default."""
    if isinstance(page_size, str):
        if page_size not in PAGE_SIZES:
            raise ValueError("unknown page size %r (have: %s)"
                             % (page_size, ", ".join(sorted(PAGE_SIZES))))
        page_size = PAGE_SIZES[page_size]
    if mode not in EXTENDED_MODES:
        raise ValueError("unknown mode %r (have: %s)"
                         % (mode, ", ".join(EXTENDED_MODES)))
    config = sandy_bridge_config(mode=mode, page_size=page_size,
                                 paranoid=paranoid, **overrides)
    return System(config)


class _Region:
    """One registry entry: a live mmap'd region of one live process."""

    __slots__ = ("proc", "base", "pages", "writable")

    def __init__(self, proc, base, pages, writable):
        self.proc = proc
        self.base = base
        self.pages = pages
        self.writable = writable


class ScenarioRunner:
    """Interprets scenario ops against one :class:`System`.

    Every op is *total*: slot indices resolve modulo the live count, and
    ops whose preconditions fail (spawn at the proc cap, munmap with no
    regions) are counted as skips rather than errors. Given the same op
    stream, every runner — whatever its translation mode — performs the
    identical sequence of kernel calls, which is what makes the final
    guest state comparable bit-for-bit.
    """

    def __init__(self, system):
        self.system = system
        self.api = MachineAPI(system)
        self.kernel = system.kernel
        self.granule = system.config.page_size.bytes
        self._small = self.granule == 4096
        self.applied = 0
        self.skipped = 0
        self.prot_violations = 0
        self.procs = [self.api.spawn(code_pages=self._code_pages())]
        self.regions = []

    # -- sizing ---------------------------------------------------------------

    def _code_pages(self):
        return _CODE_PAGES_SMALL if self._small else _CODE_PAGES_BIG

    def _clamp_pages(self, pages):
        pages = max(1, pages)
        if self._small:
            return pages
        return (pages - 1) % _PAGES_CAP_BIG + 1

    # -- the op interpreter ---------------------------------------------------

    def apply(self, op):
        """Apply one op; returns True if applied, False if skipped."""
        handler = getattr(self, "_op_" + op["op"], None)
        if handler is None:
            raise SimulationError("unknown scenario op %r" % (op["op"],))
        if handler(op):
            self.applied += 1
            return True
        self.skipped += 1
        return False

    def run(self, scenario):
        for op in scenario.ops:
            self.apply(op)

    def _op_spawn(self, op):
        if len(self.procs) >= MAX_PROCS:
            return False
        self.procs.append(self.api.spawn(code_pages=self._code_pages()))
        return True

    def _op_exit(self, op):
        if len(self.procs) <= 1:
            return False
        proc = self.procs.pop(op["proc"] % len(self.procs))
        self.regions = [r for r in self.regions if r.proc is not proc]
        self.api.exit(proc)
        return True

    def _op_exec(self, op):
        slot = op["proc"] % len(self.procs)
        old = self.procs[slot]
        self.regions = [r for r in self.regions if r.proc is not old]
        self.api.exit(old)
        self.procs[slot] = self.api.spawn(code_pages=self._code_pages())
        return True

    def _op_switch(self, op):
        self.api.switch_to(self.procs[op["proc"] % len(self.procs)])
        return True

    def _op_mmap(self, op):
        if len(self.regions) >= MAX_REGIONS:
            return False
        proc = self.procs[op["proc"] % len(self.procs)]
        pages = self._clamp_pages(op["pages"])
        base = self.api.mmap(pages * self.granule, writable=op["writable"],
                             populate=op["populate"], proc=proc)
        self.regions.append(_Region(proc, base, pages, op["writable"]))
        return True

    def _op_munmap(self, op):
        if not self.regions:
            return False
        region = self.regions.pop(op["region"] % len(self.regions))
        self.api.munmap(region.base, region.pages * self.granule,
                        proc=region.proc)
        return True

    def _op_protect(self, op):
        if not self.regions:
            return False
        region = self.regions[op["region"] % len(self.regions)]
        self.api.mprotect(region.base, region.pages * self.granule,
                          op["writable"], proc=region.proc)
        region.writable = op["writable"]
        return True

    def _op_touch(self, op):
        if not self.regions:
            return False
        region = self.regions[op["region"] % len(self.regions)]
        self._access(region, op["page"], op["write"])
        return True

    def _op_burst(self, op):
        if not self.regions:
            return False
        region = self.regions[op["region"] % len(self.regions)]
        for step in range(min(op["count"], 256)):
            self._access(region, op["start"] + step, op["write"])
        return True

    def _op_fork(self, op):
        if len(self.procs) >= MAX_PROCS:
            return False
        parent = self.procs[op["proc"] % len(self.procs)]
        child = self.api.fork(parent)
        self.procs.append(child)
        for region in [r for r in self.regions if r.proc is parent]:
            self.regions.append(
                _Region(child, region.base, region.pages, region.writable))
        return True

    def _op_dedup(self, op):
        if not self.regions:
            return False
        region = self.regions[op["region"] % len(self.regions)]
        self.api.dedup(region.base, region.pages * self.granule,
                       group=max(2, op.get("group", 2)), proc=region.proc)
        return True

    def _op_reclaim(self, op):
        proc = self.procs[op["proc"] % len(self.procs)]
        # precise_aging: follow each accessed-bit clear with an INVLPG so
        # aging is TLB-exact and accessed bits stay identical across modes.
        self.api.reclaim(max(1, op["pages"]), proc=proc, precise_aging=True)
        return True

    def _op_settle(self, op):
        self.api.settle(max(1, op["intervals"]))
        return True

    def _op_flush(self, op):
        self.kernel.platform.flush_tlb(self.procs[op["proc"] % len(self.procs)])
        return True

    def _access(self, region, page, write):
        if self.kernel.current is not region.proc:
            self.api.switch_to(region.proc)
        va = region.base + (page % region.pages) * self.granule
        try:
            self.api.access(va, is_write=write)
        except GuestProtectionError:
            # Deterministic across modes: same VMA protections, same op.
            self.prot_violations += 1

    # -- state the oracle compares --------------------------------------------

    def fault_counters(self):
        """Cheap per-op comparable state: guest-side fault accounting."""
        return {
            "guest_faults": self.system.guest_faults,
            "minor_faults": sum(p.minor_faults for p in self.procs),
            "cow_faults": sum(p.cow_faults for p in self.procs),
            "prot_violations": self.prot_violations,
            "skipped_ops": self.skipped,
        }

    def leaf_snapshot(self):
        """Guest-visible leaf PTE state per live process, in slot order.

        Only *leaf* entries are compared: interior accessed bits
        legitimately diverge (a nested walk sets them on every level, a
        shadow fill does not touch interior guest entries).
        """
        snapshot = []
        for proc in self.procs:
            leaves = {}
            for va, pte, _level in proc.page_table.iter_leaves():
                if pte.present:
                    leaves[va] = (pte.frame, pte.writable,
                                  pte.accessed, pte.dirty)
            snapshot.append(leaves)
        return snapshot

    def trap_counts(self):
        vmm = self.system.vmm
        return dict(vmm.traps.counts) if vmm is not None else {}

    def check_all(self):
        """Full paranoid invariant sweep of this machine, if enabled."""
        self.system.check_invariants()

    @property
    def dirty_may_lag(self):
        """Under agile + hw A/D assist the guest dirty bit can trail the
        shadow leaf's until the next sync (Section IV)."""
        config = self.system.config
        return config.mode == MODE_AGILE and config.hw_ad_assist


class Verdict:
    """The oracle's judgement on one scenario run."""

    def __init__(self, ok, check=None, op_index=None, modes=(), detail=None,
                 context=None):
        self.ok = ok
        self.check = check
        self.op_index = op_index
        self.modes = tuple(modes)
        self.detail = detail
        self.context = dict(context) if context else {}

    @classmethod
    def passed(cls):
        return cls(ok=True)

    @classmethod
    def failed(cls, check, detail, op_index=None, modes=(), context=None):
        return cls(ok=False, check=check, op_index=op_index, modes=modes,
                   detail=detail, context=context)

    def __bool__(self):
        return self.ok

    def __repr__(self):
        if self.ok:
            return "Verdict(ok)"
        return "Verdict(FAIL %s @op %s, modes=%s: %s)" % (
            self.check, self.op_index, ",".join(self.modes), self.detail)

    def to_dict(self):
        data = {"ok": self.ok}
        if not self.ok:
            data.update({"check": self.check, "op_index": self.op_index,
                         "modes": list(self.modes), "detail": self.detail})
            if self.context:
                data["context"] = self.context
        return data

    @classmethod
    def from_dict(cls, data):
        return cls(ok=data["ok"], check=data.get("check"),
                   op_index=data.get("op_index"),
                   modes=data.get("modes", ()), detail=data.get("detail"),
                   context=data.get("context"))


class DifferentialOracle:
    """Runs one scenario on several machines in lockstep and cross-checks.

    ``modes[0]`` is the reference machine (keep ``native`` there: it has
    exact A/D semantics and no VMM). ``compare_every`` is the op period
    of the cheap fault-counter cross-check; ``full_check_every`` the op
    period of the full paranoid invariant sweep (per machine).
    ``config_overrides`` reach every machine's ``MachineConfig`` — e.g.
    ``hw_ad_assist=False`` fuzzes the no-assist design point.
    """

    def __init__(self, modes=DEFAULT_MODES, page_size="4K", paranoid=True,
                 compare_every=1, full_check_every=64, **config_overrides):
        if not modes:
            raise ValueError("need at least one mode")
        for mode in modes:
            if mode not in EXTENDED_MODES:
                raise ValueError("unknown mode %r (have: %s)"
                                 % (mode, ", ".join(EXTENDED_MODES)))
        self.modes = tuple(modes)
        self.page_size = page_size
        self.paranoid = paranoid
        self.compare_every = compare_every
        self.full_check_every = full_check_every
        self.config_overrides = dict(config_overrides)

    def options(self):
        """JSON-safe constructor arguments, for reproducer files."""
        data = {"modes": list(self.modes), "page_size": str(self.page_size),
                "paranoid": self.paranoid,
                "compare_every": self.compare_every,
                "full_check_every": self.full_check_every}
        data.update(self.config_overrides)
        return data

    @classmethod
    def from_options(cls, data):
        data = dict(data)
        modes = tuple(data.pop("modes", DEFAULT_MODES))
        return cls(modes=modes, **data)

    # -- running --------------------------------------------------------------

    def run(self, scenario):
        """Replay ``scenario`` on every mode; returns a :class:`Verdict`."""
        try:
            runners = [(mode, ScenarioRunner(build_system(
                mode, self.page_size, paranoid=self.paranoid,
                **self.config_overrides))) for mode in self.modes]
        except SimulationError as exc:
            return Verdict.failed("setup", str(exc), modes=self.modes)

        for index, op in enumerate(scenario.ops):
            verdict = self._step(runners, index, op)
            if verdict is not None:
                return verdict

        last = len(scenario.ops) - 1 if scenario.ops else None
        for stage in (self._sweep_invariants, self._compare_counters,
                      self._compare_snapshots, self._check_trap_relations,
                      self._probe):
            verdict = stage(runners, last)
            if verdict is not None:
                return verdict
        return Verdict.passed()

    def _step(self, runners, index, op):
        for mode, runner in runners:
            try:
                runner.apply(op)
            except InvariantViolation as exc:
                return Verdict.failed("invariant", str(exc), op_index=index,
                                      modes=(mode,), context=exc.to_dict())
            except (SimulationError, GuestSegfault) as exc:
                return Verdict.failed(
                    "exception", "%s: %s" % (type(exc).__name__, exc),
                    op_index=index, modes=(mode,))
        if self.compare_every and (index + 1) % self.compare_every == 0:
            verdict = self._compare_counters(runners, index)
            if verdict is not None:
                return verdict
        if (self.paranoid and self.full_check_every
                and (index + 1) % self.full_check_every == 0):
            return self._sweep_invariants(runners, index)
        return None

    # -- checks (each returns a failed Verdict or None) -----------------------

    def _sweep_invariants(self, runners, index):
        for mode, runner in runners:
            try:
                runner.check_all()
            except InvariantViolation as exc:
                return Verdict.failed("invariant", str(exc), op_index=index,
                                      modes=(mode,), context=exc.to_dict())
        return None

    def _compare_counters(self, runners, index):
        _ref_mode, ref = runners[0]
        expected = ref.fault_counters()
        for mode, runner in runners[1:]:
            actual = runner.fault_counters()
            if actual != expected:
                diffs = {key: (expected[key], actual[key])
                         for key in expected if expected[key] != actual[key]}
                return Verdict.failed(
                    "fault-counters",
                    "fault accounting diverged: %s" % (diffs,),
                    op_index=index, modes=(runners[0][0], mode),
                    context={"expected": expected, "actual": actual})
        return None

    def _compare_snapshots(self, runners, index):
        ref_mode, ref = runners[0]
        reference = ref.leaf_snapshot()
        for mode, runner in runners[1:]:
            snapshot = runner.leaf_snapshot()
            if len(snapshot) != len(reference):
                return Verdict.failed(
                    "leaf-state", "process count diverged: %d vs %d"
                    % (len(reference), len(snapshot)),
                    op_index=index, modes=(ref_mode, mode))
            lag_ok = runner.dirty_may_lag
            for slot, (want, have) in enumerate(zip(reference, snapshot)):
                verdict = self._compare_proc_leaves(
                    slot, want, have, lag_ok, (ref_mode, mode), index)
                if verdict is not None:
                    return verdict
        return None

    @staticmethod
    def _compare_proc_leaves(slot, want, have, lag_ok, modes, index):
        if set(want) != set(have):
            missing = sorted(set(want) - set(have))[:4]
            extra = sorted(set(have) - set(want))[:4]
            return Verdict.failed(
                "leaf-state",
                "proc slot %d mapped-set diverged (missing=%s extra=%s)"
                % (slot, [hex(v) for v in missing], [hex(v) for v in extra]),
                op_index=index, modes=modes)
        for va in sorted(want):
            w_frame, w_writable, w_accessed, w_dirty = want[va]
            h_frame, h_writable, h_accessed, h_dirty = have[va]
            if (w_frame, w_writable, w_accessed) != (h_frame, h_writable,
                                                     h_accessed):
                return Verdict.failed(
                    "leaf-state",
                    "proc slot %d va %#x leaf diverged: "
                    "frame/writable/accessed %s vs %s"
                    % (slot, va, (w_frame, w_writable, w_accessed),
                       (h_frame, h_writable, h_accessed)),
                    op_index=index, modes=modes)
            if w_dirty != h_dirty:
                # Assist machines may *lag* (miss a dirty the reference
                # has) but must never invent one the reference lacks.
                if not (lag_ok and w_dirty and not h_dirty):
                    return Verdict.failed(
                        "leaf-state",
                        "proc slot %d va %#x dirty bit diverged: %s vs %s"
                        "%s" % (slot, va, w_dirty, h_dirty,
                                " (lag allowed only ref->machine)"
                                if lag_ok else ""),
                        op_index=index, modes=modes)
        return None

    def _check_trap_relations(self, runners, index):
        counts = {mode: runner.trap_counts() for mode, runner in runners}
        checks = []
        if "native" in counts:
            checks.append(self._relation(
                not counts["native"], "native must never trap",
                ("native",), counts, index))
        if "nested" in counts:
            bad = sorted(k for k, v in counts["nested"].items()
                         if v and k != HOST_FAULT)
            checks.append(self._relation(
                not bad, "nested may trap only for host faults, saw %s" % bad,
                ("nested",), counts, index))
        if "shadow" in counts:
            shadow = counts["shadow"]
            checks.append(self._relation(
                not shadow.get(HOST_FAULT), "shadow must never host-fault",
                ("shadow",), counts, index))
            checks.append(self._relation(
                not shadow.get(CR3_CACHE_HIT),
                "pure shadow has no gCR3 cache", ("shadow",), counts, index))
        if "agile" in counts and "shadow" in counts:
            agile, shadow = counts["agile"], counts["shadow"]
            for kind in AGILE_LE_SHADOW_KINDS:
                checks.append(self._relation(
                    agile.get(kind, 0) <= shadow.get(kind, 0),
                    "agile %s traps (%d) exceed pure shadow's (%d)"
                    % (kind, agile.get(kind, 0), shadow.get(kind, 0)),
                    ("agile", "shadow"), counts, index))
            # Section IV: every guest CR3 write traps under pure shadow;
            # under agile it either traps or hits the gCR3 cache.
            checks.append(self._relation(
                agile.get(CONTEXT_SWITCH, 0) + agile.get(CR3_CACHE_HIT, 0)
                == shadow.get(CONTEXT_SWITCH, 0),
                "agile ctx traps (%d) + gCR3 hits (%d) != shadow ctx traps "
                "(%d)" % (agile.get(CONTEXT_SWITCH, 0),
                          agile.get(CR3_CACHE_HIT, 0),
                          shadow.get(CONTEXT_SWITCH, 0)),
                ("agile", "shadow"), counts, index))
        if "agile" in counts and "nested" in counts:
            checks.append(self._relation(
                counts["agile"].get(HOST_FAULT, 0)
                <= counts["nested"].get(HOST_FAULT, 0),
                "agile host faults (%d) exceed nested's (%d)"
                % (counts["agile"].get(HOST_FAULT, 0),
                   counts["nested"].get(HOST_FAULT, 0)),
                ("agile", "nested"), counts, index))
        for verdict in checks:
            if verdict is not None:
                return verdict
        return None

    @staticmethod
    def _relation(holds, message, modes, counts, index):
        if holds:
            return None
        return Verdict.failed(
            "trap-relation", message, op_index=index, modes=modes,
            context={mode: counts[mode] for mode in modes})

    def _probe(self, runners, index):
        """End-to-end translation check: read back every mapped page."""
        for mode, runner in runners:
            vmm = runner.system.vmm
            for proc in runner.procs:
                targets = [(va, pte.frame)
                           for va, pte, _level in proc.page_table.iter_leaves()
                           if pte.present]
                if not targets:
                    continue
                try:
                    runner.api.switch_to(proc)
                except SimulationError as exc:
                    return Verdict.failed(
                        "probe", "switch failed: %s" % exc,
                        op_index=index, modes=(mode,))
                for va, gfn in targets:
                    try:
                        outcome = runner.api.read(va)
                    except SimulationError as exc:
                        return Verdict.failed(
                            "probe", "read of %#x failed: %s" % (va, exc),
                            op_index=index, modes=(mode,))
                    # Translate *after* the read: the read itself may
                    # demand-fault the host mapping into existence.
                    expected = gfn if vmm is None else vmm.hostpt.translate(gfn)
                    if outcome.frame != expected:
                        return Verdict.failed(
                            "probe",
                            "va %#x translated to frame %r, composed "
                            "tables say %r (gfn %#x)"
                            % (va, outcome.frame, expected, gfn),
                            op_index=index, modes=(mode,))
        return None
