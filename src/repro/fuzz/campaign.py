"""Fuzz campaigns: fan differential-oracle cases across the sweep pool.

A campaign turns (seed range x page sizes) into :class:`FuzzCaseSpec`
cells and runs them through the PR 2 :class:`SweepRunner` — the same
process-per-cell pool, timeout, retry, and shard machinery the
experiment sweeps use, just with :func:`execute_fuzz_case` as the
executor. A case is pure compute on its spec (the scenario is
*regenerated* from (seed, profile, ops) inside the worker), so results
are deterministic regardless of scheduling.

When a case fails, the campaign closes the loop in-process:

1. regenerate the scenario and re-judge it (capturing the verdict),
2. delta-debug it down to a minimal op sequence (:mod:`repro.fuzz.shrink`),
3. write a replayable reproducer case into the corpus directory
   (:mod:`repro.fuzz.corpus`), and
4. capture a PR 3 ``obs`` trace of the failing machine replaying the
   *shrunk* scenario, written next to the reproducer.

``repro fuzz`` is the CLI face of this module.
"""

import time
from dataclasses import dataclass, field

from repro.fuzz import corpus as corpus_mod
from repro.fuzz.oracle import DEFAULT_MODES, DifferentialOracle, build_system
from repro.fuzz.scenario import ScenarioGenerator
from repro.fuzz.shrink import shrink
from repro.runner.sweep import SweepRunner, shard_cells


def _wall_time():
    """Wall clock for the campaign time budget; harness-only, never fed
    back into simulated results."""
    return time.monotonic()  # lint: disable=unseeded-random


@dataclass(frozen=True)
class FuzzCaseSpec:
    """One oracle cell: everything a worker needs to regenerate and judge.

    Hashable/picklable; ``options`` are extra
    :class:`~repro.fuzz.oracle.DifferentialOracle` keyword arguments
    (``paranoid``, ``compare_every``, config overrides like
    ``hw_ad_assist``) as a sorted tuple of (key, value) pairs so the
    spec stays frozen and its key deterministic.
    """

    seed: int
    ops: int
    profile: str = "default"
    page_size: str = "4K"
    modes: tuple = DEFAULT_MODES
    options: tuple = ()

    @staticmethod
    def freeze_options(options):
        return tuple(sorted((options or {}).items()))

    def oracle_kwargs(self):
        return dict(self.options)

    def build_oracle(self):
        return DifferentialOracle(modes=self.modes, page_size=self.page_size,
                                  **self.oracle_kwargs())

    def build_scenario(self):
        return ScenarioGenerator(self.profile).generate(self.seed, self.ops)

    def describe(self):
        return "fuzz/s%d/%s/%dops/%s/%s" % (
            self.seed, self.profile, self.ops, self.page_size,
            "+".join(self.modes))

    def cell_key(self):
        import hashlib
        import json

        return hashlib.sha256(
            json.dumps(self.to_dict(), sort_keys=True).encode("utf-8")
        ).hexdigest()

    def to_dict(self):
        return {"seed": self.seed, "ops": self.ops, "profile": self.profile,
                "page_size": self.page_size, "modes": list(self.modes),
                "options": [list(pair) for pair in self.options]}

    @classmethod
    def from_dict(cls, data):
        return cls(seed=data["seed"], ops=data["ops"],
                   profile=data["profile"], page_size=data["page_size"],
                   modes=tuple(data["modes"]),
                   options=tuple((k, v) for k, v in data["options"]))


@dataclass
class FuzzCaseResult:
    """What one worker reports back: the spec and its verdict."""

    spec: dict
    ok: bool
    verdict: dict

    def to_dict(self):
        return {"spec": self.spec, "ok": self.ok, "verdict": self.verdict}

    @classmethod
    def from_dict(cls, data):
        return cls(spec=data["spec"], ok=data["ok"], verdict=data["verdict"])

    def summary(self):
        return self.to_dict()


def execute_fuzz_case(spec, trace=False):
    """Module-level executor for :class:`SweepRunner` workers."""
    verdict = spec.build_oracle().run(spec.build_scenario())
    result = FuzzCaseResult(spec=spec.to_dict(), ok=verdict.ok,
                            verdict=verdict.to_dict())
    if trace:
        return result, None  # failing-case traces are captured post-shrink
    return result


@dataclass
class FuzzFailure:
    """One fully processed failure: verdict, reproducer, telemetry."""

    spec: object
    verdict: dict = None
    error: str = None
    reproducer: str = None
    trace: str = None
    shrunk_ops: int = None
    evaluations: int = 0

    def summary(self):
        row = {"cell": self.spec.describe()}
        if self.verdict is not None:
            row["verdict"] = self.verdict
        if self.error is not None:
            row["error"] = self.error
        if self.reproducer is not None:
            row["reproducer"] = self.reproducer
        if self.trace is not None:
            row["trace"] = self.trace
        if self.shrunk_ops is not None:
            row["shrunk_ops"] = self.shrunk_ops
        return row


@dataclass
class CampaignReport:
    """Outcome of one campaign run."""

    cases: int = 0
    clean: int = 0
    failures: list = field(default_factory=list)
    elapsed: float = 0.0
    budget_exhausted: bool = False

    @property
    def ok(self):
        return not self.failures

    def summary(self):
        return {
            "schema": 1,
            "cases": self.cases,
            "clean": self.clean,
            "failed": len(self.failures),
            "elapsed": round(self.elapsed, 3),
            "budget_exhausted": self.budget_exhausted,
            "failures": [f.summary() for f in self.failures],
        }


class FuzzCampaign:
    """Drive many specs through the pool; shrink and persist failures.

    ``corpus_dir`` receives one reproducer JSON (+ ``.trace.json``
    telemetry) per failure. ``shrink_budget`` caps oracle evaluations
    per failure during delta-debugging; ``do_shrink=False`` records the
    full-size scenario instead. ``time_budget`` (seconds) stops
    dispatching new waves once exceeded — cases already dispatched
    still finish, so a budget overrun never truncates a case mid-run.
    """

    def __init__(self, corpus_dir=None, workers=1, timeout=None,
                 shrink_budget=200, do_shrink=True, capture_traces=True,
                 time_budget=None, progress=None, mp_context=None):
        self.corpus_dir = corpus_dir
        self.workers = workers
        self.timeout = timeout
        self.shrink_budget = shrink_budget
        self.do_shrink = do_shrink
        self.capture_traces = capture_traces
        self.time_budget = time_budget
        self.progress = progress
        self.mp_context = mp_context

    def run(self, specs, shard=None):
        started = _wall_time()
        report = CampaignReport()
        runner = SweepRunner(
            workers=self.workers, cache=None, timeout=self.timeout,
            retries=0, progress=None, mp_context=self.mp_context,
            executor=execute_fuzz_case, decode=FuzzCaseResult.from_dict)
        remaining = list(specs)
        if shard is not None:
            # Pre-filter instead of sharding per wave: shard assignment
            # hashes only the cell key, so filtering the whole grid up
            # front selects exactly the cells per-wave sharding would —
            # and campaign-wide progress (done/total, ETA) stays honest.
            k, n = shard
            keep = {s.cell_key() for s in shard_cells(remaining, n)[k]}
            remaining = [s for s in remaining if s.cell_key() in keep]
        total = len(remaining)
        wave_size = max(4, 4 * self.workers)
        while remaining:
            if (self.time_budget is not None and report.cases
                    and _wall_time() - started >= self.time_budget):
                report.budget_exhausted = True
                break
            wave, remaining = remaining[:wave_size], remaining[wave_size:]
            runner.progress = self._wave_progress(report.cases, total, started)
            sweep = runner.run(wave)
            for cell in sweep:
                report.cases += 1
                if cell.succeeded and cell.metrics.ok:
                    report.clean += 1
                else:
                    report.failures.append(self._process_failure(cell))
        report.elapsed = _wall_time() - started
        return report

    def _wave_progress(self, done_base, total, started):
        """Lift per-wave runner progress to campaign-cumulative events.

        The runner reports done/total *within its wave*; callers want
        campaign-wide counts and an ETA over the full grid, so rebase
        the counters and recompute rate/ETA from the campaign clock.
        """
        if self.progress is None:
            return None

        def report(event):
            event = dict(event)
            event["done"] = done_base + event["done"]
            event["total"] = total
            wall = _wall_time() - started
            if wall > 0:
                rate = event["done"] / wall
                event["rate"] = rate
                event["eta"] = ((total - event["done"]) / rate
                                if rate > 0 else None)
            self.progress(event)

        return report

    # -- failure handling -----------------------------------------------------

    def _process_failure(self, cell):
        spec = cell.spec
        failure = FuzzFailure(spec=spec)
        if cell.metrics is not None:
            failure.verdict = cell.metrics.verdict
        else:
            failure.error = cell.error
        oracle = spec.build_oracle()
        scenario = spec.build_scenario()
        if self.do_shrink:
            scenario, failure.evaluations = shrink(
                scenario, lambda s: self._still_fails(oracle, s),
                budget=self.shrink_budget)
        failure.shrunk_ops = len(scenario.ops)
        verdict = self._judge(oracle, scenario)
        if verdict is not None:
            failure.verdict = verdict.to_dict()
        if self.corpus_dir is not None:
            case = corpus_mod.make_case(
                scenario, oracle, failure=verdict,
                note="found by fuzz campaign: %s" % spec.describe())
            failure.reproducer = corpus_mod.save_case(self.corpus_dir, case)
            if self.capture_traces:
                failure.trace = self._write_trace(
                    failure.reproducer, spec, scenario, verdict)
        return failure

    @staticmethod
    def _still_fails(oracle, scenario):
        try:
            return not oracle.run(scenario).ok
        except Exception:
            # A crash while replaying is as much a failure as a verdict.
            return True

    @staticmethod
    def _judge(oracle, scenario):
        try:
            return oracle.run(scenario)
        except Exception:
            return None

    def _write_trace(self, reproducer_path, spec, scenario, verdict):
        """Replay the shrunk scenario on the failing machine under the
        PR 3 tracer and persist the obs payload next to the reproducer."""
        import json

        from repro.fuzz.oracle import ScenarioRunner
        from repro.obs import IntervalRecorder, Tracer
        from repro.obs.exporters import trace_payload

        modes = (verdict.modes if verdict is not None and verdict.modes
                 else spec.modes)
        mode = modes[-1]
        kwargs = spec.oracle_kwargs()
        overrides = {k: v for k, v in kwargs.items()
                     if k not in ("paranoid", "compare_every",
                                  "full_check_every")}
        tracer, recorder = Tracer(), IntervalRecorder(every=256)
        try:
            system = build_system(mode, spec.page_size,
                                  paranoid=kwargs.get("paranoid", True),
                                  **overrides)
            system.attach_observability(tracer=tracer, recorder=recorder)
            ScenarioRunner(system).run(scenario)
        except Exception:
            pass  # the trace up to the failure is exactly what we want
        path = reproducer_path[:-len(".json")] + ".trace.json"
        payload = trace_payload(tracer, recorder)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, sort_keys=True,
                      separators=(",", ":"))
        return path


def specs_for(seeds, ops, profile="default", page_sizes=("4K",),
              modes=DEFAULT_MODES, options=None):
    """The campaign grid: one spec per (seed, page size)."""
    frozen = FuzzCaseSpec.freeze_options(options)
    return [FuzzCaseSpec(seed=seed, ops=ops, profile=profile,
                         page_size=page_size, modes=tuple(modes),
                         options=frozen)
            for seed in seeds for page_size in page_sizes]
