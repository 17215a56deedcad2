"""Command-line interface: ``python -m repro <command>``.

Commands::

    list         workloads and paging modes
    run          one workload under one configuration
    compare      one workload under every mode (incl. the SHSP baseline)
    figure5      the full Figure 5 grid
    table6       Table VI (agile miss mix, no PWCs)
    tables       Tables I / II / III (architecture-level reproductions)
    sweep        run a (workloads x modes x page sizes) experiment grid
                 through the parallel runner: worker pool, on-disk result
                 cache, per-cell timeout/retry, deterministic sharding,
                 progress lines, JSON summary, per-cell --trace-dir
    policy-sweep sweep one VMM policy knob and report the effect
    trace        run one workload under the tracer; emit JSONL events
                 and/or a Perfetto trace JSON
    profile      run one workload and print its cycle flamegraph
    lint         run the project's static sanitizer over source trees
    fuzz         differential fuzzing: run seeded random guest histories
                 through the cross-mode equivalence oracle (sharded over
                 the runner pool), shrink failures to minimal reproducers,
                 or --replay corpus cases
    bench        run the registered benchmarks/bench_*.py targets through
                 the repro.bench harness; write schema-versioned
                 BENCH_*.json reports and, with --compare, gate against a
                 committed baseline

Every command prints paper-style tables to stdout; progress and
diagnostic noise goes to stderr, so machine-readable output (``sweep
--json -``, ``trace --events -``) pipes cleanly. Bad arguments exit
non-zero.
"""

import argparse
import sys
from dataclasses import replace

from repro.common.config import EXTENDED_MODES, MODE_AGILE, sandy_bridge_config
from repro.common.params import PAGE_SIZES
from repro.core.machine import System
from repro.core.simulator import Simulator
from repro.fuzz.scenario import PROFILES
from repro.workloads.suite import PAPER_FOOTPRINTS, SUITE


def _workload_classes():
    return {cls.name: cls for cls in SUITE}


def _throughput_suffix(event):
    """Progress-line tail from a runner/campaign heartbeat event.

    ``" | 3.2/s eta 12s [shard 0/4]"`` when the event carries rate/ETA
    (and shard) keys; empty otherwise, so old-style events still format.
    """
    parts = ""
    rate = event.get("rate")
    if rate is not None:
        parts += " | %.1f/s" % rate
        eta = event.get("eta")
        if eta is not None:
            parts += " eta %.0fs" % eta
    shard = event.get("shard")
    if shard is not None:
        parts += " [shard %s]" % shard
    return parts


def _build_config(args):
    page_size = PAGE_SIZES[args.page_size]
    overrides = {}
    if getattr(args, "no_pwc", False):
        base = sandy_bridge_config()
        overrides["pwc"] = replace(base.pwc, enabled=False)
    if getattr(args, "no_ad_assist", False):
        overrides["hw_ad_assist"] = False
    if getattr(args, "no_cr3_cache", False):
        overrides["hw_cr3_cache"] = False
    if getattr(args, "paranoid", False):
        overrides["paranoid"] = True
    return sandy_bridge_config(mode=args.mode, page_size=page_size, **overrides)


def _metrics_row(metrics):
    return (
        metrics.label,
        metrics.mode,
        str(metrics.page_size),
        metrics.ops,
        metrics.tlb_misses,
        "%.2f" % metrics.avg_refs_per_miss,
        metrics.vmtraps,
        "%.1f%%" % (100 * metrics.page_walk_overhead),
        "%.1f%%" % (100 * metrics.vmm_overhead),
    )


METRICS_HEADERS = ("workload", "mode", "page", "ops", "misses",
                   "refs/miss", "traps", "walk", "vmm")


def cmd_list(_args, out, _err):
    from repro.analysis.tables import format_table

    rows = [(cls.name, PAPER_FOOTPRINTS[cls.name], "%d MB" % cls.footprint_mb,
             cls.description) for cls in SUITE]
    print(format_table(("workload", "paper footprint", "scaled", "description"),
                       rows, title="Workloads"), file=out)
    print("\nModes: %s" % ", ".join(EXTENDED_MODES), file=out)
    return 0


def cmd_run(args, out, _err):
    from repro.analysis.tables import format_table

    cls = _workload_classes()[args.workload]
    config = _build_config(args)
    metrics = Simulator(System(config)).run(
        cls(ops=args.ops, page_size=config.page_size))
    print(format_table(METRICS_HEADERS, [_metrics_row(metrics)]), file=out)
    if args.verbose:
        print("\ntrap counts: %r" % (metrics.trap_counts,), file=out)
        mix = metrics.mode_mix()
        if mix:
            print("miss mix:    %s" % "  ".join(
                "%s=%.1f%%" % (k, 100 * v) for k, v in mix.items()), file=out)
    return 0


def cmd_compare(args, out, _err):
    from repro.analysis.tables import format_table

    cls = _workload_classes()[args.workload]
    rows = []
    for mode in args.modes:
        run_args = argparse.Namespace(**{**vars(args), "mode": mode})
        config = _build_config(run_args)
        metrics = Simulator(System(config)).run(
            cls(ops=args.ops, page_size=config.page_size))
        rows.append(_metrics_row(metrics))
    print(format_table(METRICS_HEADERS, rows,
                       title="%s under each paging mode" % args.workload),
          file=out)
    return 0


def cmd_figure5(args, out, _err):
    from repro.analysis.experiments import figure5, headline_summary
    from repro.analysis.plots import render_figure5
    from repro.analysis.tables import figure5_rows, format_table

    names = set(args.workloads) if args.workloads else None
    results = figure5(ops=args.ops, workload_names=names)
    print(format_table(("Workload", "Config", "Page walk", "VMM", "Total"),
                       figure5_rows(results), title="Figure 5"), file=out)
    if args.chart:
        print("", file=out)
        print(render_figure5(results, "4K"), file=out)
    _rows, summary = headline_summary(results)
    print("\ngeomean speedup vs best constituent: %.3f" %
          summary["geomean_speedup_vs_best"], file=out)
    print("geomean slowdown vs native:          %.3f" %
          summary["geomean_slowdown_vs_native"], file=out)
    return 0


def cmd_table6(args, out, _err):
    from repro.analysis.experiments import table6
    from repro.analysis.tables import format_table, table6_rows

    names = set(args.workloads) if args.workloads else None
    results = table6(ops=args.ops, workload_names=names)
    print(format_table(
        ("Workload", "Shadow", "L4", "L3", "L2", "L1", "Nested", "Avg refs"),
        table6_rows(results), title="Table VI"), file=out)
    return 0


def cmd_tables(_args, out, _err):
    from repro.analysis.experiments import table1_measurements, table2_measurements
    from repro.analysis.tables import format_table, table1_rows, table2_rows
    from repro.common.config import sandy_bridge_tlbs

    print(format_table(
        ("Technique", "TLB hit", "Max refs", "PT updates", "HW support"),
        table1_rows(table1_measurements()), title="Table I"), file=out)
    print("", file=out)
    print(format_table(
        ("Level", "Native", "Nested", "Shadow", "Agile"),
        table2_rows(table2_measurements()), title="Table II"), file=out)
    print("", file=out)
    tlbs = sandy_bridge_tlbs()
    rows = []
    for name, geometries in (("L1D", tlbs.l1d), ("L1I", tlbs.l1i), ("L2", tlbs.l2)):
        for size, geometry in sorted(geometries.items()):
            rows.append((name, size, geometry.entries, geometry.ways))
    print(format_table(("TLB", "page size", "entries", "ways"), rows,
                       title="Table III"), file=out)
    return 0


def cmd_sweep(args, out, err):
    """The parallel experiment runner: a grid of cells, fanned out.

    Stream discipline: result tables and the inline JSON summary go to
    ``out``; progress lines, failure reports, and the closing count line
    go to ``err`` — so ``repro sweep --json - | jq .`` just works. With
    ``--json -`` the human results table moves to ``err`` too, leaving
    stdout pure JSON.
    """
    import json

    from repro.analysis.tables import format_table
    from repro.runner import CellSpec, ResultCache, SweepRunner, parse_shard

    names = args.workloads or sorted(_workload_classes())
    overrides = {}
    if args.no_pwc:
        overrides["pwc.enabled"] = False
    if args.no_ad_assist:
        overrides["hw_ad_assist"] = False
    if args.no_cr3_cache:
        overrides["hw_cr3_cache"] = False
    if args.paranoid:
        overrides["paranoid"] = True

    cells = [
        CellSpec.make(name, mode=mode, page_size=page_size, ops=args.ops,
                      seed=args.seed, overrides=overrides or None)
        for name in names
        for page_size in args.page_sizes
        for mode in args.modes
    ]

    try:
        shard = parse_shard(args.shard) if args.shard else None
    except ValueError as exc:
        print(str(exc), file=err)
        return 2

    cache = None
    if not args.no_cache:
        cache = ResultCache(args.cache_dir)
        if args.invalidate_cache:
            cache.invalidate()

    def progress(event):
        if args.quiet:
            return
        line = "[%d/%d] %-28s %-7s (attempts=%d, %.2fs)" % (
            event["done"], event["total"], event["cell"], event["status"],
            event["attempts"], event["elapsed"])
        line += _throughput_suffix(event)
        print(line, file=err)

    runner = SweepRunner(workers=args.workers, cache=cache,
                         timeout=args.timeout, retries=args.retries,
                         progress=progress, trace_dir=args.trace_dir)
    sweep = runner.run(cells, shard=shard)

    # With --json - the table would corrupt the JSON stream; divert it.
    table_stream = err if args.json == "-" else out
    rows = [_metrics_row(r.metrics) for r in sweep if r.succeeded]
    if rows:
        print(format_table(METRICS_HEADERS, rows, title="Sweep results"),
              file=table_stream)
    for result in sweep.failures():
        first_line = (result.error or "").splitlines()[0] if result.error else ""
        print("FAILED %s [%s after %d attempt(s)]: %s" % (
            result.spec.describe(), result.status, result.attempts,
            first_line), file=err)
    summary = sweep.summary()
    print("\n%d cells: %d simulated, %d cached, %d failed, %d timed out "
          "(%.2fs, workers=%d)" % (
              summary["cells"], summary["simulated"], summary["cached"],
              summary["failed"], summary["timeout"], summary["elapsed"],
              args.workers), file=err)
    if args.trace_dir:
        traced = sum(1 for r in sweep if r.trace_path is not None)
        print("%d trace payload(s) in %s" % (traced, args.trace_dir), file=err)
    if args.json:
        if args.json == "-":
            print(json.dumps(summary, indent=2, sort_keys=True), file=out)
        else:
            with open(args.json, "w", encoding="utf-8") as handle:
                json.dump(summary, handle, indent=2, sort_keys=True)
            print("summary written to %s" % args.json, file=err)
    return 0 if not sweep.failures() else 1


def cmd_policy_sweep(args, out, _err):
    from repro.analysis.tables import format_table

    cls = _workload_classes()[args.workload]
    rows = []
    for value in args.values:
        config = sandy_bridge_config(mode=MODE_AGILE)
        config = replace(config, policy=replace(config.policy,
                                                **{args.param: value}))
        metrics = Simulator(System(config)).run(cls(ops=args.ops))
        mix = metrics.mode_mix()
        rows.append((
            "%s=%d" % (args.param, value),
            metrics.vmtraps,
            "%.2f" % metrics.avg_refs_per_miss,
            "%.1f%%" % (100 * mix.get("Shadow", 0.0)),
            "%.1f%%" % (100 * (metrics.page_walk_overhead
                               + metrics.vmm_overhead)),
        ))
    print(format_table(
        ("setting", "traps", "refs/miss", "shadow misses", "total overhead"),
        rows, title="Policy sweep (%s, agile)" % args.workload), file=out)
    return 0


def _traced_run(args):
    """Run one workload under a tracer + recorder (trace/profile verbs)."""
    from repro.obs import IntervalRecorder, Tracer

    cls = _workload_classes()[args.workload]
    config = _build_config(args)
    tracer = Tracer()
    recorder = IntervalRecorder(every=args.every)
    system = System(config)
    system.attach_observability(tracer, recorder)
    kwargs = {"ops": args.ops, "page_size": config.page_size}
    if args.seed is not None:
        kwargs["seed"] = args.seed
    metrics = Simulator(system).run(cls(**kwargs))
    return metrics, tracer, recorder


def cmd_trace(args, out, err):
    """Capture one run's event stream; JSONL and/or Perfetto JSON out."""
    from repro.obs import vmtrap_counts
    from repro.obs.exporters import write_jsonl, write_perfetto

    metrics, tracer, recorder = _traced_run(args)
    if args.events == "-":
        write_jsonl(tracer.events, out)
    else:
        with open(args.events, "w", encoding="utf-8") as handle:
            count = write_jsonl(tracer.events, handle)
        print("wrote %d events to %s" % (count, args.events), file=err)
    if args.perfetto:
        with open(args.perfetto, "w", encoding="utf-8") as handle:
            count = write_perfetto(tracer.events, handle,
                                   intervals=recorder.to_rows(),
                                   label=args.workload)
        print("wrote %d trace events to %s" % (count, args.perfetto),
              file=err)
    counts = vmtrap_counts(tracer.events)
    print("%s/%s/%s: %d events, %d intervals, %d measured vmtraps" % (
        args.workload, args.mode, args.page_size, len(tracer),
        len(recorder), sum(counts.values())), file=err)
    if counts != metrics.trap_counts:  # pragma: no cover - invariant
        print("WARNING: trace vmtrap counts diverge from RunMetrics "
              "(%r != %r)" % (counts, metrics.trap_counts), file=err)
        return 1
    return 0


def cmd_profile(args, out, err):
    """Run one workload and print its cycle-attribution flamegraph."""
    from repro.obs.exporters import render_cycle_flame, write_perfetto

    metrics, tracer, recorder = _traced_run(args)
    print(render_cycle_flame(metrics), file=out)
    if args.perfetto:
        with open(args.perfetto, "w", encoding="utf-8") as handle:
            count = write_perfetto(tracer.events, handle,
                                   intervals=recorder.to_rows(),
                                   label=args.workload)
        print("wrote %d trace events to %s" % (count, args.perfetto),
              file=err)
    if args.events:
        from repro.obs.exporters import write_jsonl

        with open(args.events, "w", encoding="utf-8") as handle:
            count = write_jsonl(tracer.events, handle)
        print("wrote %d events to %s" % (count, args.events), file=err)
    return 0


def cmd_fuzz(args, out, err):
    """Differential fuzzing: campaigns, and corpus replay.

    Stream discipline matches ``sweep``: human-readable results go to
    ``out`` (diverted to ``err`` under ``--json -`` so stdout stays pure
    JSON); progress and diagnostics go to ``err``. Oracle mismatches
    exit 1 and print the written reproducer path on stderr; bad
    arguments exit 2.
    """
    import json

    from repro.fuzz import (
        FuzzCampaign,
        iter_cases,
        load_case,
        replay_case,
        specs_for,
    )
    from repro.runner import parse_shard

    modes = args.modes.split(",")
    bad_modes = [m for m in modes if m not in EXTENDED_MODES]
    if bad_modes:
        print("unknown mode(s): %s" % ", ".join(bad_modes), file=err)
        return 2
    page_sizes = args.page_sizes.split(",")
    bad_sizes = [p for p in page_sizes if p not in PAGE_SIZES]
    if bad_sizes:
        print("unknown page size(s): %s" % ", ".join(bad_sizes), file=err)
        return 2
    try:
        shard = parse_shard(args.shard) if args.shard else None
    except ValueError as exc:
        print(str(exc), file=err)
        return 2

    table_stream = err if args.json == "-" else out

    def emit_json(summary):
        if not args.json:
            return
        if args.json == "-":
            print(json.dumps(summary, indent=2, sort_keys=True), file=out)
        else:
            with open(args.json, "w", encoding="utf-8") as handle:
                json.dump(summary, handle, indent=2, sort_keys=True)
            print("summary written to %s" % args.json, file=err)

    # -- replay mode: re-judge committed reproducer cases --------------------
    if args.replay or args.corpus:
        cases = []
        try:
            for path in args.replay or ():
                cases.append((path, load_case(path)))
            for directory in args.corpus or ():
                cases.extend(iter_cases(directory))
        except (OSError, ValueError, KeyError) as exc:
            print("cannot load case: %s" % exc, file=err)
            return 2
        failures = []
        for path, case in cases:
            verdict = replay_case(case)
            if not args.quiet:
                print("[replay] %-4s %s" % ("ok" if verdict.ok else "FAIL",
                                            path), file=err)
            if not verdict.ok:
                failures.append((path, verdict))
        for path, verdict in failures:
            print("REPLAY FAILED %s: %s" % (path, verdict), file=err)
        print("%d case(s) replayed, %d failed"
              % (len(cases), len(failures)), file=table_stream)
        emit_json({"schema": 1, "replayed": len(cases),
                   "failed": len(failures),
                   "failures": [{"case": path, "verdict": verdict.to_dict()}
                                for path, verdict in failures]})
        return 1 if failures else 0

    # -- campaign mode -------------------------------------------------------
    options = {"compare_every": args.compare_every,
               "full_check_every": args.check_every}
    if args.no_paranoid:
        options["paranoid"] = False
    if args.no_ad_assist:
        options["hw_ad_assist"] = False
    if args.no_cr3_cache:
        options["hw_cr3_cache"] = False

    seeds = range(args.seed_base, args.seed_base + args.seeds)
    specs = specs_for(seeds, args.ops, profile=args.profile,
                      page_sizes=page_sizes, modes=modes, options=options)

    def progress(event):
        if args.quiet:
            return
        line = "[%d/%d] %-36s %s (%.2fs)" % (
            event["done"], event["total"], event["cell"], event["status"],
            event["elapsed"])
        line += _throughput_suffix(event)
        print(line, file=err)

    campaign = FuzzCampaign(
        corpus_dir=args.corpus_out, workers=args.workers,
        timeout=args.timeout, shrink_budget=args.shrink_budget,
        do_shrink=not args.no_shrink, capture_traces=not args.no_traces,
        time_budget=args.time_budget, progress=progress)
    report = campaign.run(specs, shard=shard)

    print("Fuzz campaign [%s, %s, %s]: %d case(s), %d clean, %d failed "
          "(%.2fs%s)" % (args.profile, "+".join(modes),
                         ",".join(page_sizes), report.cases, report.clean,
                         len(report.failures), report.elapsed,
                         ", time budget exhausted"
                         if report.budget_exhausted else ""),
          file=table_stream)
    for failure in report.failures:
        verdict = failure.verdict or {}
        print("MISMATCH %s: %s at op %s (%s)" % (
            failure.spec.describe(), verdict.get("check", "error"),
            verdict.get("op_index"), verdict.get("detail",
                                                 failure.error or "")),
            file=err)
        if failure.reproducer:
            print("  reproducer (%d ops): %s"
                  % (failure.shrunk_ops, failure.reproducer), file=err)
        if failure.trace:
            print("  obs trace: %s" % failure.trace, file=err)
    emit_json(report.summary())
    return 0 if report.ok else 1


def cmd_bench(args, out, err):
    """The continuous-benchmarking harness: run targets, gate regressions.

    Stream discipline: the results table and comparison report go to
    ``out``; per-target progress goes to ``err``. With ``--json -`` the
    human output moves to ``err``, leaving stdout pure JSON. Exit codes:
    0 ok, 1 regression (or a failing benchmark), 2 usage errors.
    """
    import json

    from repro.bench import (
        BenchContext,
        CompareError,
        compare_reports,
        discover,
        format_comparison,
        run_target,
    )
    from repro.bench.harness import load_report

    try:
        targets = discover(args.bench_dir, names=args.targets or None)
    except (FileNotFoundError, KeyError, ValueError) as exc:
        print(str(exc), file=err)
        return 2

    table_stream = err if args.json == "-" else out
    if args.list:
        for target in targets:
            gates = ", ".join(
                "%s (%s, %.0f%%)" % (g.metric, g.direction, 100 * g.tolerance)
                for g in target.gates) or "no gates"
            print("%-24s -> %-32s %s" % (target.name, target.output, gates),
                  file=table_stream)
        return 0

    baseline = None
    if args.compare:
        try:
            baseline = load_report(args.compare)
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            print("cannot load baseline: %s" % exc, file=err)
            return 2
        matching = [t for t in targets
                    if t.name == baseline.get("benchmark")]
        if not matching:
            print("baseline %s is for benchmark %r, which is not among the "
                  "selected targets" % (args.compare,
                                        baseline.get("benchmark")), file=err)
            return 2
        targets = matching

    exit_code = 0
    payload = {"schema": 1, "reports": [], "comparisons": []}
    for target in targets:
        if not args.quiet:
            print("bench %s (quick=%s) ..." % (target.name, args.quick),
                  file=err)
        ctx = BenchContext(quick=args.quick, ops_override=args.ops,
                           repeat=args.repeat)
        try:
            report, path = run_target(target, ctx, out_dir=args.out_dir)
        except Exception as exc:
            print("bench %s FAILED: %s: %s" % (target.name,
                                               type(exc).__name__, exc),
                  file=err)
            exit_code = max(exit_code, 1)
            continue
        print("%-24s -> %s" % (target.name, path), file=table_stream)
        payload["reports"].append(report)
        if baseline is not None:
            try:
                comparison = compare_reports(baseline, report)
            except CompareError as exc:
                print(str(exc), file=err)
                return 2
            print(format_comparison(comparison), file=table_stream)
            payload["comparisons"].append(comparison)
            if not comparison["ok"]:
                exit_code = max(exit_code, 1)
    if args.json:
        if args.json == "-":
            print(json.dumps(payload, indent=2, sort_keys=True), file=out)
        else:
            with open(args.json, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, indent=2, sort_keys=True)
            print("bench summary written to %s" % args.json, file=err)
    return exit_code


def cmd_lint(args, out, err):
    from repro.lint.runner import list_rules, run_lint

    if args.list_rules:
        return list_rules(out)
    cache_dir = None if args.no_cache else args.cache_dir
    return run_lint(args.paths or None, fmt=args.format, out=out, err=err,
                    deep=args.deep, cache_dir=cache_dir,
                    audit_suppressions=args.audit_suppressions,
                    baseline=args.baseline,
                    write_baseline=args.write_baseline)


def cmd_check(args, out, err):
    # `repro check` == `repro lint --deep`.
    args.deep = True
    return cmd_lint(args, out, err)


def _at_least(parse, bound, strict=False):
    """argparse type: a ``parse`` number >= ``bound`` (> when ``strict``)."""
    relation = ">" if strict else ">="

    def convert(text):
        try:
            value = parse(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                "invalid %s value: %r" % (parse.__name__, text))
        if not (value > bound if strict else value >= bound):
            raise argparse.ArgumentTypeError(
                "must be %s %s, got %s" % (relation, bound, value))
        return value
    return convert


#: Counts and periods; retry and shrink budgets; seconds.
_positive_int = _at_least(int, 1)
_non_negative_int = _at_least(int, 0)
_positive_float = _at_least(float, 0, strict=True)


def _one_of(names, what):
    """argparse item type: one of ``names``, else "unknown ``what``"."""
    def convert(text):
        if text not in names:
            raise argparse.ArgumentTypeError(
                "unknown %s %r (choose from %s)"
                % (what, text, ", ".join(sorted(names))))
        return text
    return convert


def _comma_list(item, all_word=None):
    """argparse type: a comma-separated list, each part checked by ``item``.

    ``all_word`` (e.g. ``"all"``) parses to the empty list, which the
    commands read as "every name".
    """
    def convert(text):
        if text == all_word:
            return []
        return [item(part) for part in text.split(",")]
    return convert


_workload_list = _comma_list(_one_of(_workload_classes(), "workload"), "all")
_mode_list = _comma_list(_one_of(EXTENDED_MODES, "mode"))
_page_size_list = _comma_list(_one_of(PAGE_SIZES, "page size"))
_positive_int_list = _comma_list(_positive_int)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Agile Paging (ISCA 2016) reproduction harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list workloads and modes")

    def add_common(p, with_mode=True):
        p.add_argument("--workload", choices=sorted(_workload_classes()),
                       default="mcf")
        p.add_argument("--ops", type=_positive_int, default=60_000)
        p.add_argument("--page-size", choices=sorted(PAGE_SIZES), default="4K")
        if with_mode:
            p.add_argument("--mode", choices=EXTENDED_MODES, default="agile")
        p.add_argument("--no-pwc", action="store_true",
                       help="disable page-walk caches")
        p.add_argument("--no-ad-assist", action="store_true")
        p.add_argument("--no-cr3-cache", action="store_true")
        p.add_argument("--paranoid", action="store_true",
                       help="validate shadow/guest/TLB coherence invariants "
                            "after every VMtrap and mode switch")

    run_parser = sub.add_parser("run", help="run one workload/configuration")
    add_common(run_parser)
    run_parser.add_argument("--verbose", action="store_true")

    compare_parser = sub.add_parser("compare", help="one workload, every mode")
    add_common(compare_parser, with_mode=False)
    compare_parser.add_argument(
        "--modes", type=_mode_list, default="native,nested,shadow,shsp,agile")

    fig5_parser = sub.add_parser("figure5", help="the Figure 5 grid")
    fig5_parser.add_argument("--ops", type=_positive_int, default=60_000)
    fig5_parser.add_argument("--workloads", type=_workload_list, default=None,
                             help="comma-separated subset")
    fig5_parser.add_argument("--chart", action="store_true",
                             help="render ASCII stacked bars too")

    t6_parser = sub.add_parser("table6", help="Table VI miss mix")
    t6_parser.add_argument("--ops", type=_positive_int, default=60_000)
    t6_parser.add_argument("--workloads", type=_workload_list, default=None,
                           help="comma-separated subset")

    sub.add_parser("tables", help="Tables I/II/III")

    sweep_parser = sub.add_parser(
        "sweep", help="run an experiment grid through the parallel runner")
    sweep_parser.add_argument(
        "--workloads", type=_workload_list, default="all",
        help="comma-separated workload names, or 'all' (default)")
    sweep_parser.add_argument("--modes", type=_mode_list,
                              default="native,nested,shadow,agile",
                              help="comma-separated paging modes")
    sweep_parser.add_argument("--page-sizes", type=_page_size_list, default="4K",
                              help="comma-separated page sizes (4K,2M,1G)")
    sweep_parser.add_argument("--ops", type=_positive_int, default=20_000)
    sweep_parser.add_argument("--seed", type=int, default=None,
                              help="override every workload's default seed")
    sweep_parser.add_argument("--workers", type=_positive_int, default=1,
                              help="worker processes (1 = in-process serial)")
    sweep_parser.add_argument("--timeout", type=_positive_float, default=None,
                              help="per-cell timeout in seconds "
                                   "(enforced when workers > 1)")
    sweep_parser.add_argument("--retries", type=_non_negative_int, default=1,
                              help="extra attempts per failed/timed-out cell")
    sweep_parser.add_argument("--cache-dir", default=".repro-cache",
                              help="on-disk result cache location")
    sweep_parser.add_argument("--no-cache", action="store_true",
                              help="simulate every cell, touch no cache")
    sweep_parser.add_argument("--invalidate-cache", action="store_true",
                              help="wipe the cache before running")
    sweep_parser.add_argument("--shard", default=None, metavar="K/N",
                              help="run only deterministic shard K of N")
    sweep_parser.add_argument("--json", default=None, metavar="PATH",
                              help="write the JSON summary to PATH ('-' to "
                                   "print it)")
    sweep_parser.add_argument("--quiet", action="store_true",
                              help="suppress per-cell progress lines")
    sweep_parser.add_argument("--no-pwc", action="store_true",
                              help="disable page-walk caches")
    sweep_parser.add_argument("--no-ad-assist", action="store_true")
    sweep_parser.add_argument("--no-cr3-cache", action="store_true")
    sweep_parser.add_argument("--paranoid", action="store_true",
                              help="validate coherence invariants during "
                                   "every cell")
    sweep_parser.add_argument("--trace-dir", default=None, metavar="DIR",
                              help="capture per-cell telemetry: run every "
                                   "simulated cell under the tracer and "
                                   "write one trace payload per cell here")

    def add_obs_parser(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("workload", choices=sorted(_workload_classes()),
                       help="suite workload to run")
        p.add_argument("--ops", type=_positive_int, default=60_000)
        p.add_argument("--mode", choices=EXTENDED_MODES, default="agile")
        p.add_argument("--page-size", choices=sorted(PAGE_SIZES), default="4K")
        p.add_argument("--seed", type=int, default=None,
                       help="override the workload's default seed")
        p.add_argument("--every", type=_positive_int, default=1024,
                       help="interval-sampling period in operations")
        p.add_argument("--no-pwc", action="store_true",
                       help="disable page-walk caches")
        p.add_argument("--no-ad-assist", action="store_true")
        p.add_argument("--no-cr3-cache", action="store_true")
        p.add_argument("--paranoid", action="store_true")
        return p

    trace_parser = add_obs_parser(
        "trace", "run one workload under the tracer; emit events")
    trace_parser.add_argument("--events", default="-", metavar="PATH",
                              help="JSONL event log destination "
                                   "('-' = stdout, the default)")
    trace_parser.add_argument("--perfetto", default=None, metavar="PATH",
                              help="also write Chrome/Perfetto trace JSON")

    profile_parser = add_obs_parser(
        "profile", "run one workload; print its cycle flamegraph")
    profile_parser.add_argument("--perfetto", default=None, metavar="PATH",
                                help="also write Chrome/Perfetto trace JSON")
    profile_parser.add_argument("--events", default=None, metavar="PATH",
                                help="also write the JSONL event log")

    psweep_parser = sub.add_parser("policy-sweep", help="sweep a policy knob")
    psweep_parser.add_argument("--workload", choices=sorted(_workload_classes()),
                               default="memcached")
    psweep_parser.add_argument("--ops", type=_positive_int, default=60_000)
    psweep_parser.add_argument("--param", default="write_threshold",
                               choices=("write_threshold", "write_interval",
                                        "revert_interval"))
    psweep_parser.add_argument("--values", type=_positive_int_list,
                               default="1,2,4,8")

    fuzz_parser = sub.add_parser(
        "fuzz", help="differential fuzzing: cross-mode equivalence oracle")
    fuzz_parser.add_argument("--seeds", type=_positive_int, default=50,
                             help="number of scenario seeds to run")
    fuzz_parser.add_argument("--seed-base", type=int, default=0,
                             help="first seed (scenarios use seed-base..+seeds)")
    fuzz_parser.add_argument("--ops", type=_positive_int, default=300,
                             help="guest ops per scenario")
    fuzz_parser.add_argument("--profile", choices=sorted(PROFILES),
                             default="default", help="scenario op-mix profile")
    fuzz_parser.add_argument("--modes", default="native,nested,shadow,agile",
                             help="comma-separated modes compared in lockstep")
    fuzz_parser.add_argument("--page-sizes", default="4K",
                             help="comma-separated page sizes (4K,2M)")
    fuzz_parser.add_argument("--workers", type=_positive_int, default=1,
                             help="worker processes (1 = in-process serial)")
    fuzz_parser.add_argument("--timeout", type=_positive_float, default=None,
                             help="per-case timeout in seconds "
                                  "(enforced when workers > 1)")
    fuzz_parser.add_argument("--time-budget", type=_positive_float,
                             default=None,
                             help="stop dispatching new cases after this "
                                  "many seconds")
    fuzz_parser.add_argument("--corpus-out", default="fuzz-corpus",
                             metavar="DIR",
                             help="where shrunk reproducers + obs traces "
                                  "are written")
    fuzz_parser.add_argument("--replay", action="append", metavar="FILE",
                             help="replay one corpus case (repeatable)")
    fuzz_parser.add_argument("--corpus", action="append", metavar="DIR",
                             help="replay every case in a corpus directory "
                                  "(repeatable)")
    fuzz_parser.add_argument("--no-shrink", action="store_true",
                             help="record failing scenarios full-size")
    fuzz_parser.add_argument("--shrink-budget", type=_non_negative_int,
                             default=200,
                             help="max oracle evaluations per shrink")
    fuzz_parser.add_argument("--no-traces", action="store_true",
                             help="skip obs trace capture for failures")
    fuzz_parser.add_argument("--compare-every", type=_positive_int, default=1,
                             help="op period of the fault-counter cross-check")
    fuzz_parser.add_argument("--check-every", type=_positive_int, default=64,
                             help="op period of the full invariant sweep")
    fuzz_parser.add_argument("--no-paranoid", action="store_true",
                             help="disable per-trap invariant checking")
    fuzz_parser.add_argument("--no-ad-assist", action="store_true")
    fuzz_parser.add_argument("--no-cr3-cache", action="store_true")
    fuzz_parser.add_argument("--shard", default=None, metavar="K/N",
                             help="run only deterministic shard K of N")
    fuzz_parser.add_argument("--json", default=None, metavar="PATH",
                             help="write the JSON summary to PATH ('-' to "
                                  "print it)")
    fuzz_parser.add_argument("--quiet", action="store_true",
                             help="suppress per-case progress lines")

    bench_parser = sub.add_parser(
        "bench", help="run registered benchmarks; gate regressions against "
                      "a committed BENCH baseline")
    bench_parser.add_argument("targets", nargs="*",
                              help="benchmark target names (default: all "
                                   "discovered)")
    bench_parser.add_argument("--list", action="store_true",
                              help="list discovered targets and exit")
    bench_parser.add_argument("--quick", action="store_true",
                              help="CI-smoke budgets: each target scales its "
                                   "op counts down (see BenchContext.ops)")
    bench_parser.add_argument("--ops", type=_positive_int, default=None,
                              help="pin every target's op budget")
    bench_parser.add_argument("--repeat", type=_positive_int, default=None,
                              help="override each target's timing repeats")
    bench_parser.add_argument("--bench-dir", default="benchmarks",
                              help="directory of bench_*.py files "
                                   "(default: benchmarks)")
    bench_parser.add_argument("--out-dir", default=".",
                              help="where BENCH_*.json reports are written "
                                   "(default: the current directory)")
    bench_parser.add_argument("--compare", default=None, metavar="BASELINE",
                              help="compare against this BENCH_*.json and "
                                   "exit 1 on gated regressions")
    bench_parser.add_argument("--json", default=None, metavar="PATH",
                              help="write reports + comparisons as JSON to "
                                   "PATH ('-' to print)")
    bench_parser.add_argument("--quiet", action="store_true",
                              help="suppress per-target progress lines")

    def add_lint_args(p, deep_default=False):
        p.add_argument(
            "paths", nargs="*",
            help="files/directories to lint (default: the repro package)")
        p.add_argument("--format", choices=("text", "json", "sarif"),
                       default="text")
        p.add_argument("--list-rules", action="store_true",
                       help="print the rule catalogue and exit")
        p.add_argument("--baseline", default=None, metavar="FILE",
                       help="tolerate findings recorded in FILE; fail only "
                            "on new ones (the ratchet)")
        p.add_argument("--write-baseline", action="store_true",
                       help="record the current findings into --baseline "
                            "and exit 0")
        if not deep_default:
            p.add_argument("--deep", action="store_true",
                           help="also run the whole-program flow rules "
                                "(call-graph effects, taint, layering)")
        p.add_argument("--audit-suppressions", action="store_true",
                       help="list every suppression marker and fail on "
                            "unused ones")
        p.add_argument("--no-cache", action="store_true",
                       help="ignore and do not write the lint result cache")
        p.add_argument("--cache-dir", default=".repro-cache",
                       help="lint result cache directory "
                            "(default: .repro-cache)")

    lint_parser = sub.add_parser(
        "lint", help="run the project's static sanitizer")
    add_lint_args(lint_parser)

    check_parser = sub.add_parser(
        "check", help="alias for `lint --deep`: the full static analyzer")
    add_lint_args(check_parser, deep_default=True)
    return parser


COMMANDS = {
    "list": cmd_list,
    "run": cmd_run,
    "compare": cmd_compare,
    "figure5": cmd_figure5,
    "table6": cmd_table6,
    "tables": cmd_tables,
    "sweep": cmd_sweep,
    "policy-sweep": cmd_policy_sweep,
    "trace": cmd_trace,
    "profile": cmd_profile,
    "fuzz": cmd_fuzz,
    "bench": cmd_bench,
    "lint": cmd_lint,
    "check": cmd_check,
}


def main(argv=None, out=None, err=None):
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = build_parser()
    args = parser.parse_args(argv)
    return COMMANDS[args.command](args, out, err)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
