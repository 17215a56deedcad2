"""End-to-end benchmark of the simulator, with per-layer host time.

Run from the repository root:

    python3 benchmarks/e2e/run.py --workload fig5 --seed 1 --seconds 25 --trace 0

A round runs every cell of one workload (see ``cells.WORKLOADS``) once,
in a fresh child interpreter, so each round pays the simulator's
import and has its own peak RSS. Rounds run one at a time until
``--seconds`` is spent, and at least three run.

* ``--trace 0`` reports the end-to-end metrics: ``wall_s`` (import plus
  every cell from ``System`` construction to collected ``RunMetrics``)
  and ``sim_ops_per_s`` (simulated ops in the measured windows per host
  second of those windows), both from each cell's fastest round; and
  ``setup_s`` (import plus every cell up to ``reset_counters``) and
  ``peak_rss_mb``, both medians over the rounds. Interpreter start-up
  is not timed.
* ``--trace 1`` runs one untraced and one traced round and reports the
  per-layer metrics: span calls and self times, layer rollups split at
  ``reset_counters``, the exact simulated counts, and the cost of
  tracing.

Every round's outputs are checked: a cell fails when it raises, runs
fewer ops than asked, returns other ``RunMetrics`` than the same cell in
the first round (traced or not), breaks the mode-independence of the
guest's op stream, or breaks a Figure 5 claim. Every metric is printed as
``name value unit``; the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. Exit status: 0 when every
cell passed, 1 when one failed, 2 when the simulator's sources are
missing or a round could not run.
"""

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")

WORKLOAD_NAMES = ("fig5", "steady_hits", "walk_storm", "pt_churn")
MIN_ROUNDS = 3
#: A round that takes longer than this is killed and the run fails.
ROUND_TIMEOUT_S = 150
LAYERS = ("workloads", "core", "hw", "mem", "guest", "vmm")

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "sim_ops_per_s": "ops/s",
                    "peak_rss_mb": "MB"}
SIM_UNITS = {
    "sim.tlb_hit_ratio": "ratio",
    "sim.tlb_misses_per_kop": "1/kop",
    "sim.walk_refs_per_miss": "refs/miss",
    "sim.guest_faults_per_kop": "1/kop",
    "sim.vmm_traps_per_kop": "1/kop",
    "sim.cycles_per_op": "cycles/op",
    "sim.page_walk_overhead": "ratio",
    "sim.vmm_overhead": "ratio",
    "sim.agile_speedup_vs_best": "ratio",
}
TRACE_UNITS = {"trace.wall_s": "s", "trace.overhead": "ratio",
               "trace.span_cost_ns": "ns", "trace.residual": "ratio"}

# Figure 5 claims, as asserted in benchmarks/bench_fig5_overheads.py.
AGILE_VS_BEST_SLACK = 1.05
LARGE_PAGE_WALK_SLACK = 0.01

_clock = time.perf_counter


# -- rounds ------------------------------------------------------------------

def _use_sources():
    """Import the simulator from this checkout, and ``cells`` from here."""
    for path in (HERE, SRC):
        if path not in sys.path:
            sys.path.insert(0, path)


def _round_child(workload, seed, trace, scale):
    """Body of one child round: import the simulator, run, print the
    result as JSON on standard output (anything else goes to stderr)."""
    out, sys.stdout = sys.stdout, sys.stderr
    try:
        _use_sources()
        start = _clock()
        import cells

        import_s = _clock() - start
        result = cells.run_round(workload, seed, trace=trace, scale=scale)
        result["import_s"] = import_s
        # ru_maxrss is in KiB on Linux.
        result["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    except Exception:  # reported to the parent, which fails the run
        result = {"fatal": traceback.format_exc()}
    json.dump(result, out)
    out.flush()


def spawn_round(workload, seed, trace, scale):
    """Run one round in a fresh interpreter and wait for it to end.

    The child is a plain subprocess, not a ``multiprocessing`` one: the
    latter's ``spawn`` start method leaves a resource-tracker process
    behind that outlives this one.
    """
    process = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--round-child",
         json.dumps([workload, seed, trace, scale])],
        stdout=subprocess.PIPE, stdin=subprocess.DEVNULL)
    try:
        output, _ = process.communicate(timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RuntimeError("a %s round did not finish in %d s"
                           % (workload, ROUND_TIMEOUT_S)) from None
    finally:
        if process.poll() is None:
            process.kill()
        process.wait()
        process.stdout.close()
    try:
        result = json.loads(output)
    except ValueError:
        raise RuntimeError("a %s round exited (status %d) without a result"
                           % (workload, process.returncode)) from None
    if "fatal" in result:
        raise RuntimeError("a %s round failed:\n%s"
                           % (workload, result["fatal"]))
    return result


def measure(workload, seed, seconds, trace, scale=1.0):
    """The rounds of one run: untraced then traced, or untraced until
    ``seconds`` is spent (and at least :data:`MIN_ROUNDS`)."""
    if trace:
        return [spawn_round(workload, seed, False, scale),
                spawn_round(workload, seed, True, scale)]
    rounds = []
    start = _clock()
    while True:
        rounds.append(spawn_round(workload, seed, False, scale))
        elapsed = _clock() - start
        mean_round = elapsed / len(rounds)
        if len(rounds) >= MIN_ROUNDS and elapsed + mean_round > seconds:
            return rounds


# -- checks ------------------------------------------------------------------

def _total_overhead(derived):
    return derived["page_walk_overhead"] + derived["vmm_overhead"]


def _groups(cells):
    """Completed cells by (workload label, page size), then by mode."""
    groups = {}
    for cell in cells:
        if "error" in cell:
            continue
        metrics = cell["metrics"]
        key = (metrics["label"], metrics["page_size"])
        groups.setdefault(key, {})[metrics["mode"]] = cell
    return groups


def _round_failures(cells):
    """(cell label, reason) for checks made within one round."""
    failures = []
    groups = _groups(cells)
    for (_name, page_size), by_mode in sorted(groups.items()):
        # The guest's op stream and its page faults are the same
        # whichever way the VMM virtualizes its page tables.
        streams = {mode: tuple(cell["metrics"][field] for field in
                               ("ops", "reads", "writes", "guest_faults"))
                   for mode, cell in by_mode.items()}
        if len(set(streams.values())) > 1:
            for cell in by_mode.values():
                failures.append((cell["label"],
                                 "guest op stream differs across modes: %r"
                                 % (streams,)))
        if page_size != "4K" or "agile" not in by_mode:
            continue
        agile = by_mode["agile"]
        constituents = [by_mode[mode]["derived"] for mode in ("nested", "shadow")
                        if mode in by_mode]
        if len(constituents) == 2:
            best = min(_total_overhead(d) for d in constituents)
            total = _total_overhead(agile["derived"])
            if total > AGILE_VS_BEST_SLACK * best:
                failures.append((agile["label"],
                                 "agile total overhead %.4f exceeds %.2f x "
                                 "the best of nested and shadow (%.4f)"
                                 % (total, AGILE_VS_BEST_SLACK, best)))
        large = groups.get((agile["metrics"]["label"], "2M"), {}).get("agile")
        if large is not None:
            walk_4k = agile["derived"]["page_walk_overhead"]
            walk_2m = large["derived"]["page_walk_overhead"]
            if walk_2m > walk_4k + LARGE_PAGE_WALK_SLACK:
                failures.append((large["label"],
                                 "2M agile walk overhead %.4f exceeds 4K's "
                                 "%.4f + %.2f" % (walk_2m, walk_4k,
                                                  LARGE_PAGE_WALK_SLACK)))
    return failures


def check(rounds):
    """Every failed check as ``(round index, cell label, reason)``.

    The first round is the reference for every cell's ``RunMetrics``;
    in a traced run the second round is the traced one.
    """
    failures = []
    reference = {}
    for index, rnd in enumerate(rounds):
        for cell in rnd["cells"]:
            label = cell["label"]
            if "error" in cell:
                failures.append((index, label, "raised\n" + cell["error"]))
                continue
            metrics = cell["metrics"]
            if metrics["ops"] < cell["ops"]:
                failures.append((index, label, "ran %d of %d ops"
                                 % (metrics["ops"], cell["ops"])))
            if reference.setdefault(label, metrics) != metrics:
                failures.append((index, label,
                                 "RunMetrics differ from the first round's"))
        failures.extend((index, label, reason)
                        for label, reason in _round_failures(rnd["cells"]))
    return failures


# -- metrics -------------------------------------------------------------------

def _cells_wall(rnd):
    return sum(cell["setup_s"] + cell["measure_s"] for cell in rnd["cells"])


def round_end_to_end(rnd):
    """The end-to-end metrics of one untraced round."""
    cells = rnd["cells"]
    setup = rnd["import_s"] + sum(cell["setup_s"] for cell in cells)
    measured = sum(cell["measure_s"] for cell in cells)
    ops = sum(cell["metrics"]["ops"] for cell in cells)
    return {"wall_s": setup + measured, "setup_s": setup,
            "sim_ops_per_s": ops / measured,
            "peak_rss_mb": rnd["peak_rss_mb"]}


def summarize_end_to_end(rounds):
    """``{metric: {value, median, q1, q3, n}}`` over untraced rounds.

    Load from other tenants of a shared host only ever adds time, and it
    comes in bursts of about a second. So ``wall_s`` and ``sim_ops_per_s``
    take each cell's fastest round (and the fastest import), summed over
    cells. ``setup_s`` and ``peak_rss_mb`` are medians over the rounds.
    ``median``, ``q1`` and ``q3`` describe the whole-round values.
    """
    per_round = [round_end_to_end(rnd) for rnd in rounds]
    cells = list(zip(*(rnd["cells"] for rnd in rounds)))
    fastest_wall = sum(min(c["setup_s"] + c["measure_s"] for c in runs)
                       for runs in cells)
    fastest_measure = sum(min(c["measure_s"] for c in runs) for runs in cells)
    ops = sum(runs[0]["metrics"]["ops"] for runs in cells)
    values = {
        "wall_s": min(rnd["import_s"] for rnd in rounds) + fastest_wall,
        "setup_s": statistics.median(r["setup_s"] for r in per_round),
        "sim_ops_per_s": ops / fastest_measure,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in per_round),
    }
    summary = {}
    for name in END_TO_END_UNITS:
        samples = [r[name] for r in per_round]
        if len(samples) > 1:
            q1, _median, q3 = statistics.quantiles(samples, n=4)
        else:
            q1 = q3 = samples[0]
        summary[name] = {"value": values[name],
                         "median": statistics.median(samples),
                         "q1": q1, "q3": q3, "n": len(samples)}
    return summary


def _geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def sim_metrics(cells):
    """Simulated counts over every cell of a round (exact, host-free)."""
    totals = {}
    for cell in cells:
        for field in ("ops", "tlb_hits_l1", "tlb_hits_l2", "tlb_misses",
                      "walk_refs", "guest_faults", "total_cycles",
                      "ideal_cycles", "walk_cycles", "vmm_cycles"):
            totals[field] = totals.get(field, 0) + cell["metrics"][field]
        totals["vmtraps"] = (totals.get("vmtraps", 0)
                             + cell["derived"]["vmtraps"])
    hits = totals["tlb_hits_l1"] + totals["tlb_hits_l2"]
    misses = totals["tlb_misses"]
    kops = totals["ops"] / 1000.0
    speedups = []
    for by_mode in _groups(cells).values():
        if "agile" not in by_mode:
            continue
        # Agile against the best other mode run beside it; native
        # counts only where no other virtualized mode ran.
        others = ([m for m in by_mode if m not in ("agile", "native")]
                  or [m for m in by_mode if m != "agile"])
        best = min(_total_overhead(by_mode[m]["derived"]) for m in others)
        speedups.append((1 + best)
                        / (1 + _total_overhead(by_mode["agile"]["derived"])))
    return {
        "sim.tlb_hit_ratio": hits / (hits + misses),
        "sim.tlb_misses_per_kop": misses / kops,
        "sim.walk_refs_per_miss": totals["walk_refs"] / misses,
        "sim.guest_faults_per_kop": totals["guest_faults"] / kops,
        "sim.vmm_traps_per_kop": totals["vmtraps"] / kops,
        "sim.cycles_per_op": totals["total_cycles"] / totals["ops"],
        "sim.page_walk_overhead": totals["walk_cycles"] / totals["ideal_cycles"],
        "sim.vmm_overhead": totals["vmm_cycles"] / totals["ideal_cycles"],
        "sim.agile_speedup_vs_best": _geomean(speedups),
    }


def per_layer(untraced, traced):
    """``{name: (value, unit)}`` from an untraced and a traced round."""
    spans = traced["spans"]
    metrics = {}
    for name, span in spans.items():
        metrics[name + ".calls"] = (span["calls"], "count")
        metrics[name + ".self_s"] = (span["self_s"], "s")
    for name in ("hw.translate", "hw.walk"):
        metrics[name + ".raised"] = (spans[name]["raised"], "count")
    metrics["core.retry_ratio"] = (
        spans["hw.translate"]["calls"] / spans["core.access"]["calls"] - 1,
        "ratio")
    measured = sum(span["measure_self_s"] for span in spans.values())
    for layer in LAYERS:
        members = [span for name, span in spans.items()
                   if name.split(".", 1)[0] == layer]
        setup = sum(span["setup_self_s"] for span in members)
        measure_s = sum(span["measure_self_s"] for span in members)
        metrics[layer + ".setup_self_s"] = (setup, "s")
        metrics[layer + ".measure_self_s"] = (measure_s, "s")
        metrics[layer + ".share"] = (measure_s / measured, "ratio")
    for name, value in sim_metrics(untraced["cells"]).items():
        metrics[name] = (value, SIM_UNITS[name])
    plain_wall = _cells_wall(untraced)
    traced_wall = _cells_wall(traced)
    attributed = sum(span["self_s"] for span in spans.values())
    for name, value in (("trace.wall_s", traced_wall),
                        ("trace.overhead", traced_wall / plain_wall - 1),
                        ("trace.span_cost_ns", traced["span_cost_s"] * 1e9),
                        ("trace.residual", attributed / plain_wall - 1)):
        metrics[name] = (value, TRACE_UNITS[name])
    return metrics


def report(workload, seed, rounds, trace):
    """``(result line, details)`` for one run's rounds."""
    failures = check(rounds)
    attempted = sum(len(rnd["cells"]) for rnd in rounds)
    failed = len({(index, label) for index, label, _reason in failures})
    details = {"workload": workload, "seed": seed, "trace": trace,
               "failures": [{"round": index, "cell": label, "reason": reason}
                            for index, label, reason in failures],
               "rounds": []}
    for rnd in rounds:
        kept = {key: rnd[key] for key in ("trace", "import_s", "peak_rss_mb")}
        kept["cells"] = [{key: cell[key] for key in
                          ("label", "ops", "setup_s", "measure_s")
                          if key in cell} for cell in rnd["cells"]]
        if "spans" in rnd:
            kept["spans"] = rnd["spans"]
            kept["span_cost_s"] = rnd["span_cost_s"]
        elif not failed:
            kept["end_to_end"] = round_end_to_end(rnd)
        details["rounds"].append(kept)
    metrics = {}
    # A run with a failed cell reports no metrics: its timings cover
    # work that did not happen as it should.
    if not failed and trace:
        for name, (value, unit) in per_layer(*rounds).items():
            metrics[name] = {"value": value, "unit": unit}
    elif not failed:
        summary = summarize_end_to_end(rounds)
        details["end_to_end"] = summary
        for name, unit in END_TO_END_UNITS.items():
            metrics[name] = {"value": summary[name]["value"], "unit": unit}
    line = {"correct": not failures, "attempted": attempted,
            "failed": failed, "metrics": metrics}
    return line, details


# -- command line ------------------------------------------------------------

def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--round-child"]:  # one round, run by spawn_round
        _round_child(*json.loads(argv[1]))
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="time budget for the rounds (default 25)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", metavar="PATH",
                        help="also write every round's details as JSON")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print("run.py: no simulator sources at %s" % SRC, file=sys.stderr)
        return 2
    try:
        rounds = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace))
    except RuntimeError as exc:
        print("run.py: %s" % exc, file=sys.stderr)
        return 2
    line, details = report(args.workload, args.seed, rounds, bool(args.trace))
    for failure in details["failures"]:
        print("FAILED round %(round)d %(cell)s: %(reason)s" % failure,
              file=sys.stderr)
    summary = details.get("end_to_end", {})
    for name, metric in line["metrics"].items():
        spread = summary.get(name)
        extra = (" rounds: median=%r q1=%r q3=%r n=%d"
                 % (spread["median"], spread["q1"], spread["q3"], spread["n"])
                 if spread else "")
        print("%s %r %s%s" % (name, metric["value"], metric["unit"], extra))
    print("error_rate %r ratio" % (line["failed"] / line["attempted"]))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(dict(details, result=line), handle, indent=1,
                      sort_keys=True)
            handle.write("\n")
    print(json.dumps(line, sort_keys=True))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
