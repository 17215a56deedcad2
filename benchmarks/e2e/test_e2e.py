"""Smoke tests for the end-to-end benchmark, at a small fraction of its ops.

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

import copy
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

import run

run._use_sources()

import cells  # noqa: E402  (needs the sources on sys.path)

BENCHMARK_JSON = os.path.join(run.ROOT, "BENCHMARK.json")
NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")
SEED = 1
#: Ops per cell as a share of the full run: at least 5k ops, and 10k
#: where only the suite's timer tick (every 10k ops) enters the guest
#: kernel in the measured window, so every span runs as in a full run.
SCALE = {"fig5": 0.34, "steady_hits": 0.05, "walk_storm": 0.07,
         "pt_churn": 0.05}


@pytest.fixture(scope="module")
def spec():
    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def traced_runs():
    """Per workload: (rounds, result line) of a small traced run."""
    runs = {}
    for workload in run.WORKLOAD_NAMES:
        rounds = run.measure(workload, SEED, 0, True, scale=SCALE[workload])
        line, _details = run.report(workload, SEED, rounds, True)
        runs[workload] = rounds, line
    return runs


def test_benchmark_json_names_what_the_benchmark_runs(spec):
    assert spec["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(run.WORKLOAD_NAMES) == set(cells.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END_UNITS
    names = ([m["name"] for m in spec["end_to_end"]]
             + [m["name"] for m in spec["per_layer"]])
    assert all(NAME_RE.match(name) for name in names)
    assert len(names) == len(set(names))
    assert len(spec["end_to_end"]) <= 16
    assert len(spec["per_layer"]) <= 128
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_every_metric_is_emitted(spec, traced_runs):
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for workload, (rounds, line) in traced_runs.items():
        assert line["correct"] and line["failed"] == 0, workload
        assert {name: metric["unit"] for name, metric
                in line["metrics"].items()} == per_layer, workload
        plain, _details = run.report(workload, SEED, rounds[:1], False)
        assert {name: metric["unit"] for name, metric
                in plain["metrics"].items()} == run.END_TO_END_UNITS


def test_no_reported_time_is_constant_zero(traced_runs):
    """A span that never runs on a workload would read 0 s on every run."""
    zeros = [(workload, name)
             for workload, (_rounds, line) in traced_runs.items()
             for name, metric in line["metrics"].items()
             if metric["unit"] == "s" and not metric["value"] > 0]
    assert zeros == []


def test_layer_self_times_add_up_to_the_traced_wall(traced_runs):
    for workload, (rounds, line) in traced_runs.items():
        metrics = {name: m["value"] for name, m in line["metrics"].items()}
        attributed = sum(metrics[layer + phase] for layer in run.LAYERS
                         for phase in (".setup_self_s", ".measure_self_s"))
        spans = sum(span["calls"] for span in rounds[1]["spans"].values())
        wrappers = spans * metrics["trace.span_cost_ns"] * 1e-9
        assert attributed + wrappers == pytest.approx(
            metrics["trace.wall_s"], rel=0.02), workload


def test_workloads_stress_the_layers_they_are_named_for(traced_runs):
    walk_metrics = traced_runs["walk_storm"][1]["metrics"]
    assert walk_metrics["sim.tlb_hit_ratio"]["value"] < 0.5
    churn_rounds = traced_runs["pt_churn"][0]
    for cell in churn_rounds[0]["cells"]:
        if cell["metrics"]["mode"] == "shadow":
            traps_per_kop = 1000.0 * cell["derived"]["vmtraps"] / \
                cell["metrics"]["ops"]
            assert traps_per_kop > 10, cell["label"]


def test_seed_changes_the_op_stream_but_not_the_checks():
    first = cells.run_round("pt_churn", 1, scale=0.02)
    second = cells.run_round("pt_churn", 2, scale=0.02)
    assert run.check([first]) == []
    assert run.check([second]) == []
    assert ([c["metrics"] for c in first["cells"]]
            != [c["metrics"] for c in second["cells"]])


def test_checks_reject_wrong_outputs(traced_runs):
    rounds = traced_runs["fig5"][0]
    assert run.check(rounds) == []

    changed = copy.deepcopy(rounds)
    changed[1]["cells"][0]["metrics"]["walk_refs"] += 1
    assert [f[:2] for f in run.check(changed)] == [
        (1, changed[1]["cells"][0]["label"])]

    short = copy.deepcopy(rounds[:1])
    short[0]["cells"][0]["ops"] += 10 ** 6
    assert "ops" in run.check(short)[0][2]

    claim = copy.deepcopy(rounds[:1])
    for cell in claim[0]["cells"]:
        if cell["label"].startswith("gcc/agile/4K"):
            cell["derived"]["vmm_overhead"] += 1.0
    reasons = [reason for _i, _label, reason in run.check(claim)]
    assert reasons and all("best of nested and shadow" in r for r in reasons)


def test_refuses_to_run_without_the_simulator(tmp_path):
    shutil.copy(BENCHMARK_JSON, tmp_path / "BENCHMARK.json")
    shutil.copytree(run.HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "fig5",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
