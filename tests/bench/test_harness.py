"""BenchContext budgets, report envelopes, and report loading."""

import json

import pytest

from repro.bench import (
    BENCH_REPORT_SCHEMA_VERSION,
    BenchContext,
    Gate,
    bench_target,
    provenance,
    run_target,
)
from repro.bench.harness import flatten_numeric, load_report


class TestBenchContext:
    def test_ops_full_by_default(self):
        assert BenchContext().ops(200_000) == 200_000

    def test_ops_quick_scales_down(self):
        ctx = BenchContext(quick=True)
        assert ctx.ops(200_000) == 20_000
        assert ctx.ops(200_000, quick=5_000) == 5_000
        assert ctx.ops(4_000) == 1_000  # floor

    def test_ops_override_wins(self):
        ctx = BenchContext(quick=True, ops_override=777)
        assert ctx.ops(200_000, quick=5_000) == 777

    def test_best_of_returns_min_elapsed(self):
        calls = []
        ctx = BenchContext()
        best = ctx.best_of(lambda: calls.append(1), repeat=4, warmup=2)
        assert len(calls) == 6  # 2 warmup + 4 timed
        assert best >= 0.0


class TestFlattenNumeric:
    def test_nested_dicts_lists_and_bool_exclusion(self):
        flat = flatten_numeric({
            "a": {"b": 1, "flag": True},
            "xs": [10, {"y": 2.5}],
            "name": "text",
        })
        assert flat == {"a.b": 1, "xs.0": 10, "xs.1.y": 2.5}


class TestRunTarget:
    def _target(self, result):
        @bench_target("demo", output="BENCH_demo.json",
                      gates=(Gate("value", "higher", 0.1),))
        def bench(ctx):
            return result

        return bench.__bench_target__

    def test_report_envelope(self, tmp_path):
        target = self._target({"value": 3, "nested": {"x": 1.5}})
        ctx = BenchContext(quick=True)
        report, path = run_target(target, ctx, out_dir=str(tmp_path))
        assert report["schema"] == BENCH_REPORT_SCHEMA_VERSION
        assert report["benchmark"] == "demo"
        assert report["quick"] is True
        assert report["gates"] == [
            {"metric": "value", "direction": "higher", "tolerance": 0.1}]
        assert report["result"] == {"value": 3, "nested": {"x": 1.5}}
        assert report["metrics"] == {"value": 3, "nested.x": 1.5}
        assert set(report) == {"schema", "benchmark", "quick", "provenance",
                               "gates", "result", "metrics"}
        for key in ("host", "platform", "python", "git_sha", "generated_at"):
            assert key in report["provenance"]
        with open(path, encoding="utf-8") as handle:
            assert json.load(handle) == report

    def test_non_dict_result_rejected(self, tmp_path):
        target = self._target(result=42)
        with pytest.raises(TypeError):
            run_target(target, BenchContext(), out_dir=str(tmp_path))

    def test_load_report_round_trip(self, tmp_path):
        target = self._target({"value": 3})
        _report, path = run_target(target, BenchContext(),
                                   out_dir=str(tmp_path))
        assert load_report(path)["benchmark"] == "demo"

    def test_load_report_rejects_foreign_schema(self, tmp_path):
        path = tmp_path / "BENCH_old.json"
        path.write_text(json.dumps({"schema": 1, "benchmark": "old"}))
        with pytest.raises(ValueError, match="regenerate"):
            load_report(str(path))


class TestProvenance:
    def test_git_sha_matches_this_checkout(self):
        stamp = provenance()
        # The bench package lives inside the repo, so rev-parse resolves.
        assert stamp["git_sha"] is None or len(stamp["git_sha"]) == 40
