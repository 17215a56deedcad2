"""The `repro bench` CLI verb: streams, exit codes, regression gating."""

import io
import json

import pytest

from repro.cli import main


def run_cli_streams(argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


BENCH_SOURCE = (
    "from repro.bench import Gate, bench_target\n"
    "@bench_target('demo', output='BENCH_demo.json',\n"
    "              gates=(Gate('summary.speedup', 'higher', 0.2),))\n"
    "def bench(ctx):\n"
    "    return {'summary': {'speedup': 10.0, 'ops': ctx.ops(8000)}}\n"
)


@pytest.fixture
def bench_dir(tmp_path):
    directory = tmp_path / "benchmarks"
    directory.mkdir()
    (directory / "bench_demo.py").write_text(BENCH_SOURCE)
    return directory


def bench_argv(bench_dir, out_dir, *extra):
    return ["bench", "--bench-dir", str(bench_dir),
            "--out-dir", str(out_dir)] + list(extra)


class TestBenchCommand:
    def test_list_shows_targets_and_gates(self, bench_dir, tmp_path):
        code, out, _err = run_cli_streams(
            bench_argv(bench_dir, tmp_path, "--list"))
        assert code == 0
        assert "demo" in out and "BENCH_demo.json" in out
        assert "summary.speedup" in out

    def test_run_writes_schema2_report(self, bench_dir, tmp_path):
        code, out, err = run_cli_streams(
            bench_argv(bench_dir, tmp_path, "--quick"))
        assert code == 0
        report = json.loads((tmp_path / "BENCH_demo.json").read_text())
        assert report["schema"] == 2
        assert report["quick"] is True
        assert report["metrics"]["summary.speedup"] == 10.0
        assert report["metrics"]["summary.ops"] == 1000  # quick floor
        assert "provenance" in report
        assert "BENCH_demo.json" in out
        assert "bench demo" in err  # progress stays on stderr

    def test_compare_against_matching_baseline_passes(self, bench_dir,
                                                      tmp_path):
        run_cli_streams(bench_argv(bench_dir, tmp_path))
        baseline = tmp_path / "BENCH_demo.json"
        code, out, _err = run_cli_streams(
            bench_argv(bench_dir, tmp_path, "--compare", str(baseline)))
        assert code == 0
        assert "ok" in out

    def test_injected_regression_fails_the_compare(self, bench_dir,
                                                   tmp_path):
        # The acceptance scenario: inflate the baseline's gated metric
        # beyond tolerance and the comparison must exit non-zero.
        run_cli_streams(bench_argv(bench_dir, tmp_path))
        baseline_path = tmp_path / "BENCH_demo.json"
        baseline = json.loads(baseline_path.read_text())
        baseline["metrics"]["summary.speedup"] = 20.0  # fresh 10.0 = -50%
        baseline_path.write_text(json.dumps(baseline))
        code, out, _err = run_cli_streams(
            bench_argv(bench_dir, tmp_path, "--compare", str(baseline_path)))
        assert code == 1
        assert "REGRESSED" in out
        assert "summary.speedup" in out

    def test_compare_loads_baseline_before_overwriting_it(self, bench_dir,
                                                          tmp_path):
        # Comparing against the file the run is about to rewrite must
        # gate against the *old* numbers, not the fresh ones.
        run_cli_streams(bench_argv(bench_dir, tmp_path))
        baseline_path = tmp_path / "BENCH_demo.json"
        baseline = json.loads(baseline_path.read_text())
        baseline["metrics"]["summary.speedup"] = 20.0
        baseline_path.write_text(json.dumps(baseline))
        code, _out, _err = run_cli_streams(
            bench_argv(bench_dir, tmp_path, "--compare", str(baseline_path)))
        assert code == 1

    def test_unknown_target_is_a_usage_error(self, bench_dir, tmp_path):
        code, _out, err = run_cli_streams(
            bench_argv(bench_dir, tmp_path, "nope"))
        assert code == 2
        assert "unknown benchmark target" in err

    def test_missing_baseline_is_a_usage_error(self, bench_dir, tmp_path):
        code, _out, err = run_cli_streams(
            bench_argv(bench_dir, tmp_path, "--compare",
                       str(tmp_path / "absent.json")))
        assert code == 2
        assert "cannot load baseline" in err

    def test_baseline_for_unselected_target_is_a_usage_error(self, bench_dir,
                                                             tmp_path):
        other = tmp_path / "BENCH_other.json"
        other.write_text(json.dumps({"schema": 2, "benchmark": "other",
                                     "metrics": {}, "gates": []}))
        code, _out, err = run_cli_streams(
            bench_argv(bench_dir, tmp_path, "--compare", str(other)))
        assert code == 2
        assert "not among the selected targets" in err

    def test_failing_benchmark_body_exits_one(self, bench_dir, tmp_path):
        (bench_dir / "bench_boom.py").write_text(
            "from repro.bench import bench_target\n"
            "@bench_target('boom', output='BENCH_boom.json')\n"
            "def bench(ctx):\n"
            "    raise RuntimeError('kaboom')\n")
        code, _out, err = run_cli_streams(
            bench_argv(bench_dir, tmp_path, "boom"))
        assert code == 1
        assert "kaboom" in err

    def test_json_dash_keeps_stdout_pure(self, bench_dir, tmp_path):
        code, out, err = run_cli_streams(
            bench_argv(bench_dir, tmp_path, "--quick", "--json", "-"))
        assert code == 0
        payload = json.loads(out)  # stdout must parse as-is
        assert payload["schema"] == 1
        assert payload["reports"][0]["benchmark"] == "demo"
        assert "BENCH_demo.json" in err  # table diverted to stderr
