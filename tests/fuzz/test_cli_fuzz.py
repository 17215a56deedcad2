"""CLI tests for ``repro fuzz``: exit codes and stream discipline.

The contract (matching ``sweep``): human tables on stdout, progress and
diagnostics on stderr, pure JSON on stdout under ``--json -``, exit 0
clean / 1 on oracle mismatch (with the reproducer path on stderr) / 2 on
bad arguments.
"""

import json

import pytest

from repro.fuzz.corpus import make_case, save_case
from repro.fuzz.oracle import DifferentialOracle
from repro.fuzz.scenario import ScenarioGenerator
from repro.hw.walker import PageWalker
from tests.test_cli import run_cli_streams

CLEAN = ["fuzz", "--seeds", "2", "--ops", "40", "--quiet"]


def _corpus_with_passing_case(tmp_path):
    scenario = ScenarioGenerator("default").generate(seed=5, ops=25)
    oracle = DifferentialOracle(modes=("native", "shadow"))
    case = make_case(scenario, oracle, note="cli test case")
    return save_case(str(tmp_path), case)


def _break_walker(monkeypatch):
    original = PageWalker.shadow_walk
    monkeypatch.setattr(
        PageWalker, "shadow_walk",
        lambda self, va, ctx, is_write=False: original(self, va, ctx,
                                                       is_write=False))


class TestArgumentValidation:
    def test_unknown_mode_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli_streams(["fuzz", "--modes", "native,warp"])
        assert exc.value.code == 2
        assert "unknown mode 'warp'" in capsys.readouterr().err

    def test_unknown_page_size_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli_streams(["fuzz", "--page-sizes", "5G"])
        assert exc.value.code == 2
        assert "unknown page size '5G'" in capsys.readouterr().err

    def test_bad_shard_exits_2(self):
        code, _out, err = run_cli_streams(CLEAN + ["--shard", "9/3"])
        assert code == 2
        assert err.strip()

    def test_unreadable_case_exits_2(self, tmp_path):
        missing = str(tmp_path / "nope.json")
        code, _out, err = run_cli_streams(["fuzz", "--replay", missing])
        assert code == 2
        assert "cannot load case" in err


class TestCleanCampaign:
    def test_exit_zero_and_summary_on_stdout(self, tmp_path):
        code, out, _err = run_cli_streams(
            CLEAN + ["--corpus-out", str(tmp_path / "corpus")])
        assert code == 0
        assert "2 case(s), 2 clean, 0 failed" in out

    def test_json_dash_keeps_stdout_pure(self, tmp_path):
        code, out, err = run_cli_streams(
            CLEAN + ["--corpus-out", str(tmp_path / "corpus"),
                     "--json", "-"])
        assert code == 0
        summary = json.loads(out)  # stdout must be valid JSON, only
        assert summary["clean"] == 2
        assert "case(s)" in err  # the human table moved to stderr

    def test_json_file(self, tmp_path):
        target = tmp_path / "report.json"
        code, _out, err = run_cli_streams(CLEAN + ["--json", str(target)])
        assert code == 0
        assert json.loads(target.read_text())["failed"] == 0
        assert str(target) in err


class TestMismatchCampaign:
    def test_exit_one_with_reproducer_on_stderr(self, tmp_path, monkeypatch):
        _break_walker(monkeypatch)
        corpus = tmp_path / "corpus"
        code, out, err = run_cli_streams(
            ["fuzz", "--seeds", "4", "--ops", "80", "--quiet",
             "--modes", "native,shadow", "--workers", "1",
             "--shrink-budget", "120",
             "--corpus-out", str(corpus)])
        assert code == 1
        assert "failed" in out
        assert "MISMATCH" in err
        assert "reproducer" in err
        assert str(corpus) in err
        assert list(corpus.glob("*.json")), "no reproducer written"

    def test_failure_trace_artifact_written(self, tmp_path, monkeypatch):
        _break_walker(monkeypatch)
        corpus = tmp_path / "corpus"
        code, _out, err = run_cli_streams(
            ["fuzz", "--seeds", "4", "--ops", "80", "--quiet",
             "--modes", "native,shadow", "--workers", "1",
             "--shrink-budget", "120",
             "--corpus-out", str(corpus)])
        assert code == 1
        assert "obs trace" in err
        traces = list(corpus.glob("*.trace.json"))
        assert traces
        payload = json.loads(traces[0].read_text())
        assert "events" in payload


class TestReplay:
    def test_replay_clean_case_exits_zero(self, tmp_path):
        path = _corpus_with_passing_case(tmp_path)
        code, out, err = run_cli_streams(["fuzz", "--replay", path])
        assert code == 0
        assert "1 case(s) replayed, 0 failed" in out
        assert "[replay] ok" in err

    def test_replay_directory(self, tmp_path):
        _corpus_with_passing_case(tmp_path)
        code, out, _err = run_cli_streams(["fuzz", "--corpus",
                                           str(tmp_path)])
        assert code == 0
        assert "1 case(s) replayed, 0 failed" in out

    def test_replay_failure_exits_one(self, tmp_path, monkeypatch):
        path = _corpus_with_passing_case(tmp_path)
        _break_walker(monkeypatch)
        code, _out, err = run_cli_streams(["fuzz", "--replay", path])
        assert code == 1
        assert "REPLAY FAILED" in err

    def test_replay_json_dash_purity(self, tmp_path):
        path = _corpus_with_passing_case(tmp_path)
        code, out, _err = run_cli_streams(
            ["fuzz", "--replay", path, "--json", "-", "--quiet"])
        assert code == 0
        assert json.loads(out)["replayed"] == 1
