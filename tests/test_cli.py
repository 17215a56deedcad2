"""Tests for the command-line interface."""

import io

import pytest

from repro.cli import build_parser, main


def run_cli(argv):
    """Run the CLI; returns (exit_code, stdout_text). Stderr discarded."""
    code, out_text, _err_text = run_cli_streams(argv)
    return code, out_text


def run_cli_streams(argv):
    """Run the CLI capturing both streams: (code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    code = main(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def _bad_flag(argv):
    """The flag whose value in ``argv`` is out of range."""
    return next(argv[i - 1] for i, arg in enumerate(argv)
                if arg.lstrip("-").isdigit())


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_workload(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--workload", "doom"])

    def test_rejects_unknown_mode(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--mode", "paravirt"])

    @pytest.mark.parametrize("argv", [
        ["run", "--workload", "dedup", "--ops", "-5"],
        ["compare", "--ops", "0"],
        ["trace", "dedup", "--ops", "0"],
        ["bench", "--ops", "0", "table2_walk_refs"],
        ["bench", "--repeat", "0"],
        ["fuzz", "--seeds", "0"],
        ["figure5", "--ops", "0"],
        ["sweep", "--workers", "0"],
        ["trace", "dedup", "--every", "0"],
        ["fuzz", "--compare-every", "0"],
        ["fuzz", "--check-every", "0"],
        ["sweep", "--retries", "-1"],
        ["fuzz", "--shrink-budget", "-1"],
        ["sweep", "--timeout", "-1"],
        ["fuzz", "--timeout", "0"],
        ["fuzz", "--time-budget", "-1"],
    ], ids=lambda argv: argv[0] + _bad_flag(argv))
    def test_rejects_non_positive_counts(self, argv, capsys):
        flag = _bad_flag(argv)
        bound = {"--retries": ">= 0", "--shrink-budget": ">= 0",
                 "--timeout": "> 0", "--time-budget": "> 0"}.get(flag, ">= 1")
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert ("argument %s: must be %s" % (flag, bound)
                in capsys.readouterr().err)

    @pytest.mark.parametrize("argv, message", [
        (["figure5", "--workloads", "bogus"], "unknown workload 'bogus'"),
        (["table6", "--workloads", "nope"], "unknown workload 'nope'"),
        (["compare", "--modes", "agile,bogus"], "unknown mode 'bogus'"),
        (["sweep", "--page-sizes", "4K,8K"], "unknown page size '8K'"),
        (["policy-sweep", "--values", "1,x"], "invalid int value: 'x'"),
        (["policy-sweep", "--values", "0"], "must be >= 1, got 0"),
    ], ids=["figure5-workloads", "table6-workloads", "compare-modes",
            "sweep-page-sizes", "policy-sweep-values-x", "policy-sweep-values-0"])
    def test_rejects_bad_list_items(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument %s: %s" % (argv[1], message) in err

    def test_list_arguments_parse_to_lists(self):
        args = build_parser().parse_args(
            ["sweep", "--modes", "nested,agile", "--page-sizes", "4K,2M"])
        assert args.workloads == []  # the default "all"
        assert (args.modes, args.page_sizes) == (["nested", "agile"],
                                                 ["4K", "2M"])
        assert build_parser().parse_args(
            ["policy-sweep", "--values", "3,5"]).values == [3, 5]

    def test_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.workload == "mcf"
        assert args.mode == "agile"
        assert args.page_size == "4K"


class TestCommands:
    def test_list(self):
        code, text = run_cli(["list"])
        assert code == 0
        assert "memcached" in text
        assert "shsp" in text

    def test_run(self):
        code, text = run_cli(["run", "--workload", "astar", "--ops", "4000"])
        assert code == 0
        assert "astar" in text
        assert "agile" in text

    def test_run_verbose_shows_mix(self):
        code, text = run_cli(["run", "--workload", "astar", "--ops", "4000",
                              "--verbose"])
        assert code == 0
        assert "miss mix" in text

    def test_run_2m(self):
        code, text = run_cli(["run", "--workload", "astar", "--ops", "4000",
                              "--page-size", "2M", "--mode", "nested"])
        assert code == 0
        assert "2M" in text

    def test_run_no_pwc_raises_refs(self):
        _code, with_pwc = run_cli(["run", "--workload", "astar",
                                   "--ops", "4000", "--mode", "shadow"])
        _code, without = run_cli(["run", "--workload", "astar",
                                  "--ops", "4000", "--mode", "shadow",
                                  "--no-pwc"])

        def refs(text):
            line = [l for l in text.splitlines() if l.startswith("astar")][0]
            return float(line.split()[5])

        assert refs(without) > refs(with_pwc)

    def test_compare(self):
        code, text = run_cli(["compare", "--workload", "astar",
                              "--ops", "4000", "--modes", "native,agile"])
        assert code == 0
        assert "native" in text
        assert "agile" in text

    def test_figure5_subset(self):
        code, text = run_cli(["figure5", "--ops", "6000",
                              "--workloads", "astar"])
        assert code == 0
        assert "4K:A" in text
        assert "geomean" in text

    def test_table6_subset(self):
        code, text = run_cli(["table6", "--ops", "6000",
                              "--workloads", "astar"])
        assert code == 0
        assert "Table VI" in text

    def test_tables(self):
        code, text = run_cli(["tables"])
        assert code == 0
        assert "Table I" in text
        assert "Table II" in text
        assert "Table III" in text

    def test_policy_sweep(self):
        code, text = run_cli(["policy-sweep", "--workload", "astar",
                              "--ops", "4000",
                              "--param", "write_threshold", "--values", "1,8"])
        assert code == 0
        assert "write_threshold=1" in text
        assert "write_threshold=8" in text


class TestSweepCommand:
    def run_sweep(self, tmp_path, *extra):
        return run_cli_streams(["sweep", "--workloads", "astar",
                                "--modes", "shadow", "--ops", "2000",
                                "--cache-dir", str(tmp_path / "cache"),
                                *extra])

    def test_grid_runs_and_reports(self, tmp_path):
        code, out_text, err_text = self.run_sweep(tmp_path)
        assert code == 0
        assert "Sweep results" in out_text
        assert "astar" in out_text
        assert "1 simulated, 0 cached" in err_text

    def test_warm_cache_rerun_loads_not_simulates(self, tmp_path):
        self.run_sweep(tmp_path)
        code, _out, err_text = self.run_sweep(tmp_path)
        assert code == 0
        assert "0 simulated, 1 cached" in err_text

    def test_no_cache_flag(self, tmp_path):
        self.run_sweep(tmp_path)
        code, _out, err_text = self.run_sweep(tmp_path, "--no-cache")
        assert code == 0
        assert "1 simulated, 0 cached" in err_text

    def test_json_summary_inline(self, tmp_path):
        import json as json_module

        code, out_text, _err = self.run_sweep(tmp_path, "--quiet",
                                              "--json", "-")
        assert code == 0
        payload = json_module.loads(out_text[out_text.index("{"):])
        assert payload["cells"] == 1
        assert payload["results"][0]["status"] in ("ok", "cached")

    def test_json_stdout_is_pure_even_with_progress(self, tmp_path):
        """--json - must emit parseable JSON on stdout while progress
        lines, the results table, and the count summary go to stderr."""
        import json as json_module

        code, out_text, err_text = self.run_sweep(tmp_path, "--json", "-")
        assert code == 0
        payload = json_module.loads(out_text)  # whole stream, not a slice
        assert payload["cells"] == 1
        assert "[1/1]" in err_text
        assert "Sweep results" in err_text
        assert "simulated" in err_text

    def test_json_summary_file(self, tmp_path):
        import json as json_module

        target = tmp_path / "summary.json"
        code, _out, err_text = self.run_sweep(tmp_path, "--json", str(target))
        assert code == 0
        assert "summary written" in err_text
        with open(target, encoding="utf-8") as handle:
            assert json_module.load(handle)["cells"] == 1

    def test_progress_lines_go_to_stderr(self, tmp_path):
        code, out_text, err_text = self.run_sweep(tmp_path)
        assert code == 0
        assert "[1/1] astar/shadow/4K" in err_text
        assert "[1/1]" not in out_text

    def test_trace_dir_writes_cell_payloads(self, tmp_path):
        import json as json_module

        trace_dir = tmp_path / "traces"
        code, _out, err_text = self.run_sweep(
            tmp_path, "--no-cache", "--trace-dir", str(trace_dir))
        assert code == 0
        assert "1 trace payload(s)" in err_text
        files = sorted(trace_dir.glob("*.trace.json"))
        assert len(files) == 1
        with open(files[0], encoding="utf-8") as handle:
            payload = json_module.load(handle)
        assert payload["schema"] == 1
        assert payload["events"]
        assert payload["intervals"]

    def test_rejects_unknown_names(self, tmp_path, capsys):
        for flag, value, what in (("--workloads", "doom", "workload"),
                                  ("--modes", "paravirt", "mode"),
                                  ("--page-sizes", "8K", "page size")):
            with pytest.raises(SystemExit) as exc:
                run_cli_streams(["sweep", flag, value, "--no-cache"])
            assert exc.value.code == 2
            assert "unknown %s %r" % (what, value) in capsys.readouterr().err
        code, _out, text = run_cli_streams(
            ["sweep", "--shard", "2/2", "--no-cache"])
        assert code == 2 and "shard" in text


class TestTraceCommand:
    def test_events_to_stdout(self):
        import json as json_module

        code, out_text, err_text = run_cli_streams(
            ["trace", "astar", "--ops", "3000"])
        assert code == 0
        lines = [l for l in out_text.splitlines() if l]
        assert lines
        first = json_module.loads(lines[0])
        assert set(first) == {"kind", "ts", "dur", "data"}
        assert "events" in err_text

    def test_events_to_file_and_perfetto(self, tmp_path):
        import json as json_module

        events = tmp_path / "out.jsonl"
        perfetto = tmp_path / "out.json"
        code, out_text, err_text = run_cli_streams(
            ["trace", "astar", "--ops", "3000", "--events", str(events),
             "--perfetto", str(perfetto)])
        assert code == 0
        assert out_text == ""  # everything went to files / stderr
        assert events.stat().st_size > 0
        with open(perfetto, encoding="utf-8") as handle:
            trace = json_module.load(handle)
        assert trace["traceEvents"]
        assert "wrote" in err_text

    def test_trace_rejects_unknown_workload(self):
        with pytest.raises(SystemExit):
            run_cli_streams(["trace", "doom"])


class TestProfileCommand:
    def test_flamegraph_on_stdout(self):
        code, out_text, _err = run_cli_streams(
            ["profile", "astar", "--ops", "3000", "--mode", "shadow"])
        assert code == 0
        assert "cycle attribution" in out_text
        assert "page_walk" in out_text
        assert "vmm" in out_text

    def test_perfetto_export(self, tmp_path):
        import json as json_module

        target = tmp_path / "prof.json"
        code, _out, err_text = run_cli_streams(
            ["profile", "astar", "--ops", "3000", "--perfetto", str(target)])
        assert code == 0
        assert "wrote" in err_text
        with open(target, encoding="utf-8") as handle:
            trace = json_module.load(handle)
        assert {"traceEvents", "displayTimeUnit", "otherData"} <= set(trace)
