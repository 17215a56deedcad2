"""Target registration and discovery for the bench harness."""

import pytest

from repro.bench import BenchTarget, Gate, bench_target, discover


def _write(tmp_path, name, source):
    (tmp_path / name).write_text(source)


REGISTERED = (
    "from repro.bench import bench_target\n"
    "@bench_target('alpha', output='BENCH_alpha.json')\n"
    "def bench(ctx):\n"
    "    return {'value': 1}\n"
)


class TestGate:
    def test_rejects_unknown_direction(self):
        with pytest.raises(ValueError):
            Gate("m", direction="sideways")

    def test_rejects_negative_tolerance(self):
        with pytest.raises(ValueError):
            Gate("m", tolerance=-0.1)

    def test_dict_round_trip(self):
        gate = Gate("summary.speedup", "higher", 0.25)
        revived = Gate.from_dict(gate.to_dict())
        assert (revived.metric, revived.direction, revived.tolerance) == (
            "summary.speedup", "higher", 0.25)


class TestDecorator:
    def test_attaches_target_without_global_state(self):
        @bench_target("t", output="BENCH_t.json")
        def bench(ctx):
            return {}

        target = bench.__bench_target__
        assert isinstance(target, BenchTarget)
        assert target.name == "t" and target.output == "BENCH_t.json"
        assert target.func is bench

    def test_rejects_malformed_output_name(self):
        with pytest.raises(ValueError):
            bench_target("t", output="results.json")
        with pytest.raises(ValueError):
            bench_target("t", output="BENCH_t.txt")


class TestDiscover:
    def test_finds_registered_targets(self, tmp_path):
        _write(tmp_path, "bench_alpha.py", REGISTERED)
        targets = discover(str(tmp_path))
        assert [t.name for t in targets] == ["alpha"]

    def test_skips_unregistered_files(self, tmp_path):
        _write(tmp_path, "bench_alpha.py", REGISTERED)
        _write(tmp_path, "bench_orphan.py", "X = 1\n")
        _write(tmp_path, "not_a_bench.py", "Y = 2\n")
        assert [t.name for t in discover(str(tmp_path))] == ["alpha"]

    def test_duplicate_target_names_raise(self, tmp_path):
        _write(tmp_path, "bench_alpha.py", REGISTERED)
        _write(tmp_path, "bench_beta.py",
               REGISTERED.replace("BENCH_alpha", "BENCH_beta"))
        with pytest.raises(ValueError, match="duplicate"):
            discover(str(tmp_path))

    def test_unknown_requested_name_raises(self, tmp_path):
        _write(tmp_path, "bench_alpha.py", REGISTERED)
        with pytest.raises(KeyError, match="alpha"):
            discover(str(tmp_path), names=["nope"])

    def test_missing_directory_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            discover(str(tmp_path / "nowhere"))

    def test_bench_files_can_import_util_helpers(self, tmp_path):
        # Shared helpers live next to the bench files and import as
        # plain `_util`.
        _write(tmp_path, "_util.py", "ANSWER = 41\n")
        _write(tmp_path, "bench_alpha.py",
               "from _util import ANSWER\n"
               "from repro.bench import bench_target\n"
               "@bench_target('alpha', output='BENCH_alpha.json')\n"
               "def bench(ctx):\n"
               "    return {'value': ANSWER + 1}\n")
        (target,) = discover(str(tmp_path))
        assert target.func(None) == {"value": 42}
