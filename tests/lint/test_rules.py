"""Per-rule positive and negative fixtures for the lint suite."""

from .helpers import lint_sources, rule_ids


class TestUnseededRandom:
    def test_flags_global_random_and_wall_clock(self, tmp_path):
        findings = lint_sources(tmp_path, {"bad.py": (
            "import random\n"
            "import time\n"
            "import numpy as np\n"
            "x = random.randint(0, 4)\n"
            "y = time.time()\n"
            "z = np.random.default_rng()\n"
            "w = np.random.rand(3)\n"
        )})
        assert rule_ids(findings) == ["REPRO101"]
        assert len(findings) == 4
        messages = " | ".join(f.message for f in findings)
        assert "wall-clock" in messages
        assert "without a seed" in messages
        assert "global" in messages

    def test_tracks_import_aliases(self, tmp_path):
        findings = lint_sources(tmp_path, {"bad.py": (
            "from time import perf_counter as pc\n"
            "from numpy.random import default_rng\n"
            "t = pc()\n"
            "r = default_rng()\n"
        )})
        assert len(findings) == 2

    def test_tracks_dotted_module_alias_chains(self, tmp_path):
        # `import x.y as z` binds z to the full dotted path, so both the
        # aliased wall clock and the aliased numpy global state resolve.
        findings = lint_sources(tmp_path, {"bad.py": (
            "import time as clock\n"
            "import numpy.random as nr\n"
            "t = clock.perf_counter()\n"
            "r = nr.rand(3)\n"
        )})
        assert len(findings) == 2
        messages = " | ".join(f.message for f in findings)
        assert "time.perf_counter" in messages
        assert "numpy.random.rand" in messages

    def test_seeded_constructions_are_clean(self, tmp_path):
        findings = lint_sources(tmp_path, {"good.py": (
            "import random\n"
            "import numpy as np\n"
            "rng = np.random.default_rng(42)\n"
            "r2 = random.Random(7)\n"
            "x = rng.integers(0, 10)\n"
        )})
        assert findings == []


class TestFuzzEntropy:
    """OS entropy is one more REPRO101 source: a fuzz case is named by
    its ``(seed, profile, ops)`` and must regenerate from it."""

    def test_flags_entropy_sources_inside_fuzz(self, tmp_path):
        findings = lint_sources(tmp_path, {"repro/fuzz/bad.py": (
            "import os\n"
            "import random\n"
            "import secrets\n"
            "import uuid\n"
            "r = random.Random()\n"
            "blob = os.urandom(8)\n"
            "tok = secrets.token_bytes(4)\n"
            "name = uuid.uuid4()\n"
            "sr = random.SystemRandom()\n"
        )})
        ids = [f.rule_id for f in findings]
        assert ids.count("REPRO101") == 5
        messages = " | ".join(f.message for f in findings)
        assert "without a seed" in messages and "OS entropy" in messages

    def test_seeded_fuzz_code_is_clean(self, tmp_path):
        findings = lint_sources(tmp_path, {"repro/fuzz/good.py": (
            "import random\n"
            "def generate(seed):\n"
            "    return random.Random(seed).random()\n"
        )})
        assert findings == []


class TestMutableDefault:
    def test_flags_literals_and_constructors(self, tmp_path):
        findings = lint_sources(tmp_path, {"bad.py": (
            "def f(a, b=[]):\n"
            "    return a, b\n"
            "def g(*, c={}):\n"
            "    return c\n"
            "def h(d=dict()):\n"
            "    return d\n"
            "k = lambda e=set(): e\n"
        )})
        assert rule_ids(findings) == ["REPRO102"]
        assert len(findings) == 4

    def test_immutable_defaults_are_clean(self, tmp_path):
        findings = lint_sources(tmp_path, {"good.py": (
            "def f(a=None, b=(), c=0, d='x'):\n"
            "    return a, b, c, d\n"
        )})
        assert findings == []


class TestBareExcept:
    def test_flags_bare_except(self, tmp_path):
        findings = lint_sources(tmp_path, {"bad.py": (
            "try:\n"
            "    pass\n"
            "except:\n"
            "    pass\n"
        )})
        assert rule_ids(findings) == ["REPRO103"]

    def test_typed_handlers_are_clean(self, tmp_path):
        findings = lint_sources(tmp_path, {"good.py": (
            "try:\n"
            "    pass\n"
            "except (ValueError, KeyError):\n"
            "    pass\n"
            "except Exception:\n"
            "    pass\n"
        )})
        assert findings == []


class TestBenchmarksExemptions:
    def test_benchmarks_may_read_the_wall_clock(self, tmp_path):
        # Timing harnesses are the one place wall-clock reads are the
        # point; REPRO101 skips benchmarks/ entirely.
        findings = lint_sources(tmp_path, {"benchmarks/bench_x.py": (
            "import time\n"
            "from repro.bench import bench_target\n"
            "@bench_target('x', output='BENCH_x.json')\n"
            "def bench(ctx):\n"
            "    return {'t': time.perf_counter()}\n"
        )})
        assert findings == []

    def test_src_is_still_covered(self, tmp_path):
        findings = lint_sources(tmp_path, {"repro/core/machine.py": (
            "import time\n"
            "t = time.perf_counter()\n"
        )})
        assert rule_ids(findings) == ["REPRO101"]


class TestBenchRegistration:
    def test_unregistered_bench_file_is_flagged(self, tmp_path):
        findings = lint_sources(tmp_path, {"benchmarks/bench_orphan.py": (
            "def bench(ctx):\n"
            "    return {}\n"
        )})
        assert rule_ids(findings) == ["REPRO302"]
        assert "registers no target" in findings[0].message

    def test_registered_bench_file_is_clean(self, tmp_path):
        findings = lint_sources(tmp_path, {"benchmarks/bench_good.py": (
            "from repro.bench import bench_target\n"
            "@bench_target('good', output='BENCH_good.json')\n"
            "def bench(ctx):\n"
            "    return {}\n"
        )})
        assert findings == []

    def test_missing_output_is_flagged(self, tmp_path):
        findings = lint_sources(tmp_path, {"benchmarks/bench_bad.py": (
            "from repro.bench import bench_target\n"
            "@bench_target('bad')\n"
            "def bench(ctx):\n"
            "    return {}\n"
        )})
        assert rule_ids(findings) == ["REPRO302"]
        assert "no output=" in findings[0].message

    def test_non_literal_output_is_flagged(self, tmp_path):
        findings = lint_sources(tmp_path, {"benchmarks/bench_bad.py": (
            "from repro.bench import bench_target\n"
            "NAME = 'BENCH_bad.json'\n"
            "@bench_target('bad', output=NAME)\n"
            "def bench(ctx):\n"
            "    return {}\n"
        )})
        assert rule_ids(findings) == ["REPRO302"]
        assert "string literal" in findings[0].message

    def test_malformed_output_name_is_flagged(self, tmp_path):
        findings = lint_sources(tmp_path, {"benchmarks/bench_bad.py": (
            "from repro.bench import bench_target\n"
            "@bench_target('bad', output='results-bad.json')\n"
            "def bench(ctx):\n"
            "    return {}\n"
        )})
        assert rule_ids(findings) == ["REPRO302"]
        assert "BENCH_<name>.json" in findings[0].message

    def test_positional_output_argument_is_accepted(self, tmp_path):
        findings = lint_sources(tmp_path, {"benchmarks/bench_pos.py": (
            "from repro.bench import bench_target\n"
            "@bench_target('pos', 'BENCH_pos.json')\n"
            "def bench(ctx):\n"
            "    return {}\n"
        )})
        assert findings == []

    def test_non_bench_files_out_of_scope(self, tmp_path):
        findings = lint_sources(tmp_path, {
            "benchmarks/_util.py": "X = 1\n",
            "benchmarks/conftest.py": "Y = 2\n",
            "repro/bench/registry.py": "Z = 3\n",
        })
        assert findings == []
