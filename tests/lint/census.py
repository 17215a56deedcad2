"""The lint rule census: which rules does some mutant need?

Each mutant is one realistic bug planted in a copy of the ``repro``
package by a mutation operator family (annotation swaps, stripped
effect markers, unread config fields, injected nondeterminism, upward
imports, dropped dispatch handlers, ...). For every mutant the census
records

* the rule ids ``repro check --no-cache`` (the deep rule set) reports,
* the first failing runtime oracle: the regression-corpus replay
  (``repro fuzz --corpus corpus/regression``), then tier-1 minus the
  tests that call the linter, stopping at the first failure. Mutants
  that only touch annotations skip this step: the ``repro.common``
  decorators are runtime no-ops by design.

A rule is *needed* by a mutant when it is the only catcher: no other
rule fires and no runtime oracle fails. A rule no mutant needs is a
candidate for deletion. Run from the repository root::

    PYTHONPATH=src python -m tests.lint.census

which rewrites the census section of ``docs/static_analysis.md``
(about 20 minutes on 2 vCPUs; the runtime oracles run two mutants at a
time).
"""

import collections
import os
import re
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from repro.lint import DEEP_RULES
from repro.lint.engine import LintEngine

from tests.lint.helpers import mutate_package, package_dir

REPO = Path(__file__).resolve().parents[2]
DOC = REPO / "docs" / "static_analysis.md"
BEGIN, END = "<!-- census:begin -->", "<!-- census:end -->"

#: What a runtime oracle run copies next to the mutant package.
RUNTIME_TREE = ("tests", "benchmarks", "corpus", "pyproject.toml")
#: Test order for the runtime oracle: fast unit suites first, so a
#: caught mutant stops early; the slow sweep/CLI/claims suites last.
RUNTIME_TESTS = ("tests/common", "tests/mem", "tests/hw", "tests/guest",
                 "tests/vmm", "tests/core", "tests/workloads", "tests/obs",
                 "tests/host", "tests/fuzz", "tests/integration",
                 "tests/properties", "tests/runner", "tests/test_cli.py",
                 "tests/analysis", "tests/bench")
RUNTIME_TIMEOUT_S = 1200
WORKERS = 2

Mutant = collections.namedtuple(
    "Mutant", "family relpath needle replacement annotation_only root")

#: Address-domain swaps: one across spaces, one across units.
SPACE_SWAP = {"gva": "gpa", "gpa": "hpa", "hpa": "gpa",
              "vpn": "gfn", "gfn": "hfn", "hfn": "gfn"}
UNIT_SWAP = {"gva": "vpn", "vpn": "gva", "gpa": "gfn", "gfn": "gpa",
             "hpa": "hfn", "hfn": "hpa", "addr": "frame",
             "frame": "addr", "offset": "addr"}
CLOCK_SWAP = {"guest_sim": "host_wall", "vm_virtual": "host_wall",
              "host_wall": "guest_sim", "duration": "guest_sim"}
#: Vocabulary modules: they define the annotations, they carry none.
ANNOTATION_FREE = ("lint/", "common/addrspace.py", "common/timedomain.py",
                   "common/effects.py")


def _sources():
    root = Path(package_dir())
    for path in sorted(root.rglob("*.py")):
        relpath = path.relative_to(root).as_posix()
        if not relpath.startswith(ANNOTATION_FREE):
            yield relpath, path.read_text()


def _edit(relpath, source, index, new_lines, family, annotation_only,
          through_def=True):
    """A mutant replacing line ``index`` (plus the decorator stack down
    to its ``def``, kept verbatim, so the needle names the function)."""
    lines = source.splitlines(keepends=True)
    last = index + 1
    if through_def:
        while last < len(lines) and not re.match(r"\s*(async\s+)?def ",
                                                 lines[last - 1]):
            last += 1
    first = index
    while True:
        needle = "".join(lines[first:last])
        if source.count(needle) == 1 or first == 0:
            break
        first -= 1
    replacement = "".join(lines[first:index] + list(new_lines)
                          + lines[index + 1:last])
    return Mutant(family, relpath, needle, replacement, annotation_only,
                  "src")


def _literal_swaps(relpath, source, decorator, table, family):
    lines = source.splitlines(keepends=True)
    for index, line in enumerate(lines):
        if not re.match(r"\s*@%s\(" % decorator, line):
            continue
        for match in re.finditer(r'"(\w+)"', line):
            for swaps in table:
                new = swaps.get(match.group(1))
                if new is not None:
                    swapped = (line[:match.start(1)] + new
                               + line[match.end(1):])
                    yield _edit(relpath, source, index, [swapped], family,
                                True)


def _line_drops(relpath, source, pattern, family):
    lines = source.splitlines(keepends=True)
    for index, line in enumerate(lines):
        if re.match(r"\s*@%s\b" % pattern, line):
            yield _edit(relpath, source, index, [], family, True)


def annotation_mutants():
    for relpath, source in _sources():
        for decorator in ("takes", "returns", "translates"):
            yield from _literal_swaps(relpath, source, decorator,
                                      (SPACE_SWAP, UNIT_SWAP),
                                      "domain swap")
        yield from _literal_swaps(relpath, source, "cycles", (CLOCK_SWAP,),
                                  "clock swap")
        yield from _literal_swaps(relpath, source, "advances", (CLOCK_SWAP,),
                                  "clock swap")
        yield from _line_drops(relpath, source, "(charges|advances)",
                               "dropped @charges/@advances")
        yield from _line_drops(relpath, source, "translates",
                               "dropped @translates")
        yield from _line_drops(relpath, source,
                               "(trap_handler|policy_decision)",
                               "stripped effect marker")


def _src(family, relpath, needle, replacement):
    return Mutant(family, relpath, needle, replacement, False, "src")


def _tuple_drops(relpath, name, family):
    """One mutant per member left out of the tuple literal ``name``."""
    source = Path(package_dir(), relpath).read_text()
    block = re.search(r"^%s = \(\n(    \w+,\n)+\)\n" % name, source,
                      re.MULTILINE).group(0)
    members = block.splitlines(keepends=True)[1:-1]
    for member in members:
        yield _src(family, relpath, block, block.replace(member, "", 1))


def _first_import(relpath):
    source = Path(package_dir(), relpath).read_text()
    return re.search(r"^(from|import) .*\n", source, re.MULTILINE).group(0)


def code_mutants():
    yield from _tuple_drops("vmm/traps.py", "ALL_TRAP_KINDS", "trap kind")
    yield from _tuple_drops("obs/events.py", "ALL_EVENT_KINDS", "event kind")
    # Every other op handler of the generator and of the oracle: each
    # code mutant may run all of tier-1, so the census samples.
    for relpath in ("fuzz/scenario.py", "fuzz/oracle.py"):
        source = Path(package_dir(), relpath).read_text()
        for kind in re.findall(r"    def _op_(\w+)\(", source)[::2]:
            yield _src("dropped _op_ handler", relpath,
                       "    def _op_%s(" % kind,
                       "    def _dropped_op_%s(" % kind)
    for relpath, source in _sources():
        lines = source.splitlines(keepends=True)
        # The first tracer call of each module.
        for index, line in enumerate(lines):
            match = re.search(r"\b(self\.tracer|tracer)\.(\w+)\(", line)
            if match and not relpath.startswith(("obs/", "cli.py")):
                typo = line[:match.end(2)] + "_event" + line[match.end(2):]
                yield _edit(relpath, source, index, [typo],
                            "off-interface tracer call", False,
                            through_def=False)
                break
        for index, line in enumerate(lines):
            match = re.match(r"    def (tick|note_write)\(self, manager, "
                             r"(hostpt|node_gfn), now\):", line)
            if match:
                dropped = line.replace(match.group(2) + ", ", "")
                yield _edit(relpath, source, index, [dropped],
                            "policy-hook signature", False,
                            through_def=False)
    config = "common/config.py"
    for cls, field in (("PWCConfig", "census_knob: int = 0"),
                       ("PolicyConfig", "census_knob: int = 0"),
                       ("CostConfig", "vmtrap_census_cycles: int = 0"),
                       ("HostConfig", "census_knob: int = 0")):
        source = Path(package_dir(), config).read_text()
        body = re.search(r"^class %s:\n(    .*\n|\n)*?    \w+: .*=.*\n"
                         % cls, source, re.MULTILINE).group(0)
        yield _src("unread config field", config, body,
                   body + "    %s\n" % field)
    yield _src("phantom dotted key", "cli.py",
               'overrides["pwc.enabled"] = False',
               'overrides["pwc.enable"] = False')
    yield _src("phantom dotted key", "analysis/experiments.py",
               'overrides={"pwc.enabled": False}',
               'overrides={"pwc.enable": False}')
    base = "workloads/base.py"
    yield _src("nondeterminism: unseeded RNG", base,
               "else np.random.default_rng(seed)",
               "else np.random.default_rng()")
    yield _src("nondeterminism: time.time", base,
               "            self.rng = np.random.default_rng(self.seed)\n",
               "            import time\n"
               "            self.rng = np.random.default_rng("
               "int(time.time()))\n")
    yield _src("nondeterminism: one-hop helper", base,
               "        if self.seed is not None:\n"
               "            self.rng = np.random.default_rng(self.seed)\n",
               "        self.rng = np.random.default_rng(self._entropy())\n"
               "\n"
               "    def _entropy(self):\n"
               "        import time\n"
               "        return int(time.time())\n")
    indent = " " * 20
    yield _src("nondeterminism: global random", "workloads/consolidation.py",
               indent + "page = int(self.rng.integers(self.npages))\n",
               indent + "import numpy as np\n"
               + indent + "page = int(np.random.randint(self.npages))\n")
    yield _src("nondeterminism: global random", "host/balloon.py",
               "        for vm_id in sorted(self.vms):\n",
               "        import random\n"
               "        for vm_id in random.sample(sorted(self.vms), "
               "len(self.vms)):\n")
    scenario = "fuzz/scenario.py"
    yield _src("nondeterminism: unseeded RNG", scenario,
               "        rng = random.Random(seed)\n",
               "        rng = random.Random()\n")
    yield _src("nondeterminism: global random", scenario,
               "point = rng.random() * total",
               "point = random.random() * total")
    yield _src("nondeterminism: os.urandom in fuzz/", scenario,
               "        rng = random.Random(seed)\n",
               "        import os\n"
               "        rng = random.Random(os.urandom(8))\n")
    yield _src("nondeterminism: one-hop helper", scenario,
               "        rng = random.Random(seed)\n",
               "        from repro.fuzz.campaign import _wall_time\n"
               "        rng = random.Random(seed + int(_wall_time()))\n")
    for relpath, upward in (
            ("mem/pagetable.py", "from repro.hw import tlb"),
            ("hw/tlb.py", "from repro.core import metrics"),
            ("vmm/shadowmgr.py", "from repro.runner import spec")):
        first = _first_import(relpath)
        yield _src("layer import", relpath, first,
                   "%s as _upward\n%s" % (upward, first))
    for relpath, needle, upward in (
            ("hw/walker.py",
             '        """Dispatch on the context\'s paging mode."""\n',
             "from repro.vmm import traps"),
            ("vmm/vmm.py", "    def policy_tick(self):\n",
             "from repro.core import machine")):
        yield _src("layer import (in function)", relpath, needle,
                   needle + "        %s as _upward\n" % upward)
    yield _src("mode dispatch branch", "hw/walker.py",
               '        if ctx.mode == "agile":\n'
               "            return self.agile_walk(va, ctx, is_write)\n", "")
    yield _src("ledger authority", "core/machine.py",
               "cycles = refs * self.cost.cycles_per_walk_ref",
               "cycles = refs * self.cost.cycles_per_walk_ref\n"
               "        self.host_ledger.charge(0, refs)")
    yield _src("ledger authority", "vmm/vmm.py",
               "from repro.common.effects import policy_decision, "
               "trap_handler",
               "from repro.common.effects import (mutates, policy_decision,\n"
               "                                  trap_handler)\n\n\n"
               "@mutates(\"host_ledger\")\n"
               "def rogue_commit(ledger, frames):\n"
               "    ledger.committed[0] = ledger.committed.get(0, 0) + "
               "frames\n")
    yield _src("call-site swap", "hw/walker.py",
               "self.host_walk(gfn << 12, hptr, is_write=is_write, va=va)",
               "self.host_walk(hptr, gfn << 12, is_write=is_write, va=va)")
    yield _src("host time into a guest window", "vmm/vmm.py",
               "state.manager, node.frame, self.clock.now)",
               "state.manager, node.frame, self.clock.host.now)")
    yield _src("unattributed advance", "host/balloon.py",
               "            freed_total += freed",
               "            if self.clock is not None:\n"
               "                self.clock.advance(freed)\n"
               "            freed_total += freed")
    # A shared default container in place of the None-then-create idiom.
    yield _src("mutable default", "obs/events.py",
               "    def __init__(self, kind, ts, dur=0, data=None):\n"
               "        self.kind = kind\n"
               "        self.ts = ts\n"
               "        self.dur = dur\n"
               "        self.data = data if data is not None else {}\n",
               "    def __init__(self, kind, ts, dur=0, data={}):\n"
               "        self.kind = kind\n"
               "        self.ts = ts\n"
               "        self.dur = dur\n"
               "        self.data = data\n")
    harness = Path(package_dir(), "bench/harness.py").read_text()
    flatten = re.search(
        r"def flatten_numeric\(value, prefix=\"\", into=None\):\n"
        r"(.*\n)*?    if into is None:\n        into = \{\}\n",
        harness).group(0)
    yield _src("mutable default", "bench/harness.py", flatten,
               flatten.replace("into=None", "into={}").replace(
                   "    if into is None:\n        into = {}\n", ""))
    yield _src("bare except", "runner/spec.py",
               "                except KeyError:",
               "                except:")
    yield _src("bare except", "runner/cache.py",
               "        except FileNotFoundError:",
               "        except:")
    yield _src("bare print", "vmm/vmm.py",
               "        state = self.states[proc.pid]\n"
               "        outcome = state.manager.fill_for(fault.va)\n",
               "        state = self.states[proc.pid]\n"
               "        print(\"shadow fault\", fault.va)\n"
               "        outcome = state.manager.fill_for(fault.va)\n")
    yield _src("bare print", "runner/sweep.py",
               "        started = _wall_time()\n",
               "        started = _wall_time()\n"
               "        print(\"sweep started\")\n")
    for name in ("table1_tradeoffs", "table4_model"):
        yield Mutant("unregistered bench", "bench_%s.py" % name,
                     '@bench_target("%s", output="BENCH_%s.json")\n'
                     % (name, name), "", False, "benchmarks")


def all_mutants():
    return list(annotation_mutants()) + list(code_mutants())


def location(mutant):
    root = REPO / "benchmarks" if mutant.root == "benchmarks" else Path(
        package_dir())
    source = (root / mutant.relpath).read_text()
    offset = source.index(mutant.needle)
    # Point at the first line the mutation changes.
    common = os.path.commonprefix([mutant.needle, mutant.replacement])
    changed = source.count("\n", 0, offset + len(common)) + 1
    return "%s:%d" % (mutant.relpath, changed)


def _build(mutant, workdir):
    """Materialize ``mutant``: (linted directory, src root for runtime)."""
    src = workdir / "src"
    src.mkdir(parents=True)
    if mutant.root == "src":
        package = mutate_package(src, mutant.relpath, mutant.needle,
                                 mutant.replacement)
        shutil.copytree(REPO / "benchmarks", workdir / "benchmarks",
                        ignore=shutil.ignore_patterns("__pycache__"))
        return package, src
    shutil.copytree(package_dir(), src / "repro",
                    ignore=shutil.ignore_patterns("__pycache__"))
    benchmarks = workdir / "benchmarks"
    shutil.copytree(REPO / "benchmarks", benchmarks,
                    ignore=shutil.ignore_patterns("__pycache__"))
    target = benchmarks / mutant.relpath
    source = target.read_text()
    assert mutant.needle in source
    target.write_text(source.replace(mutant.needle, mutant.replacement))
    return benchmarks, src


def lint_ids(linted):
    findings, _checked = LintEngine(DEEP_RULES).run([str(linted)])
    return sorted({f.rule_id for f in findings})


def _first_failure(output):
    for line in output.splitlines():
        match = re.match(r"(FAILED|ERROR) (\S+)", line)
        if match:
            return match.group(2)
    return "pytest (no test id)"


def runtime_failure(workdir, src):
    """The first failing runtime oracle for a built mutant, or None."""
    for item in RUNTIME_TREE:
        if not (workdir / item).exists():
            copy = shutil.copytree if (REPO / item).is_dir() else shutil.copy
            copy(REPO / item, workdir / item)
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "repro", "fuzz", "--corpus",
               "corpus/regression"]
    try:
        replay = subprocess.run(command, cwd=workdir, env=env,
                                capture_output=True, text=True,
                                timeout=RUNTIME_TIMEOUT_S)
        if replay.returncode != 0:
            return "fuzz corpus replay"
        tests = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p",
             "no:cacheprovider", "-rfE", "--ignore-glob=*_rule_mutation.py"]
            + list(RUNTIME_TESTS), cwd=workdir, env=env,
            capture_output=True, text=True, timeout=RUNTIME_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "timeout"
    if tests.returncode == 0:
        return None
    return _first_failure(tests.stdout)


def run_census(mutants):
    """[(mutant, location, rule ids, runtime verdict)] in mutant order.

    The runtime verdict is the first failing oracle, None when every
    oracle passes, or "skipped" for annotation-only mutants. Linting
    runs in this process (the analyses memoize on module state, so one
    at a time); the runtime oracles run ``WORKERS`` subprocesses.
    """
    scratch = Path(tempfile.mkdtemp(prefix="census-"))

    def built(index, stage):
        workdir = scratch / ("%s%03d" % (stage, index + 1))
        return (workdir,) + _build(mutants[index], workdir)

    def oracle(index):
        workdir, _linted, src = built(index, "run")
        verdict = runtime_failure(workdir, src)
        shutil.rmtree(workdir)
        print("mutant %d: %s" % (index + 1, verdict), file=sys.stderr)
        return index, verdict

    try:
        rows = []
        for index, mutant in enumerate(mutants):
            workdir, linted, _src = built(index, "lint")
            rows.append([mutant, location(mutant), lint_ids(linted),
                         "skipped"])
            shutil.rmtree(workdir)
        pending = [index for index, mutant in enumerate(mutants)
                   if not mutant.annotation_only]
        with ThreadPoolExecutor(max_workers=WORKERS) as pool:
            for index, verdict in pool.map(oracle, pending):
                rows[index][3] = verdict
        return [tuple(row) for row in rows]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def needed_by(rows):
    """{rule id: [mutant numbers it alone catches]}."""
    needed = {rule.rule_id: [] for rule in DEEP_RULES}
    caught = {rule.rule_id: [] for rule in DEEP_RULES}
    for number, (_mutant, _where, ids, runtime) in enumerate(rows, start=1):
        for rule_id in ids:
            caught.setdefault(rule_id, []).append(number)
        if len(ids) == 1 and runtime in (None, "skipped"):
            needed.setdefault(ids[0], []).append(number)
    return caught, needed


def _numbers(numbers):
    """``#3, #5–#8`` for [3, 5, 6, 7, 8]; an em dash for none."""
    runs = []
    for number in numbers:
        if runs and number == runs[-1][1] + 1:
            runs[-1][1] = number
        else:
            runs.append([number, number])
    return ", ".join("#%d" % a if a == b else "#%d–#%d" % (a, b)
                     for a, b in runs) or "—"


def render(rows):
    caught, needed = needed_by(rows)
    out = ["| Rule | Mutants caught | Sole catcher of |",
           "|---|---|---|"]
    for rule in DEEP_RULES:
        out.append("| %s | %d | %s |" % (
            rule.rule_id, len(caught[rule.rule_id]),
            _numbers(needed[rule.rule_id])))
    uncaught = [n for n, row in enumerate(rows, start=1)
                if not row[2] and row[3] in (None, "skipped")]
    out += ["", "%d mutants; %d caught by no rule and no runtime oracle "
            "(%s)." % (len(rows), len(uncaught), _numbers(uncaught)), "",
            "| # | Family | Location | Annotation-only | Rules fired "
            "| First failing runtime oracle |",
            "|---|---|---|---|---|---|"]
    for number, (mutant, where, ids, runtime) in enumerate(rows, start=1):
        out.append("| %d | %s | `%s` | %s | %s | %s |" % (
            number, mutant.family, where,
            "yes" if mutant.annotation_only else "no",
            ", ".join(ids) or "—",
            "skipped" if runtime == "skipped"
            else ("`%s`" % runtime if runtime else "none")))
    return "\n".join(out)


def write_doc(table):
    text = DOC.read_text()
    head, rest = text.split(BEGIN, 1)
    _old, tail = rest.split(END, 1)
    DOC.write_text("%s%s\n%s\n%s%s" % (head, BEGIN, table, END, tail))


def main():
    rows = run_census(all_mutants())
    write_doc(render(rows))
    caught, needed = needed_by(rows)
    for rule in DEEP_RULES:
        print("%s caught %d, sole catcher of %d" % (
            rule.rule_id, len(caught[rule.rule_id]),
            len(needed[rule.rule_id])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
