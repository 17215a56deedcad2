"""``repro bench`` target for the end-to-end benchmark in this directory.

    PYTHONPATH=src python -m repro bench e2e --bench-dir benchmarks/e2e \\
        --out-dir benchmarks/e2e

runs ``run.py`` on every workload at the default seed, untraced and then
traced, each in its own interpreter exactly as it runs on its own, and
writes ``BENCH_e2e.json``: per workload the end-to-end medians with
their quartiles and every round's values, the checks' outcome, and the
per-layer metrics and spans of the traced run.
"""

import json
import os
import subprocess
import sys
import tempfile

from repro.bench import bench_target
from run import WORKLOAD_NAMES

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")
SEED = 1
#: Long enough for five rounds of the slowest workload, fig5.
SECONDS = 50
QUICK_SECONDS = 5


def _run(workload, seconds, trace, workdir):
    """One ``run.py`` invocation; returns its ``--out`` details."""
    out = os.path.join(workdir, "%s-%d.json" % (workload, trace))
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(SEED),
         "--seconds", str(seconds), "--trace", str(trace), "--out", out],
        capture_output=True, text=True, check=False)
    if proc.returncode not in (0, 1) or not os.path.exists(out):
        raise RuntimeError("run.py --workload %s --trace %d exited %d:\n%s"
                           % (workload, trace, proc.returncode, proc.stderr))
    with open(out, encoding="utf-8") as handle:
        return json.load(handle)


@bench_target("e2e", output="BENCH_e2e.json")
def bench(ctx):
    """End-to-end wall, set-up and sim ops/s per workload, plus spans."""
    seconds = QUICK_SECONDS if ctx.quick else SECONDS
    result = {"seed": SEED, "seconds": seconds}
    with tempfile.TemporaryDirectory(dir=HERE) as workdir:
        for workload in WORKLOAD_NAMES:
            plain = _run(workload, seconds, 0, workdir)
            traced = _run(workload, seconds, 1, workdir)
            result[workload] = {
                "correct": plain["result"]["correct"]
                and traced["result"]["correct"],
                "attempted": plain["result"]["attempted"]
                + traced["result"]["attempted"],
                "failed": plain["result"]["failed"]
                + traced["result"]["failed"],
                "end_to_end": plain.get("end_to_end", {}),
                "rounds": [rnd["end_to_end"] for rnd in plain["rounds"]
                           if "end_to_end" in rnd],
                "per_layer": {name: metric["value"] for name, metric
                              in traced["result"]["metrics"].items()},
                "spans": traced["rounds"][-1].get("spans", {}),
            }
    return result
