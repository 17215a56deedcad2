"""Golden-snapshot tests: paper-number summaries pinned to checked-in JSON.

The reproduced Table I, Table VI, and Figure 5 summaries are compared
against goldens under ``tests/goldens/``. Any change to simulator
behaviour — intended or not — shifts these numbers and fails here,
so paper-number drift is an explicit CI event instead of a silent one.

To regenerate after an *intentional* change (then eyeball the diff)::

    REPRO_REGEN_GOLDENS=1 PYTHONPATH=src python -m pytest tests/analysis/test_goldens.py -q

Goldens depend on the NumPy ``default_rng`` bit stream in addition to
simulator code; regenerating after a NumPy upgrade that changes streams
is expected and the diff documents the shift.
"""

import json
import os

import pytest

from repro.analysis import experiments
from repro.common.params import FOUR_KB
from repro.core.machine import System
from repro.core.simulator import Simulator

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "goldens")
REGEN = os.environ.get("REPRO_REGEN_GOLDENS") == "1"
REGEN_COMMAND = ("REPRO_REGEN_GOLDENS=1 PYTHONPATH=src "
                 "python -m pytest tests/analysis/test_goldens.py -q")
GOLDEN_OPS = 5_000


def check_golden(name, data):
    """Compare ``data`` against the named golden (or rewrite it)."""
    path = os.path.join(GOLDEN_DIR, name + ".json")
    if REGEN:
        os.makedirs(GOLDEN_DIR, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"_regenerate": REGEN_COMMAND, "data": data}, handle,
                      indent=2, sort_keys=True)
            handle.write("\n")
        pytest.skip("golden %s regenerated" % name)
    with open(path, encoding="utf-8") as handle:
        golden = json.load(handle)["data"]
    assert data == golden, (
        "reproduced %s summary drifted from tests/goldens/%s.json — if the "
        "change is intended, regenerate with:\n  %s" % (name, name,
                                                        REGEN_COMMAND))


def test_table1_golden():
    measurements = experiments.table1_measurements()
    check_golden("table1", {mode: dict(values)
                            for mode, values in measurements.items()})


def test_table6_golden():
    results = experiments.table6(ops=GOLDEN_OPS, workload_names={"canneal"})
    data = {}
    for name, metrics in results.items():
        data[name] = {
            "summary": metrics.summary(),
            "mode_mix": {key: round(value, 6)
                         for key, value in metrics.mode_mix().items()},
        }
    check_golden("table6", data)


def test_figure5_golden():
    results = experiments.figure5(ops=GOLDEN_OPS, workload_names={"mcf"},
                                  page_sizes=(FOUR_KB,))
    data = {
        name: {"%s:%s" % key: metrics.summary()
               for key, metrics in configs.items()}
        for name, configs in results.items()
    }
    _rows, headline = experiments.headline_summary(results)
    data["_headline"] = {key: round(value, 6)
                         for key, value in headline.items()}
    check_golden("figure5", data)


SETUP_DIGEST_OPS = 2_000


def test_setup_digest_golden():
    """Every Figure 5 cell's machine state at ``reset_counters`` and at
    the end of its run, as :meth:`System.state_digest` hashes it.

    Equal digests at the reset plus an equal op stream give equal
    ``RunMetrics``, so this pins set-up work that the metric goldens
    see only indirectly.
    """
    data = {}
    for cell in experiments.figure5_cells(ops=SETUP_DIGEST_OPS):
        config = cell.build_config()
        workload = cell.build_workload(config)
        system = System(config)
        at_reset = []
        reset_counters = system.reset_counters

        def reset_and_digest():
            reset_counters()
            at_reset.append(system.state_digest())

        system.reset_counters = reset_and_digest
        Simulator(system).run(workload)
        data["%s:%s:%s" % (cell.workload, cell.page_size, cell.mode)] = {
            "reset": at_reset, "end": system.state_digest()}
    check_golden("setup_digest", data)
