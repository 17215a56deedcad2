"""The differential harness: serial and parallel sweeps are bit-identical.

The sweep runner's core guarantee is that *where* a cell executes —
in-process, in a pool worker, or on a cache round-trip — never changes
its metrics. These tests run the same cell matrix serially and with
``workers >= 2`` and compare full-fidelity ``RunMetrics.to_dict()``
payloads for exact equality, including one paranoid-mode cell so the
shadow/guest coherence invariant checker vouches for at least one run
on both paths.

CI runs this module on every supported Python version with
``REPRO_WORKERS=2`` (see .github/workflows/ci.yml).
"""

import os

import pytest

from repro.analysis.experiments import table5, table5_cells
from repro.runner import (
    STATUS_CACHED,
    CellSpec,
    ResultCache,
    SweepRunner,
    shard_cells,
)

PARALLEL_WORKERS = max(2, int(os.environ.get("REPRO_WORKERS", "2")))

# The differential matrix: miss-heavy (mcf) and update-heavy (gcc)
# workloads under the two constituent techniques, one agile cell with
# paranoid-mode invariant checking enabled throughout.
MATRIX = [
    CellSpec.make(workload, mode=mode, ops=2_500)
    for workload in ("mcf", "gcc")
    for mode in ("shadow", "agile")
] + [
    CellSpec.make("astar", mode="agile", ops=2_500,
                  overrides={"paranoid": True}),
]


class TestSerialParallelEquivalence:
    @pytest.fixture(scope="class")
    def serial(self):
        return SweepRunner(workers=1).run(MATRIX).raise_on_failure()

    @pytest.fixture(scope="class")
    def parallel(self):
        return (SweepRunner(workers=PARALLEL_WORKERS)
                .run(MATRIX).raise_on_failure())

    def test_matrix_completes_on_both_paths(self, serial, parallel):
        assert len(serial) == len(MATRIX)
        assert len(parallel) == len(MATRIX)

    def test_metrics_bit_identical(self, serial, parallel):
        for cell in MATRIX:
            a = serial.metrics_for(cell).to_dict()
            b = parallel.metrics_for(cell).to_dict()
            assert a == b, cell.describe()

    def test_paranoid_cell_ran_and_agrees(self, serial, parallel):
        paranoid = MATRIX[-1]
        assert paranoid.build_config().paranoid is True
        assert (serial.metrics_for(paranoid).to_dict()
                == parallel.metrics_for(paranoid).to_dict())

    def test_input_order_does_not_matter(self, parallel):
        reversed_sweep = (SweepRunner(workers=PARALLEL_WORKERS)
                          .run(list(reversed(MATRIX))).raise_on_failure())
        for cell in MATRIX:
            assert (reversed_sweep.metrics_for(cell).to_dict()
                    == parallel.metrics_for(cell).to_dict())


class TestTraceDeterminism:
    """Telemetry rides the same differential guarantee as metrics:
    the trace payload a cell produces is byte-identical whether the
    cell ran in-process or in a pool worker."""

    TRACE_CELLS = [
        CellSpec.make("mcf", mode="agile", ops=2_500),
        CellSpec.make("gcc", mode="shadow", ops=2_500),
    ]

    def run_traced(self, tmp_path, workers, tag):
        trace_dir = tmp_path / tag
        sweep = (SweepRunner(workers=workers, trace_dir=str(trace_dir))
                 .run(self.TRACE_CELLS).raise_on_failure())
        files = {}
        for result in sweep:
            assert result.trace_path, result.spec.describe()
            with open(result.trace_path, "rb") as handle:
                files[result.spec.cell_key()] = handle.read()
        return files

    def test_trace_files_bit_identical_serial_vs_parallel(self, tmp_path):
        serial = self.run_traced(tmp_path, 1, "serial")
        parallel = self.run_traced(tmp_path, PARALLEL_WORKERS, "parallel")
        assert set(serial) == set(parallel)
        for key in serial:
            assert serial[key] == parallel[key], key

    def test_trace_jsonl_bit_identical_across_paths(self, tmp_path):
        """The exported JSONL event stream — not just the container
        payload — is byte-for-byte stable across execution paths."""
        import json

        from repro.obs.exporters import jsonl_bytes, payload_events

        serial = self.run_traced(tmp_path, 1, "s2")
        parallel = self.run_traced(tmp_path, PARALLEL_WORKERS, "p2")
        for key in serial:
            a = jsonl_bytes(payload_events(json.loads(serial[key])))
            b = jsonl_bytes(payload_events(json.loads(parallel[key])))
            assert a == b, key


class TestDeterministicSharding:
    def test_shards_partition_the_cells(self):
        shards = shard_cells(MATRIX, 3)
        assert sum(len(s) for s in shards) == len(MATRIX)
        seen = {c.cell_key() for shard in shards for c in shard}
        assert seen == {c.cell_key() for c in MATRIX}

    def test_assignment_ignores_input_order(self):
        forward = shard_cells(MATRIX, 3)
        backward = shard_cells(list(reversed(MATRIX)), 3)
        for k in range(3):
            assert ({c.cell_key() for c in forward[k]}
                    == {c.cell_key() for c in backward[k]})

    def test_runner_shard_argument_selects_the_subset(self):
        cells = table5_cells(ops=100)
        shards = shard_cells(cells, 2)
        sweep = SweepRunner(workers=1).run(cells, shard=(0, 2))
        assert len(sweep) == len(shards[0])
        assert ({r.spec.cell_key() for r in sweep}
                == {c.cell_key() for c in shards[0]})


class TestTable5WarmCache:
    def test_warm_rerun_simulates_nothing_and_matches(self, tmp_path):
        """Acceptance: a warm-cache Table 5 rerun re-simulates zero cells."""
        ops = 1_200
        cold_runner = SweepRunner(workers=PARALLEL_WORKERS,
                                  cache=ResultCache(tmp_path))
        cold = table5(ops=ops, runner=cold_runner)

        warm_runner = SweepRunner(workers=PARALLEL_WORKERS,
                                  cache=ResultCache(tmp_path))
        warm = table5(ops=ops, runner=warm_runner)

        warm_sweep = warm_runner.run(table5_cells(ops=ops))
        assert warm_sweep.simulated == 0
        assert all(r.status == STATUS_CACHED for r in warm_sweep)

        assert set(cold) == set(warm)
        for name in cold:
            assert cold[name].to_dict() == warm[name].to_dict(), name
