"""Tests for the interval time-series recorder."""

import pytest

from repro.common.config import sandy_bridge_config
from repro.core.machine import System
from repro.core.simulator import Simulator, run_workload
from repro.obs import IntervalRecorder
from repro.workloads.suite import AstarLike, DedupLike


def record_run(every=1024, ops=8000, mode="agile", seed=3):
    recorder = IntervalRecorder(every=every)
    metrics = run_workload(AstarLike, seed=seed, ops=ops, mode=mode,
                           recorder=recorder)
    return metrics, recorder


class TestIntervalRecorder:
    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            IntervalRecorder(every=0)

    def test_sampling_period_respected(self):
        _metrics, recorder = record_run(every=1024, ops=8000)
        assert len(recorder) >= 2
        # Samples are at least `every` ops apart (they land on the first
        # policy epoch at or past each multiple); op restarts at the
        # measurement reset, so only non-restarting pairs are checked.
        for prev, row in zip(recorder.rows, recorder.rows[1:]):
            if row["op"] >= prev["op"] and not row.get("boundary"):
                assert row["op"] - prev["op"] >= 1024

    def test_rows_have_stable_schema(self):
        _metrics, recorder = record_run()
        expected = {"op", "cycle", "ideal_cycles", "walk_cycles",
                    "tlb_l2_cycles", "guest_fault_cycles", "guest_faults",
                    "tlb_misses", "tlb_hits_l1", "tlb_hits_l2", "walk_refs",
                    "vmm_cycles", "vmtraps"}
        for row in recorder.rows:
            assert expected <= set(row)

    def test_cumulative_rows_monotonic_between_boundaries(self):
        _metrics, recorder = record_run()
        prev = None
        for row in recorder.rows:
            if row.get("boundary"):
                prev = row
                continue
            if prev is not None and not prev.get("boundary"):
                assert row["tlb_misses"] >= prev["tlb_misses"]
                assert row["cycle"] >= prev["cycle"]
            prev = row

    def test_deltas_never_negative(self):
        _metrics, recorder = record_run()
        for delta in recorder.deltas():
            for key, value in delta.items():
                if key in ("op", "cycle"):
                    continue
                assert value >= 0, (key, delta)

    def test_boundary_row_marks_measurement_start(self):
        _metrics, recorder = record_run()
        boundaries = [row for row in recorder.rows if row.get("boundary")]
        assert len(boundaries) == 1  # one start_measurement in the suite

    def test_last_sample_consistent_with_metrics(self):
        system = System(sandy_bridge_config(mode="agile"))
        recorder = IntervalRecorder(every=1024)
        system.attach_observability(recorder=recorder)
        metrics = Simulator(system).run(DedupLike(seed=3, ops=8000))
        last = recorder.rows[-1]
        # Cumulative counters can only grow between the last sample and
        # the end of the run.
        assert last["tlb_misses"] <= metrics.tlb_misses
        assert last["ideal_cycles"] <= metrics.ideal_cycles
        # A row sampled at the end holds exactly the run's scalar counts.
        recorder.sample(system)
        row = dict(recorder.rows[-1])
        assert row.pop("op") == metrics.ops
        assert row.pop("cycle") == system.clock.now
        assert row.pop("vmtraps") == metrics.vmtraps
        assert row == metrics.counts()

    def test_deterministic_across_runs(self):
        _m1, r1 = record_run()
        _m2, r2 = record_run()
        assert r1.to_rows() == r2.to_rows()

    def test_to_rows_is_a_copy(self):
        _metrics, recorder = record_run()
        rows = recorder.to_rows()
        rows.append({"op": -1})
        assert recorder.rows[-1] != {"op": -1}
