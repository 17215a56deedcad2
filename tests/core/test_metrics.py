"""Unit tests for RunMetrics derived quantities."""

import pytest

from repro.common.params import FOUR_KB
from repro.core.metrics import (
    COUNTS,
    METRICS_SCHEMA_VERSION,
    TABLES,
    RunMetrics,
)
from repro.hw.walkstats import NESTED_FULL


def make_metrics(**fields):
    metrics = RunMetrics("test", "agile", FOUR_KB)
    for key, value in fields.items():
        setattr(metrics, key, value)
    return metrics


class TestOverheads:
    def test_page_walk_overhead(self):
        metrics = make_metrics(ideal_cycles=1000, walk_cycles=250)
        assert metrics.page_walk_overhead == 0.25

    def test_l2_cycles_excluded_from_walk_overhead(self):
        metrics = make_metrics(ideal_cycles=1000, walk_cycles=250,
                               tlb_l2_cycles=999)
        assert metrics.page_walk_overhead == 0.25

    def test_vmm_overhead(self):
        metrics = make_metrics(ideal_cycles=1000, vmm_cycles=570)
        assert metrics.vmm_overhead == 0.57

    def test_total_overhead(self):
        metrics = make_metrics(ideal_cycles=1000, total_cycles=1800)
        assert metrics.total_overhead == pytest.approx(0.8)

    def test_zero_guards(self):
        metrics = make_metrics()
        assert metrics.page_walk_overhead == 0.0
        assert metrics.vmm_overhead == 0.0
        assert metrics.total_overhead == 0.0
        assert metrics.avg_refs_per_miss == 0.0
        assert metrics.miss_rate_per_kop == 0.0


class TestMixAndRates:
    def test_avg_refs(self):
        metrics = make_metrics(tlb_misses=10, walk_refs=45)
        assert metrics.avg_refs_per_miss == 4.5

    def test_miss_rate(self):
        metrics = make_metrics(ops=2000, tlb_misses=10)
        assert metrics.miss_rate_per_kop == 5.0

    def test_mode_mix(self):
        metrics = make_metrics(walks_by_depth={0: 80, 1: 15, 2: 5, 3: 0, 4: 0,
                                               NESTED_FULL: 0})
        mix = metrics.mode_mix()
        assert mix["Shadow"] == 0.80
        assert mix["L4"] == 0.15
        assert mix["L3"] == 0.05
        assert sum(mix.values()) == pytest.approx(1.0)

    def test_mode_mix_empty(self):
        assert make_metrics(walks_by_depth={}).mode_mix() == {}

    def test_vmtraps_sums_only_trap_kinds(self):
        metrics = make_metrics(trap_counts={"pt_write": 5, "ad_assist": 99,
                                            "context_switch": 2})
        assert metrics.vmtraps == 7  # ad_assist is hardware, not a trap

class TestSchemaVersion:
    def test_to_dict_stamps_current_version(self):
        payload = make_metrics(ops=100).to_dict()
        assert payload["schema_version"] == METRICS_SCHEMA_VERSION

    def test_round_trip_preserves_fields(self):
        values = {name: number for number, name in enumerate(COUNTS, 1)}
        values.update(walks_by_depth={0: 3, NESTED_FULL: 4},
                      trap_counts={"pt_write": 5},
                      trap_cycles={"pt_write": 6})
        metrics = RunMetrics("test", "agile", FOUR_KB, **values)
        again = RunMetrics.from_dict(metrics.to_dict())
        assert again.to_dict() == metrics.to_dict()
        for name, value in values.items():
            assert getattr(again, name) == value, name

    def test_unknown_version_rejected_with_clear_error(self):
        payload = make_metrics(ops=100).to_dict()
        payload["schema_version"] = 99
        with pytest.raises(ValueError) as excinfo:
            RunMetrics.from_dict(payload)
        message = str(excinfo.value)
        assert "schema_version" in message
        assert "99" in message
        assert "cache" in message  # tells the user how to recover

    def test_missing_version_treated_as_v1(self):
        """Payloads cached before the key existed are version 1, which
        this build refuses with the clear-the-cache message."""
        payload = make_metrics(ops=100).to_dict()
        del payload["schema_version"]
        with pytest.raises(ValueError) as excinfo:
            RunMetrics.from_dict(payload)
        message = str(excinfo.value)
        assert "schema_version 1 " in message
        assert "clear the result cache" in message

    def test_unknown_counter_rejected(self):
        with pytest.raises(TypeError, match="cow_faults"):
            RunMetrics("test", "agile", FOUR_KB, cow_faults=1)


class TestMixAndRatesSummary:
    def test_summary_round_trips(self):
        metrics = make_metrics(ops=100, ideal_cycles=200, walk_cycles=50,
                               tlb_misses=4, walk_refs=16)
        summary = metrics.summary()
        assert summary["ops"] == 100
        assert summary["avg_refs_per_miss"] == 4.0
        assert summary["page_walk_overhead"] == 0.25
