"""Tests for the ASCII figure rendering."""

from repro.analysis.plots import render_figure5
from repro.common.params import FOUR_KB
from repro.core.metrics import RunMetrics


def fake_metrics(pw, vmm):
    metrics = RunMetrics("x", "agile", FOUR_KB)
    metrics.ideal_cycles = 1000
    metrics.walk_cycles = int(pw * 1000)
    metrics.vmm_cycles = int(vmm * 1000)
    metrics.tlb_misses = 10
    metrics.walk_refs = 42
    return metrics


class TestFigure5Rendering:
    def make_results(self):
        return {
            "mcf": {
                ("4K", "native"): fake_metrics(0.5, 0.0),
                ("4K", "nested"): fake_metrics(1.0, 0.0),
                ("4K", "shadow"): fake_metrics(0.5, 0.2),
                ("4K", "agile"): fake_metrics(0.5, 0.05),
                ("2M", "native"): fake_metrics(0.01, 0.0),
            },
        }

    def test_contains_workload_and_modes(self):
        text = render_figure5(self.make_results())
        assert "mcf" in text
        for label in ("B |", "N |", "S |", "A |"):
            assert label in text

    def test_bars_scale_with_overhead(self):
        text = render_figure5(self.make_results())
        lines = [l for l in text.splitlines() if "|" in l]
        nested_line = [l for l in lines if l.strip().startswith("N")][0]
        native_line = [l for l in lines if l.strip().startswith("B")][0]
        assert nested_line.count("#") > native_line.count("#")

    def test_vmm_segment_rendered(self):
        text = render_figure5(self.make_results())
        shadow_line = [l for l in text.splitlines()
                       if l.strip().startswith("S |")][0]
        assert "%" in shadow_line

    def test_other_page_size_slice(self):
        text = render_figure5(self.make_results(), page_size_name="2M")
        assert "2M pages" in text

    def test_empty_slice(self):
        assert "no data" in render_figure5({}, page_size_name="1G")

