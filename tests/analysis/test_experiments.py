"""Tests for the experiment runners (Tables I/II/VI, Figures 3/5).

The paper relations these runners reproduce are claims in
``repro.analysis.claims``; the claim tests here check them through the
ledger (``test_claims.py`` checks every claim), on the same memoized
results the render and grid-shape tests read.
"""

from repro.analysis import experiments
from repro.analysis.tables import (
    figure5_rows,
    format_table,
    table1_rows,
    table2_rows,
    table6_rows,
)


class TestTable1:
    def test_max_refs_match_paper(self, ledger):
        ledger.check("table1.max_refs")

    def test_update_path(self, ledger):
        ledger.check("table1.shadow_updates_trap")
        ledger.check("table1.direct_updates")

    def test_rows_render(self, ledger):
        rows = table1_rows(ledger.results("table1", 0))
        assert len(rows) == 4
        text = format_table(
            ("Technique", "TLB hit", "Max refs", "PT updates", "HW support"),
            rows,
        )
        assert "Agile Paging" in text


class TestTable2:
    def test_degree_arithmetic(self, ledger):
        """The paper's Table II: 4, 8, 12, 16, 20, 24 references."""
        ledger.check("table2.walk_refs")

    def test_rows_render(self, ledger):
        rows = table2_rows(ledger.results("table2", 0))
        assert rows[-1][0] == "All"
        assert rows[-1][2] == 24
        assert rows[-1][4] == "4-24"


class TestFigure3:
    def test_journal_shapes(self, ledger):
        ledger.check("fig3.journal_lengths")

    def test_shadow_prefix_order(self, ledger):
        ledger.check("fig3.shadow_prefix")


class TestFigure5AndHeadline:
    def test_grid_complete(self, ledger):
        # Two contrasting workloads keep the test fast.
        results = ledger.results("figure5", 12_000)
        assert set(results) == {"mcf", "dedup"}
        for configs in results.values():
            assert len(configs) == 8  # 2 page sizes x 4 modes

    def test_ordering_claims(self, ledger):
        """Agile beats or ties the best constituent (4K pages)."""
        ledger.check("fig5.agile_le_best")

    def test_2m_reduces_overheads(self, ledger):
        ledger.check("fig5.large_pages_cut_walks")

    def test_headline_summary(self, ledger):
        rows, _summary = experiments.headline_summary(
            ledger.results("figure5", 12_000))
        assert len(rows) == 2
        ledger.check("fig5.speedup_vs_best")
        ledger.check("fig5.slowdown_vs_native")

    def test_figure5_rows_render(self, ledger):
        assert len(figure5_rows(ledger.results("figure5", 12_000))) == 16


class TestTable6:
    def test_shadow_mode_dominates(self, ledger):
        """Most TLB misses are served in full shadow mode (Section VII-B)."""
        ledger.check("table6.shadow_dominates")

    def test_avg_refs_under_nested_worst_case(self, ledger):
        ledger.check("table6.avg_refs")

    def test_rows_render(self, ledger):
        rows = table6_rows(ledger.results("table6", 12_000))
        assert len(rows) == 2
        assert all(len(row) == 8 for row in rows)
