"""Tests for report rendering and the BenchmarkSuite table methods."""

import pytest

from repro.core.report import (
    format_seconds,
    render_comparison,
    render_series,
    render_table,
)
from repro.core.suite import ALL_PLATFORMS, DISTRIBUTED_PLATFORMS, BenchmarkSuite


class TestFormatting:
    def test_format_seconds_scales(self):
        assert format_seconds(0.5) == "500ms"
        assert format_seconds(12.3) == "12.3s"
        assert format_seconds(120) == "2.0m"
        assert format_seconds(7200) == "2.0h"
        assert format_seconds(None) == "-"

    def test_render_table_alignment(self):
        out = render_table(["a", "bb"], [[1, 22], [333, 4]])
        lines = out.splitlines()
        assert len({len(ln) for ln in lines}) == 1  # all same width
        assert "333" in out

    def test_render_table_title(self):
        out = render_table(["x"], [[1]], title="My Table")
        assert out.splitlines()[0] == "My Table"

    def test_render_series(self):
        out = render_series("n", [1, 2], {"s1": [10, 20], "s2": [30, 40]})
        assert "s1" in out and "40" in out

    def test_render_series_missing_values(self):
        out = render_series("n", [1, 2, 3], {"s": [10]})
        assert out.count("-") >= 2

    def test_render_comparison(self):
        out = render_comparison([("metric", 1.0, 2.0)], title="cmp")
        assert "paper" in out and "measured" in out


class TestSuiteTables:
    @pytest.fixture(scope="class")
    def suite(self):
        return BenchmarkSuite()

    def test_platform_lists(self):
        assert len(DISTRIBUTED_PLATFORMS) == 5
        assert ALL_PLATFORMS[-1] == "neo4j"

    def test_table2(self, suite):
        data, text = suite.table2_datasets()
        assert len(data) == 7
        assert "dotaleague" in text
        assert "paper #E" in text

    def test_table5(self, suite):
        data, text = suite.table5_bfs_statistics()
        by_name = {d["name"]: d for d in data}
        assert by_name["citation"]["coverage"] < 0.05
        assert by_name["kgs"]["coverage"] > 0.95
        assert "iterations" in text

    def test_table6(self, suite):
        data, text = suite.table6_ingestion()
        by_name = {d["name"]: d for d in data}
        # HDFS seconds vs Neo4j hours
        assert by_name["kgs"]["neo4j"] > 100 * by_name["kgs"]["hdfs"]
        assert "N/A" not in text.splitlines()[3]  # amazon row has both

    def test_table7(self, suite):
        data, text = suite.table7_dev_effort()
        assert "giraph" in data
        assert "core LoC" in text

    def test_fig15_breakdown(self, suite):
        data, text = suite.fig15_breakdown()
        assert "overhead" in text
        # every distributed platform completed BFS on dotaleague
        assert len(data) == 6

    def test_fig16_graphlab_breakdown(self, suite):
        data, text = suite.fig16_graphlab_breakdown()
        # GraphLab CONN: overhead (loading+finalize) dominates (fig 16)
        for ds, (comp, over) in data.items():
            if ds == "friendster":
                continue
            assert over > comp, ds


class TestCli:
    def test_table_command(self, capsys):
        from repro.cli import main

        assert main(["table", "7"]) == 0
        assert "core LoC" in capsys.readouterr().out

    def test_datasets_command(self, capsys):
        from repro.cli import main

        assert main(["list", "datasets"]) == 0
        assert "friendster" in capsys.readouterr().out

    def test_platforms_command(self, capsys):
        from repro.cli import main

        assert main(["list", "platforms"]) == 0
        out = capsys.readouterr().out
        assert "graphlab_mp" in out and "single machine" in out

    def test_run_command_ok(self, capsys):
        from repro.cli import main

        assert main([
            "run", "--platform", "giraph", "--algorithm", "bfs",
            "--dataset", "kgs",
        ]) == 0
        out = capsys.readouterr().out
        assert "execution time" in out and "NEPS" in out

    def test_run_command_crash_exit_code(self, capsys):
        from repro.cli import main

        assert main([
            "run", "--platform", "giraph", "--algorithm", "stats",
            "--dataset", "wikitalk",
        ]) == 1
        assert "crashed" in capsys.readouterr().out

    def test_unknown_figure(self, capsys):
        from repro.cli import main

        assert main(["figure", "99"]) == 2

    def test_unknown_table(self, capsys):
        from repro.cli import main

        assert main(["table", "9"]) == 2

    def test_static_table_commands(self, capsys):
        from repro.cli import main

        for number, token in (("1", "NEPS"), ("3", "Traversal"),
                              ("4", "Stratosphere"), ("8", "This work")):
            assert main(["table", number]) == 0
            assert token in capsys.readouterr().out


class TestDefinitionalTables:
    @pytest.fixture(scope="class")
    def suite(self):
        return BenchmarkSuite()

    def test_table1(self, suite):
        data, text = suite.table1_metrics()
        assert "normalized EPS (NEPS)" in data
        assert "relevant aspect" in text

    def test_table3_totals(self, suite):
        data, text = suite.table3_algorithm_survey()
        assert sum(r.count for r in data) == 149
        assert "46.3%" in text

    def test_table4_matches_models(self, suite):
        from repro.platforms.registry import get_platform

        data, text = suite.table4_platforms()
        for row in data:
            assert get_platform(row.name).distributed == row.distributed
        assert "Neo4j 1.5" in text

    def test_table8_rows(self, suite):
        data, text = suite.table8_related_work()
        assert data[-1].study == "This work"
        assert "Pregel" in text

    def test_figure_command(self, capsys):
        from repro.cli import main

        assert main(["figure", "15"]) == 0
        out = capsys.readouterr().out
        assert "Figure 15" in out and "overhead" in out
