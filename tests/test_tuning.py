"""Tests for the SPEC-style baseline/peak tuning study."""

import pytest

from repro.core.tuning import TunedPair, TuningStudy, tuned_pair


class TestTunedPair:
    def test_all_platforms_have_pairs(self):
        for name in ("hadoop", "yarn", "stratosphere", "giraph",
                     "graphlab", "neo4j"):
            pair = tuned_pair(name)
            assert isinstance(pair, TunedPair)
            assert pair.name == name

    def test_unknown_platform(self):
        with pytest.raises(KeyError):
            tuned_pair("dryad")

    def test_hadoop_baseline_uses_blocks(self):
        pair = tuned_pair("hadoop")
        assert pair.baseline.pin_blocks_to_slots is False
        assert pair.peak.pin_blocks_to_slots is True

    def test_giraph_peak_has_combiner(self):
        pair = tuned_pair("giraph")
        assert not pair.baseline.use_combiner
        assert pair.peak.use_combiner

    def test_graphlab_peak_is_presplit(self):
        pair = tuned_pair("graphlab")
        assert not pair.baseline.pre_split
        assert pair.peak.pre_split

    def test_neo4j_variants_differ_by_cache(self):
        pair = tuned_pair("neo4j")
        assert pair.baseline_kwargs == {"cache": "cold"}
        assert pair.peak_kwargs == {"cache": "hot"}


class TestTuningStudy:
    @pytest.fixture(scope="class")
    def study(self):
        return TuningStudy(algorithm="bfs", dataset="dotaleague").run()

    def test_peak_never_slower(self, study):
        data, _ = study
        for plat, (base, peak) in data.items():
            if base is not None and peak is not None:
                assert peak <= base * 1.001, plat

    def test_graphlab_gains_most_from_presplit(self, study):
        data, _ = study
        base, peak = data["graphlab"]
        assert base / peak > 3

    def test_neo4j_cold_vs_hot_gain(self, study):
        data, _ = study
        base, peak = data["neo4j"]
        assert base / peak > 2

    def test_stratosphere_unchanged(self, study):
        data, _ = study
        base, peak = data["stratosphere"]
        assert base == pytest.approx(peak)

    def test_render(self, study):
        _, text = study
        assert "baseline" in text and "peak" in text and "speedup" in text

    def test_failures_rendered(self):
        """STATS on DotaLeague fails in both configurations."""
        data, text = TuningStudy(
            algorithm="stats", dataset="dotaleague",
            platforms=("giraph",),
        ).run()
        assert data["giraph"] == (None, None)
        assert "FAIL" in text

    def test_friendster_tuning_changes_feasibility(self):
        """BFS on Friendster: Giraph's baseline crashes (the paper's
        cell) and its combiner-tuned peak completes; Neo4j runs it in
        neither configuration."""
        data, _ = TuningStudy(
            algorithm="bfs", dataset="friendster",
            platforms=("giraph", "neo4j"),
        ).run()
        base, peak = data["giraph"]
        assert base is None and peak is not None
        assert data["neo4j"] == (None, None)
