"""Tests for the boundary-prediction model, the Graph500 harness, and
the export module."""

import json

import numpy as np
import pytest

from repro.cluster.spec import das4_cluster
from repro.core.export import (
    export_records_json,
    export_series_dat,
    export_trace_csv,
    record_to_dict,
)
from repro.core.graph500 import (
    Graph500Result,
    ValidationError,
    _bfs_parent_tree,
    run_graph500,
    validate_bfs_tree,
)
from repro.core.prediction import (
    BoundaryModel,
    WorkloadFeatures,
    collect_training_data,
    features_for,
)
from repro.core.runner import Runner
from repro.core.spec import RunSpec, SweepSpec
from repro.datasets import load_dataset
from repro.platforms import get_platform


# ---------------------------------------------------------------- prediction
class TestWorkloadFeatures:
    def test_vector_shape(self):
        f = WorkloadFeatures(5, 1e6, 1e7, 1e8, 20, 1)
        assert f.vector().shape == (len(WorkloadFeatures.FEATURE_NAMES),)

    def test_features_for_registry_graph(self):
        f = features_for("bfs", load_dataset("kgs"))
        assert f.iterations >= 5
        assert f.half_edges > 1e7  # paper scale
        assert f.workers == 20


#: the per-iteration workloads (BFS/CONN/CD share the
#: one-job-per-iteration structure the features see) on five datasets
TRAIN_CELLS = [
    (a, d)
    for a in ("bfs", "conn", "cd")
    for d in ("amazon", "wikitalk", "kgs", "dotaleague", "synth")
]


@pytest.mark.slow
class TestBoundaryModel:
    @pytest.fixture(scope="class")
    def hadoop_model(self):
        train = collect_training_data("hadoop", TRAIN_CELLS)
        return BoundaryModel("hadoop").fit(train), train

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            BoundaryModel("x").fit([])

    def test_unfitted_predict_raises(self):
        f = WorkloadFeatures(5, 1e6, 1e7, 1e8, 20, 1)
        with pytest.raises(RuntimeError):
            BoundaryModel("x").predict(f)

    def test_training_fit_quality(self, hadoop_model):
        """Hadoop's cost structure is linear in the features; the fit
        should be tight on its own training data."""
        model, train = hadoop_model
        for feats, measured in train:
            predicted = model.predict(feats)
            assert predicted == pytest.approx(measured, rel=0.5)

    def test_boundary_covers_training(self, hadoop_model):
        model, train = hadoop_model
        for feats, measured in train:
            assert model.predict_worst(feats) >= measured * 0.999

    @pytest.fixture(scope="class")
    def heldout(self, hadoop_model):
        """(actual, predicted, boundary) per (platform, algorithm) on
        the held-out citation dataset."""
        cluster = das4_cluster()
        g = load_dataset("citation")
        out = {}
        for name in ("hadoop", "stratosphere", "giraph"):
            model = hadoop_model[0] if name == "hadoop" else BoundaryModel(
                name).fit(collect_training_data(name, TRAIN_CELLS))
            for algo in ("bfs", "conn", "cd"):
                actual = get_platform(name).run(algo, g, cluster).execution_time
                feats = features_for(algo, g, cluster)
                out[name, algo] = (actual, model.predict(feats),
                                   model.predict_worst(feats))
        return out

    def test_heldout_prediction_within_factor_3(self, heldout):
        for cell, (actual, predicted, _) in heldout.items():
            assert actual / 3 <= predicted <= actual * 3, cell

    def test_uncovered_workload_class_violates_boundary(self):
        """EVO runs two MapReduce jobs per iteration — a structure the
        features cannot see.  A model trained without any two-job
        workload under-predicts it: the boundary is only as good as
        the training coverage (the 'empirically validated' caveat)."""
        cells = [("bfs", d) for d in ("amazon", "kgs", "dotaleague")]
        model = BoundaryModel("hadoop").fit(
            collect_training_data("hadoop", cells)
        )
        cluster = das4_cluster()
        g = load_dataset("kgs")
        actual = get_platform("hadoop").run("evo", g, cluster).execution_time
        assert model.predict_worst(features_for("evo", g, cluster)) < actual

    def test_boundary_covers_heldout_same_class(self, heldout):
        """The boundary holds on held-out workloads of trained classes
        (10 % slack)."""
        for cell, (actual, _, worst) in heldout.items():
            assert worst >= actual * 0.9, cell

    def test_describe(self, hadoop_model):
        model, _ = hadoop_model
        text = model.describe()
        assert "hadoop" in text and "worst_ratio" in text

    def test_giraph_model_differs_from_hadoop(self, hadoop_model):
        hadoop, _ = hadoop_model
        cells = [("bfs", d) for d in ("amazon", "kgs", "dotaleague")] + [
            ("conn", d) for d in ("amazon", "kgs", "dotaleague")
        ]
        giraph = BoundaryModel("giraph").fit(
            collect_training_data("giraph", cells)
        )
        # Hadoop's per-iteration cost coefficient dwarfs Giraph's.
        assert hadoop.coefficients[1] > 10 * abs(giraph.coefficients[1])


# ---------------------------------------------------------------- graph500
class TestGraph500:
    def test_run_small(self):
        res = run_graph500(scale=8, edge_factor=8, num_roots=4, seed=2)
        assert isinstance(res, Graph500Result)
        assert res.all_valid
        assert res.harmonic_mean_teps > 0
        assert len(res.teps) == 4

    def test_harmonic_mean_below_max(self):
        res = run_graph500(scale=8, edge_factor=8, num_roots=4, seed=2)
        assert res.harmonic_mean_teps <= max(res.teps) + 1e-9

    def test_scale13_run_keeps_a_vectorized_teps_floor(self):
        """Kronecker scale 13, 8 roots: every tree validates, the numpy
        BFS sustains over 1e5 wall-clock TEPS, and the harmonic mean is
        at most the arithmetic mean (the slowest root dominates it)."""
        res = run_graph500(scale=13, edge_factor=16, num_roots=8, seed=5)
        assert res.all_valid
        assert res.harmonic_mean_teps > 1e5
        assert res.harmonic_mean_teps <= np.mean(res.teps) + 1e-9

    def test_parent_tree_valid(self, random_graph):
        parent = _bfs_parent_tree(random_graph, 0)
        validate_bfs_tree(random_graph, 0, parent)

    def test_parent_tree_valid_directed(self, random_digraph):
        parent = _bfs_parent_tree(random_digraph, 1)
        validate_bfs_tree(random_digraph, 1, parent)

    def test_detects_wrong_length(self, random_graph):
        with pytest.raises(ValidationError):
            validate_bfs_tree(random_graph, 0, np.zeros(3, dtype=np.int64))

    def test_detects_bad_root(self, random_graph):
        parent = _bfs_parent_tree(random_graph, 0)
        parent[0] = 5
        with pytest.raises(ValidationError):
            validate_bfs_tree(random_graph, 0, parent)

    def test_detects_cycle(self, path_graph):
        parent = _bfs_parent_tree(path_graph, 0)
        parent[1], parent[2] = 2, 1  # 1 <-> 2 cycle
        with pytest.raises(ValidationError, match="cycle"):
            validate_bfs_tree(path_graph, 0, parent)

    def test_detects_fake_edge(self, path_graph):
        parent = _bfs_parent_tree(path_graph, 0)
        parent[9] = 0  # 0-9 is not an edge of the path
        with pytest.raises(ValidationError):
            validate_bfs_tree(path_graph, 0, parent)

    def test_detects_wrong_span(self, tiny_undirected):
        parent = _bfs_parent_tree(tiny_undirected, 0)
        parent[5] = 5  # vertex 5 is NOT reachable, must not be in tree
        with pytest.raises(ValidationError):
            validate_bfs_tree(tiny_undirected, 0, parent)


# ---------------------------------------------------------------- export
class TestExport:
    @pytest.fixture(scope="class")
    def small_experiment(self):
        runner = Runner()
        exp = runner.run_grid(SweepSpec.make(
            "export-test",
            platforms=["giraph"],
            algorithms=["bfs"],
            datasets=["kgs"],
        ))
        exp.add(runner.run(RunSpec("giraph", "stats", "wikitalk")))  # a crash
        return exp

    def test_record_to_dict_ok(self, small_experiment):
        rec = small_experiment.records[0]
        d = record_to_dict(rec)
        assert d["status"] == "ok"
        assert d["execution_time"] > 0
        assert "breakdown" in d

    def test_record_to_dict_crash(self, small_experiment):
        d = record_to_dict(small_experiment.records[-1])
        assert d["status"] == "crashed"
        assert d["failure_reason"]

    def test_json_roundtrip(self, small_experiment, tmp_path):
        path = tmp_path / "results.json"
        export_records_json(small_experiment, path)
        doc = json.loads(path.read_text())
        assert doc["experiment"] == "export-test"
        assert len(doc["records"]) == 2

    def test_trace_csv(self, small_experiment, tmp_path):
        rec = small_experiment.records[0]
        path = tmp_path / "trace.csv"
        export_trace_csv(rec.result.trace, path, num_points=10)
        lines = path.read_text().splitlines()
        assert lines[0] == "node,metric,normalized_time,value"
        assert len(lines) > 10

    def test_series_dat(self, tmp_path):
        path = tmp_path / "fig.dat"
        export_series_dat(
            [20, 25, 30],
            {"hadoop": [10.0, 8.0, None], "giraph": [1.0, 0.9, 0.8]},
            path,
            x_label="machines",
        )
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# machines")
        assert "nan" in lines[3]


class TestGraph500Timing:
    def test_injected_timer_gives_deterministic_teps(self):
        """With a fake clock ticking 1 s per call, TEPS equals the
        traversed-edge count per root exactly."""
        ticks = iter(range(1000))

        res = run_graph500(
            scale=7, edge_factor=8, num_roots=3, seed=4,
            timer=lambda: float(next(ticks)),
        )
        # each BFS is bracketed by two clock reads 1 s apart
        for teps in res.teps:
            assert teps > 0
            assert teps == int(teps)  # whole edges per whole second

    def test_construction_time_from_timer(self):
        times = iter([10.0, 12.5] + [float(x) for x in range(100, 300)])
        res = run_graph500(
            scale=6, edge_factor=4, num_roots=2, seed=9,
            timer=lambda: next(times),
        )
        assert res.construction_seconds == pytest.approx(2.5)
