"""Light checks on the repo scripts (structure, not full execution —
the scripts themselves take tens of minutes)."""

import importlib.util
import json
import pathlib
import sys

import pytest

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(
        f"scripts_{name}", SCRIPTS / f"{name}.py"
    )
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod
    spec.loader.exec_module(mod)
    return mod


class TestMakeExperiments:
    def test_every_section_method_exists(self):
        from repro.core.suite import BenchmarkSuite

        mod = _load("make_experiments")
        for method, _title, commentary in mod.SECTIONS:
            assert hasattr(BenchmarkSuite, method), method
            assert commentary.strip()

    def test_sections_cover_all_numbered_artifacts(self):
        mod = _load("make_experiments")
        methods = {m for m, _, _ in mod.SECTIONS}
        # all four measured tables and all figure groups appear
        for required in (
            "table2_datasets", "table5_bfs_statistics", "table6_ingestion",
            "table7_dev_effort", "fig01_bfs", "fig02_throughput",
            "fig03_giraph_all", "fig04_dotaleague",
            "fig05_07_master_resources", "fig08_10_worker_resources",
            "fig11_12_horizontal", "fig13_14_vertical",
            "fig15_breakdown", "fig16_graphlab_breakdown",
        ):
            assert required in methods, required

    def test_header_mentions_simulated_seconds(self):
        mod = _load("make_experiments")
        assert "simulated seconds" in mod.HEADER


def _bench():
    return json.loads((SCRIPTS.parent / "BENCHMARK.json").read_text())


def _run(*, correct=True, attempted=100, failed=0, scale=1.0, layer=1.0):
    """A perfbench result line: every end-to-end metric ``scale`` times
    a nominal value, every per-layer metric ``layer`` times 0.1."""
    bench = _bench()
    metrics = {m["name"]: {"value": 10.0 * scale, "unit": m["unit"]}
               for m in bench["end_to_end"]}
    metrics.update({m["name"]: {"value": 0.1 * layer, "unit": m["unit"]}
                    for m in bench["per_layer"]})
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def _judge(base=None, head=None, base_traced=None, head_traced=None):
    mod = _load("perf_ab")
    pairs = mod.PAIRS
    verdicts = mod.judge(
        _bench(),
        base or [_run() for _ in range(pairs)],
        head or [_run() for _ in range(pairs)],
        base_traced or _run(), head_traced or _run(),
    )
    return {v.subject: v.verdict for v in verdicts}


class TestPerfAB:
    """The A/B gate's decision rule, fed synthetic perfbench results."""

    def test_identical_runs_pass(self):
        verdicts = _judge()
        assert set(verdicts.values()) <= {"PASS", "-"}
        for metric in _bench()["end_to_end"]:
            assert verdicts[metric["name"]] == "PASS"

    def test_worse_beyond_bound_with_tight_spread_fails(self):
        # lower-better metrics 40 % up, higher-better ones 40 % down
        head = [_run(scale=1.4) for _ in range(5)]
        verdicts = _judge(head=head)
        for metric in _bench()["end_to_end"]:
            if metric["better"] == "lower":
                assert verdicts[metric["name"]] == "FAIL", metric["name"]
            else:
                assert verdicts[metric["name"]] == "PASS", metric["name"]
        verdicts = _judge(head=[_run(scale=0.6) for _ in range(5)])
        assert verdicts["cells_per_s"] == "FAIL"
        assert verdicts["latency_p50_ms"] == "PASS"

    def test_worse_within_bound_passes(self):
        verdicts = _judge(head=[_run(scale=1.1) for _ in range(5)])
        assert verdicts["latency_p50_ms"] == "PASS"
        assert verdicts["cells_per_s"] == "PASS"

    def test_wide_base_spread_is_unresolved(self):
        base = [_run(scale=s) for s in (0.5, 0.7, 1.0, 1.3, 1.6)]
        head = [_run(scale=1.4) for _ in range(5)]
        verdicts = _judge(base=base, head=head)
        assert verdicts["latency_p50_ms"] == "UNRESOLVED"
        assert verdicts["cells_per_s"] == "UNRESOLVED"

    def test_wide_spread_resolves_when_every_head_run_is_better(self):
        base = [_run(scale=s) for s in (1.0, 1.3, 1.6, 1.9, 2.2)]
        head = [_run(scale=0.9) for _ in range(5)]
        verdicts = _judge(base=base, head=head)
        assert verdicts["latency_p50_ms"] == "PASS"
        assert verdicts["cells_per_s"] == "UNRESOLVED"

    def test_incorrect_run_fails(self):
        head = [_run() for _ in range(4)] + [_run(correct=False)]
        assert _judge(head=head)["correct"] == "FAIL"
        assert _judge(base_traced=_run(correct=False))["correct"] == "FAIL"

    def test_crashed_run_fails_without_metrics(self):
        crashed = {"correct": False, "attempted": 0, "failed": 0,
                   "metrics": {}}
        verdicts = _judge(head_traced=crashed)
        assert verdicts["correct"] == "FAIL"
        assert "cells_per_s" not in verdicts

    def test_higher_failed_share_fails(self):
        head = [_run() for _ in range(4)] + [_run(failed=1)]
        assert _judge(head=head)["failed share"] == "FAIL"
        # the same share on both sides is no regression
        base = [_run(failed=1)] + [_run() for _ in range(4)]
        assert _judge(base=base, head=head)["failed share"] == "PASS"

    def test_layer_over_wall_tolerance_fails(self):
        mod = _load("perf_ab")
        slow = _run(layer=mod.WALL_TOLERANCE * 1.2)
        verdicts = _judge(head_traced=slow)
        assert verdicts["charge.self_s"] == "FAIL"
        assert verdicts["kernels.ldg_assign.s"] == "FAIL"
        # counts and whole-run walls are printed, not gated
        assert verdicts["charge.calls"] == "-"
        assert verdicts["traced_wall_s"] == "-"
        assert _judge(head_traced=_run(layer=2.0))["charge.self_s"] == "PASS"

    def test_layer_walls_print_their_call_counts(self):
        mod = _load("perf_ab")
        base, head = _run(), _run(layer=0.5)
        base["metrics"]["kernels.ldg_assign.calls"]["value"] = 21
        head["metrics"]["kernels.ldg_assign.calls"]["value"] = 20
        details = {
            v.subject: v.detail
            for v in mod.judge(_bench(), [_run()] * mod.PAIRS,
                               [_run()] * mod.PAIRS, base, head)
        }
        assert details["kernels.ldg_assign.s"].startswith(
            "base 0.1 head 0.05 s, calls 21 vs 20 "
        )
        assert "calls 0.1 vs 0.05" in details["datasets.load_s"]
        assert "calls 0.1 vs 0.05" in details["charge.self_s"]
        # a wall with no count of its own, and a count, print no calls
        assert "calls" not in details["traced_wall_s"]
        assert "calls" not in details["charge.calls"]

    def test_layer_below_ten_ms_is_not_gated(self):
        # base 5 ms: too short to time once, so 10x reads "-"
        verdicts = _judge(base_traced=_run(layer=0.05),
                          head_traced=_run(layer=0.5))
        assert verdicts["charge.self_s"] == "-"


class TestExportFigures:
    def test_helpers_import(self):
        mod = _load("export_figures")
        assert callable(mod.main)
        assert "gnuplot" in mod.GNUPLOT_HEADER

    def test_series_from_grid_handles_missing_cells(self):
        mod = _load("export_figures")

        class FakeExp:
            def get(self, plat, algo, ds):
                return None

        out = mod._series_from_grid(FakeExp(), ["a"], ["x", "y"], lambda r: 1)
        assert out == {"a": [None, None]}
