"""Light checks on the repo scripts (structure, not full execution —
the scripts themselves take tens of minutes)."""

import importlib.util
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


class TestBenchSnapshot:
    def test_helpers_import(self):
        mod = _load("bench_snapshot")
        assert callable(mod.main)
        assert callable(mod.collect_snapshot)

    def test_bench_measure_functions_exist(self):
        # The script reuses the benches' measure functions — keep the
        # contract visible here so a bench refactor cannot silently
        # break the CI snapshot.
        mod = _load("bench_snapshot")
        mod._ensure_benchmarks_importable()
        from benchmarks.bench_kernels import measure_kernels, render_kernels
        from benchmarks.bench_sparse_reports import (
            measure_sparse_vs_dense,
            render_sparse_vs_dense,
        )
        from benchmarks.bench_serve_load import measure_serve_load
        from benchmarks.bench_trace_cache import measure_cold_vs_warm

        assert callable(measure_sparse_vs_dense)
        assert callable(render_sparse_vs_dense)
        assert callable(measure_cold_vs_warm)
        assert callable(measure_kernels)
        assert callable(render_kernels)
        assert callable(measure_serve_load)

    def test_cores_recorded(self):
        mod = _load("bench_snapshot")
        assert mod._available_cores() >= 1


def _snapshot(*, cores=8, wall=1.0, ratio=4.0,
              identical=True, validated=True, obs_identical=True,
              overhead=0.01, utilization=0.9, warm_p99=0.01,
              serve_identical=True):
    """A minimal schema-5 document exercising every gate budget."""
    micro = {
        name: {"active_ms": wall}
        for name in (
            "part_bincount", "comm_degrees", "cut_count",
            "gather_neighbors", "gather_with_sources", "scatter_min",
            "ldg_assign",
        )
    }
    return {
        "schema": 5,
        "cores": cores,
        "trace_cache": {
            "cold_seconds": wall, "warm_seconds": wall, "speedup": ratio,
        },
        "sparse_reports": {
            "sparse_wall": wall, "wall_ratio": ratio, "memory_ratio": 80.0,
        },
        "parallel_sweep": {
            "cores": cores, "speedup": ratio, "identical": identical,
        },
        "kernels": {"micro": micro},
        "benchmark_mode": {
            "wall_seconds": wall,
            "cache_stats": {"record_seconds": wall},
            "summary": {"all_validated": validated},
        },
        "benchmark_mode_xs": {
            "wall_seconds": wall,
            "summary": {"all_validated": validated},
        },
        "harness_observability": {
            "cells": 8,
            "off_seconds": wall,
            "on_seconds": wall * (1.0 + overhead),
            "overhead_fraction": overhead,
            "identical": obs_identical,
            "utilization": utilization,
            "cell_wall_p50_seconds": wall / 10.0,
            "cell_wall_p99_seconds": wall,
            "events": 100,
            "cores": cores,
        },
        "serve": {
            "cells": 6,
            "warm_p99_seconds": warm_p99,
            "identical": serve_identical,
        },
    }


class TestPerfGate:
    def test_identical_snapshots_pass(self):
        mod = _load("perf_gate")
        assert mod.run_gate(_snapshot(), _snapshot()) == []

    def test_wall_regression_fails(self):
        mod = _load("perf_gate")
        current = _snapshot(wall=10.0)  # 10x the baseline, over 2.5x budget
        failures = mod.run_gate(current, _snapshot(wall=1.0))
        assert any("trace_cache.cold_seconds" in f for f in failures)
        assert any("benchmark_mode_xs.wall_seconds" in f for f in failures)
        assert any("kernels.micro.ldg_assign.active_ms" in f for f in failures)

    def test_ratio_collapse_fails_on_big_machines(self):
        mod = _load("perf_gate")
        failures = mod.run_gate(_snapshot(ratio=1.0), _snapshot(ratio=4.0))
        for path in ("trace_cache.speedup", "sparse_reports.wall_ratio",
                     "parallel_sweep.speedup"):
            assert any(path in f for f in failures), path

    def test_ratio_budgets_skipped_below_four_cores(self):
        # Mirrors bench_parallel_sweep: a 1-core machine cannot
        # reproduce parallel ratios, so only walls stay enforced.
        mod = _load("perf_gate")
        failures = mod.run_gate(
            _snapshot(ratio=1.0, cores=1), _snapshot(ratio=4.0)
        )
        assert failures == []

    def test_correctness_flags_never_skipped(self):
        mod = _load("perf_gate")
        failures = mod.run_gate(
            _snapshot(cores=1, identical=False, validated=False),
            _snapshot(cores=1),
        )
        assert any("parallel_sweep.identical" in f for f in failures)
        assert any("all_validated" in f for f in failures)

    def test_old_schema_baseline_skips_missing_metrics(self):
        mod = _load("perf_gate")
        baseline = _snapshot()
        del baseline["kernels"]
        del baseline["benchmark_mode_xs"]
        assert mod.run_gate(_snapshot(), baseline) == []

    def test_metric_missing_from_current_fails(self):
        mod = _load("perf_gate")
        current = _snapshot()
        del current["kernels"]
        failures = mod.run_gate(current, _snapshot())
        assert any("missing from current snapshot" in f for f in failures)

    def test_obs_overhead_ceiling_fails(self):
        # The overhead budget is an absolute ceiling, not
        # baseline-relative: a cheap baseline cannot excuse 5 %.
        mod = _load("perf_gate")
        failures = mod.run_gate(_snapshot(overhead=0.05), _snapshot())
        assert any(
            "harness_observability.overhead_fraction" in f for f in failures
        )

    def test_obs_overhead_skipped_below_four_cores(self):
        mod = _load("perf_gate")
        failures = mod.run_gate(
            _snapshot(overhead=0.5, cores=1), _snapshot()
        )
        assert not any("overhead_fraction" in f for f in failures)

    def test_obs_utilization_skipped_below_four_cores(self):
        mod = _load("perf_gate")
        failures = mod.run_gate(
            _snapshot(utilization=0.1, cores=1), _snapshot()
        )
        assert not any("utilization" in f for f in failures)

    def test_obs_identity_flag_never_skipped(self):
        mod = _load("perf_gate")
        failures = mod.run_gate(
            _snapshot(cores=1, obs_identical=False), _snapshot(cores=1)
        )
        assert any("harness_observability.identical" in f for f in failures)

    def test_obs_metrics_missing_from_current_fails(self):
        mod = _load("perf_gate")
        current = _snapshot()
        del current["harness_observability"]
        failures = mod.run_gate(current, _snapshot())
        assert any(
            "harness_observability" in f and "missing from current" in f
            for f in failures
        )

    def test_obs_missing_from_baseline_skips(self):
        # a schema-3 baseline predates the observability section
        mod = _load("perf_gate")
        baseline = _snapshot()
        del baseline["harness_observability"]
        assert mod.run_gate(_snapshot(), baseline) == []

    def test_serve_warm_p99_ceiling_fails(self):
        # Absolute ceiling: a slow warm path fails regardless of what
        # the baseline measured.
        mod = _load("perf_gate")
        failures = mod.run_gate(_snapshot(warm_p99=1.5), _snapshot())
        assert any("serve.warm_p99_seconds" in f for f in failures)

    def test_serve_warm_p99_skipped_below_four_cores(self):
        mod = _load("perf_gate")
        failures = mod.run_gate(
            _snapshot(warm_p99=1.5, cores=1), _snapshot()
        )
        assert not any("warm_p99" in f for f in failures)

    def test_serve_identity_flag_never_skipped(self):
        mod = _load("perf_gate")
        failures = mod.run_gate(
            _snapshot(cores=1, serve_identical=False), _snapshot(cores=1)
        )
        assert any("serve.identical" in f for f in failures)

    def test_serve_missing_from_baseline_skips(self):
        # a schema-4 baseline predates the serving layer
        mod = _load("perf_gate")
        baseline = _snapshot()
        del baseline["serve"]
        assert mod.run_gate(_snapshot(), baseline) == []

    def test_cli_exit_codes(self, tmp_path, capsys):
        import json

        mod = _load("perf_gate")
        good = tmp_path / "good.json"
        good.write_text(json.dumps(_snapshot()))
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(_snapshot(wall=10.0)))
        assert mod.main([str(good), str(good)]) == 0
        assert mod.main([str(bad), str(good)]) == 1
        capsys.readouterr()


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
