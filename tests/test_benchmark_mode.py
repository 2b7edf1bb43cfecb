"""Benchmark mode: workloads, validators, scale factors, grid, report.

The Graphalytics-style contract under test: every workload's platform
output validates PASS against an independently computed reference, and
any perturbation of that output — a flipped label, an off-by-epsilon
rank — flips the verdict to FAIL.  The ``BenchmarkGrid`` memo layer
must be invisible: records obtained through it are bit-identical to
direct ``Runner`` runs.
"""

import json

import numpy as np
import pytest

from repro.core.benchmark import (
    ALL_PLATFORMS,
    BenchmarkGrid,
    run_benchmark,
)
from repro.core.export import export
from repro.core.report import BenchmarkCell, BenchmarkReport
from repro.core.runner import Runner
from repro.core.spec import RunSpec, SweepSpec
from repro.core.workloads import (
    WORKLOAD_NAMES,
    ValidationVerdict,
    Workload,
    get_workload,
    list_workloads,
    reference_output,
    validate_epsilon,
    validate_equivalence,
    validate_exact,
)
from repro.datasets import load_dataset
from repro.datasets.registry import (
    SCALE_FACTOR_NAMES,
    SCALE_FACTORS,
    list_scale_factors,
    resolve_scale,
    scale_factor,
)

TINY = resolve_scale("tiny")


# ---------------------------------------------------------------- validators
class TestValidateExact:
    def test_identical_arrays_pass(self):
        a = np.array([1, 2, 3])
        v = validate_exact(a, a.copy())
        assert v.passed and v.status == "PASS" and bool(v)

    def test_single_flipped_element_fails(self):
        ref = np.array([1, 2, 3])
        cand = ref.copy()
        cand[1] += 1
        v = validate_exact(ref, cand)
        assert not v.passed
        assert "1 of 3" in v.detail

    def test_shape_mismatch_fails(self):
        v = validate_exact(np.zeros(3), np.zeros(4))
        assert not v.passed and "shape" in v.detail

    def test_scalars(self):
        assert validate_exact(7, 7).passed
        assert not validate_exact(7, 8).passed

    def test_nan_equals_nan(self):
        a = np.array([1.0, np.nan])
        assert validate_exact(a, a.copy()).passed


class TestValidateEpsilon:
    def test_within_tolerance_passes(self):
        ref = np.array([1.0, 2.0, 3.0])
        v = validate_epsilon(ref, ref * (1 + 1e-6), epsilon=1e-4)
        assert v.passed

    def test_beyond_tolerance_fails(self):
        ref = np.array([1.0, 2.0, 3.0])
        v = validate_epsilon(ref, ref * 1.01, epsilon=1e-4)
        assert not v.passed and "relative error" in v.detail

    def test_near_zero_entries_do_not_vacuously_pass(self):
        # An entry near zero is judged against the vector's own scale,
        # so a grossly wrong value there still fails.
        ref = np.array([1.0, 1e-12])
        cand = np.array([1.0, 0.5])
        assert not validate_epsilon(ref, cand, epsilon=1e-4).passed

    def test_nonfinite_pattern_must_match(self):
        ref = np.array([1.0, np.inf])  # unreached SSSP vertex
        assert validate_epsilon(ref, ref.copy()).passed
        assert not validate_epsilon(ref, np.array([1.0, 9.9])).passed

    def test_shape_mismatch_fails(self):
        assert not validate_epsilon(np.zeros(2), np.zeros(3)).passed


class TestValidateEquivalence:
    def test_relabelled_partition_passes(self):
        ref = np.array([0, 0, 1, 1, 2])
        cand = np.array([7, 7, 3, 3, 5])  # same classes, new names
        v = validate_equivalence(ref, cand)
        assert v.passed and "3 classes" in v.detail

    def test_merged_classes_fail(self):
        ref = np.array([0, 0, 1, 1])
        cand = np.array([0, 0, 0, 0])
        assert not validate_equivalence(ref, cand).passed

    def test_split_class_fails(self):
        ref = np.array([0, 0, 0, 0])
        cand = np.array([0, 1, 0, 0])
        assert not validate_equivalence(ref, cand).passed

    def test_shape_mismatch_fails(self):
        assert not validate_equivalence(np.zeros(2), np.zeros(3)).passed


# ---------------------------------------------------------------- registry
class TestWorkloadRegistry:
    def test_canonical_names(self):
        assert len(WORKLOAD_NAMES) == 11
        assert WORKLOAD_NAMES[:6] == ("bfs", "wcc", "cdlp", "pr", "sssp",
                                      "lcc")

    def test_lookup_is_case_insensitive(self):
        assert get_workload("WCC") is get_workload("wcc")

    def test_unknown_workload_names_choices(self):
        with pytest.raises(KeyError, match="cdlp"):
            get_workload("nope")

    def test_list_workloads_is_discovery_shaped(self):
        pairs = list_workloads()
        assert [name for name, _ in pairs] == list(WORKLOAD_NAMES)
        for _, desc in pairs:
            assert "validation" in desc

    def test_bad_semantics_rejected(self):
        with pytest.raises(ValueError, match="semantics"):
            Workload("x", "bfs", "X", "desc", semantics="fuzzy")

    def test_paper_algorithm_mapping(self):
        assert get_workload("wcc").algorithm == "conn"
        assert get_workload("cdlp").algorithm == "cd"
        assert get_workload("pr").semantics == "epsilon"


# --------------------------------------------------- reference validation
def _perturb(wl: Workload, canonical: object) -> np.ndarray:
    """A minimal wrong answer for ``wl``'s semantics."""
    arr = np.asarray(canonical)
    if wl.semantics == "equivalence":
        flat = arr.reshape(-1).copy()
        if len(np.unique(flat)) > 1:
            flat[:] = flat[0]  # merge every class into one
        else:
            flat[0] = flat[0] + 1  # split the single class
        return flat.reshape(arr.shape)
    if wl.semantics == "epsilon":
        out = arr.astype(np.float64).copy()
        finite = np.isfinite(out.reshape(-1))
        idx = int(np.argmax(finite))
        scale = max(1.0, float(np.abs(out.reshape(-1)[finite]).max()))
        out.reshape(-1)[idx] += 1e3 * wl.epsilon * scale
        return out
    # exact
    out = arr.copy()
    if out.ndim == 0:
        return out + 1
    flat = out.reshape(-1)
    flat[0] = ~flat[0] if out.dtype == bool else flat[0] + 1
    return out


@pytest.mark.parametrize("wl_name", WORKLOAD_NAMES)
class TestReferenceValidation:
    def test_platform_output_validates_pass(self, wl_name):
        wl = get_workload(wl_name)
        runner = Runner(scale=TINY)
        graph = load_dataset("kgs", scale="tiny")
        reference = reference_output(wl, graph)
        for platform in ("giraph", "graphlab"):
            rec = runner.run(RunSpec.make(
                platform, wl.algorithm, "kgs", **wl.params_dict(),
            ))
            assert rec.ok, (platform, wl_name, rec.failure_reason)
            verdict = wl.validate(reference, rec.result.output)
            assert verdict.passed, (platform, wl_name, verdict.detail)

    def test_perturbed_output_flips_to_fail(self, wl_name):
        wl = get_workload(wl_name)
        graph = load_dataset("kgs", scale="tiny")
        reference = reference_output(wl, graph)
        wrong = _perturb(wl, wl._canonical(reference))
        verdict = wl.validate(reference, wrong)
        assert not verdict.passed, (wl_name, verdict.detail)
        assert verdict.status == "FAIL"


# ---------------------------------------------------------------- scales
class TestScaleFactors:
    def test_named_factors(self):
        assert SCALE_FACTOR_NAMES == ("tiny", "xs", "s", "m", "l", "xl")
        assert resolve_scale("tiny") == 0.125
        assert resolve_scale("m") == 1.0

    def test_numeric_strings_and_floats_pass_through(self):
        assert resolve_scale("0.5") == 0.5
        assert resolve_scale(2.0) == 2.0

    def test_unknown_name_lists_choices(self):
        with pytest.raises(KeyError, match="tiny"):
            resolve_scale("huge")
        with pytest.raises(KeyError, match="tiny"):
            scale_factor("huge")

    def test_content_hashes_are_stable_and_distinct(self):
        hashes = {scale_factor(n).content_hash() for n in SCALE_FACTOR_NAMES}
        assert len(hashes) == len(SCALE_FACTOR_NAMES)
        for h in hashes:
            assert len(h) == 16 and int(h, 16) >= 0
        assert scale_factor("tiny").content_hash() == \
            scale_factor("tiny").content_hash()

    def test_multipliers_double_up_the_ladder(self):
        mults = [SCALE_FACTORS[n].multiplier for n in SCALE_FACTOR_NAMES]
        assert mults == sorted(mults)
        for small, large in zip(mults, mults[1:]):
            assert large == 2 * small

    def test_named_scale_aliases_numeric_cache(self):
        g_named = load_dataset("kgs", scale="m")
        g_float = load_dataset("kgs", scale=1.0)
        assert g_named is g_float

    def test_targets_scale_with_multiplier(self):
        from repro.datasets.registry import dataset_spec

        kgs = dataset_spec("kgs")
        tiny, xl = scale_factor("tiny"), scale_factor("xl")
        v_tiny = tiny.target_vertices(kgs)
        assert xl.target_vertices(kgs) > v_tiny
        assert tiny.target_edges(kgs) >= v_tiny  # avg degree >= 1

    def test_list_scale_factors_discovery(self):
        pairs = list_scale_factors()
        assert [name for name, _ in pairs] == list(SCALE_FACTOR_NAMES)
        assert any("x0.125" in desc for _, desc in pairs)


# ---------------------------------------------------------------- grid
class TestBenchmarkGrid:
    def test_repeat_run_returns_memoized_record(self):
        grid = BenchmarkGrid(Runner())
        a = grid.run(RunSpec("giraph", "bfs", "kgs"))
        b = grid.run(RunSpec("giraph", "bfs", "kgs"))
        assert a is b
        assert len(grid) == 1

    def test_sweep_and_single_cell_share_records(self):
        grid = BenchmarkGrid(Runner())
        sweep = SweepSpec.make(
            "g", platforms=["giraph", "hadoop"],
            algorithms=["bfs"], datasets=["kgs"],
        )
        exp = grid.run_sweep(sweep)
        rec = grid.run(RunSpec("giraph", "bfs", "kgs"))
        assert rec is exp.get("giraph", "bfs", "kgs")

    def test_grid_record_bit_identical_to_direct_runner(self):
        spec = RunSpec("giraph", "bfs", "kgs")
        direct = Runner().run(spec)
        via_grid = BenchmarkGrid(Runner()).run(spec)
        assert via_grid.execution_time == direct.execution_time
        assert via_grid.result.breakdown == direct.result.breakdown
        assert via_grid.result.supersteps == direct.result.supersteps

    def test_suite_figures_bit_identical_through_grid(self):
        """fig01 through the refactored grid path == direct Runner runs."""
        from repro.core.suite import BenchmarkSuite

        exp, _ = BenchmarkSuite().fig01_bfs()
        runner = Runner()
        for rec in exp.records:
            direct = runner.run(RunSpec(rec.platform, "bfs", rec.dataset))
            assert rec.status is direct.status, (rec.platform, rec.dataset)
            assert rec.execution_time == direct.execution_time
            if rec.ok:
                assert rec.result.breakdown == direct.result.breakdown


# ---------------------------------------------------------------- driver
class TestRunBenchmark:
    @pytest.fixture(scope="class")
    def report(self):
        return run_benchmark(
            workloads=("bfs", "wcc", "pr"),
            platforms=("giraph", "graphlab"),
            datasets=("kgs",),
            scale="tiny",
            name="unit",
        )

    def test_all_cells_validate_pass(self, report):
        assert len(report.cells) == 3 * 2 * 1
        assert report.all_validated
        for cell in report.cells:
            assert cell.ok and cell.validated
            assert cell.verdict.passed
            assert "PASS" in cell.describe()

    def test_scale_identity_resolved(self, report):
        assert report.scale == TINY
        assert report.scale_name == "tiny"
        assert report.scale_hash == scale_factor("tiny").content_hash()

    def test_targets_match_generated_graphs(self, report):
        (t,) = report.targets
        assert t["dataset"] == "kgs"
        assert t["actual_vertices"] == t["target_vertices"]

    def test_summary_counts(self, report):
        s = report.summary()
        assert s["cells"] == 6
        assert s["validated_pass"] == 6
        assert s["validated_fail"] == 0
        assert s["failures"] == 0
        assert s["all_validated"] is True

    def test_render_contains_grid_and_verdicts(self, report):
        text = report.render()
        assert "PASS" in text
        assert "tiny" in text
        assert "PageRank" in text
        assert "Validation" in text

    def test_to_dict_and_export_roundtrip(self, report, tmp_path):
        path = tmp_path / "bench.json"
        export(report, kind="benchmark", path=path)
        doc = json.loads(path.read_text())
        assert doc["report"] == "unit"
        assert doc["scale"]["name"] == "tiny"
        assert len(doc["cells"]) == 6
        for cell in doc["cells"]:
            assert cell["validation"]["status"] == "PASS"
        assert doc["summary"]["all_validated"] is True

    def test_numeric_scale_equal_to_named_factor_gets_name(self):
        rep = run_benchmark(
            workloads=("bfs",), platforms=("giraph",), datasets=("kgs",),
            scale=0.125,
        )
        assert rep.scale_name == "tiny"

    def test_mismatched_runner_scale_rejected(self):
        with pytest.raises(ValueError, match="scale"):
            run_benchmark(
                workloads=("bfs",), platforms=("giraph",),
                datasets=("kgs",), scale="tiny", runner=Runner(scale=1.0),
            )

    def test_failed_cells_have_no_verdict(self):
        # neo4j exceeds its time budget on dotaleague at full scale:
        # the cell lands in failures(), not in the validation counts.
        rep = run_benchmark(
            workloads=("stats",), platforms=("neo4j",),
            datasets=("dotaleague",), scale="m",
        )
        (cell,) = rep.cells
        assert not cell.ok and cell.verdict is None
        assert not cell.validated
        assert rep.failures() == [cell]
        assert rep.all_validated  # nothing validated FAIL
        assert cell.describe() == "DNF"

    def test_get_addresses_cells(self, report):
        cell = report.get("pr", "graphlab", "kgs")
        assert isinstance(cell, BenchmarkCell)
        assert report.get("pr", "neo4j", "kgs") is None


class TestWallBudget:
    """Satellite: per-workload target wall budgets WARN, never FAIL."""

    def _cell(self, execution_time, wall_budget):
        return BenchmarkCell(
            workload="bfs", platform="giraph", dataset="kgs", status="ok",
            execution_time=execution_time,
            verdict=ValidationVerdict(True, "exact", "bit-identical"),
            wall_budget=wall_budget,
        )

    def test_every_workload_declares_the_paper_hour(self):
        # Section 3.2: experiments are capped at one hour of processing
        for name in WORKLOAD_NAMES:
            assert get_workload(name).target_wall_budget == 3600.0

    def test_budget_must_be_positive_or_none(self):
        with pytest.raises(ValueError, match="target_wall_budget"):
            Workload(
                "bad", "bfs", "Bad", "x", semantics="exact",
                target_wall_budget=0.0,
            )
        wl = Workload(
            "free", "bfs", "Free", "x", semantics="exact",
            target_wall_budget=None,
        )
        assert wl.target_wall_budget is None

    def test_over_budget_is_a_warn_not_a_fail(self):
        over = self._cell(4000.0, 3600.0)
        assert over.over_budget
        assert over.validated  # WARN does not flip validation
        assert over.describe().endswith("WARN")
        under = self._cell(100.0, 3600.0)
        unbudgeted = self._cell(4000.0, None)
        assert not under.over_budget and not unbudgeted.over_budget
        assert "WARN" not in under.describe()

    def test_report_counts_and_renders_warnings(self):
        report = run_benchmark(
            workloads=("bfs",), platforms=("giraph",), datasets=("kgs",),
            scale="tiny", name="budget-unit",
        )
        (cell,) = report.cells
        assert cell.wall_budget == 3600.0
        assert not cell.over_budget  # tiny scale is far under an hour
        assert report.summary()["budget_warnings"] == 0

        import dataclasses

        report.cells[0] = dataclasses.replace(cell, wall_budget=1e-9)
        assert report.budget_warnings() == [report.cells[0]]
        assert report.summary()["budget_warnings"] == 1
        assert report.all_validated  # still not a failure
        text = report.render()
        assert "Wall-budget warnings" in text
        assert "WARN" in text
        doc = report.to_dict()
        assert doc["cells"][0]["over_budget"] is True
        assert doc["cells"][0]["wall_budget"] == 1e-9


@pytest.mark.slow
def test_full_tiny_grid_all_completed_cells_pass():
    """The acceptance sweep: every workload on every platform and
    dataset at the smallest scale — each completed cell must PASS."""
    report = run_benchmark(workloads="all", scale="tiny")
    assert isinstance(report, BenchmarkReport)
    assert report.all_validated
    completed = [c for c in report.cells if c.ok]
    assert completed, "no cell completed"
    for cell in completed:
        assert cell.verdict is not None and cell.verdict.passed


# ---------------------------------------------------------------- CLI
class TestBenchmarkCli:
    def test_benchmark_command_smoke(self, capsys, tmp_path):
        from repro.cli import main

        out = tmp_path / "bench.json"
        code = main([
            "benchmark", "--workloads", "bfs", "--platforms", "giraph",
            "--datasets", "kgs", "--scale", "tiny", "--json", str(out),
        ])
        assert code == 0
        text = capsys.readouterr().out
        assert "PASS" in text
        doc = json.loads(out.read_text())
        assert doc["summary"]["all_validated"] is True

    def test_list_workloads_and_scale_factors(self, capsys):
        from repro.cli import main

        assert main(["list", "workloads"]) == 0
        assert "cdlp" in capsys.readouterr().out
        assert main(["list", "scale-factors"]) == 0
        out = capsys.readouterr().out
        assert "tiny" in out and "x0.125" in out

    def test_unknown_workload_is_an_argument_error(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["benchmark", "--workloads", "nope"])
        assert exc.value.code == 2
        assert "graphbench list workloads" in capsys.readouterr().err

    def test_unknown_scale_is_an_argument_error(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["benchmark", "--scale", "huge"])
        assert exc.value.code == 2
        assert "scale" in capsys.readouterr().err

    def test_global_scale_accepts_named_factors(self, capsys):
        from repro.cli import build_parser, main

        args = build_parser().parse_args(["--scale", "tiny", "table", "2"])
        assert args.scale == 0.125 and type(args.scale) is float
        assert main(["--scale", "tiny", "table", "2"]) == 0
        named = capsys.readouterr().out
        assert main(["--scale", "0.125", "table", "2"]) == 0
        assert capsys.readouterr().out == named
