"""The frozen ``repro.api`` v1 contract.

Three properties make the API safe to build a service on, and each is
tested here rather than asserted in prose:

* **round-trip stability** — for every payload type, ``from_json(
  to_json(x)) == x`` and re-encoding is *bit-identical* (property-
  tested with hypothesis over the full admissible input space);
* **schema freeze** — each type's :meth:`json_schema` matches a golden
  file under ``tests/goldens/api_v1/``; an accidental contract change
  fails the suite instead of shipping (regenerate deliberately with
  ``python -c`` + ``json.dumps(..., indent=2, sort_keys=True)``);
* **equivalence** — ``PredictRequest.to_run_spec()`` produces the same
  cell a direct :class:`~repro.core.spec.RunSpec` would, so the
  service and the library answer the same question identically.
"""

from __future__ import annotations

import json
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    API_VERSION,
    ApiError,
    MAX_JOBS,
    ApiService,
    JobStatus,
    PredictRequest,
    PredictResponse,
    SweepRequest,
    canonical_json,
    sweep_result_dict,
)
from repro.core.runner import Runner
from repro.core.spec import RunSpec

GOLDEN_DIR = pathlib.Path(__file__).parent / "goldens" / "api_v1"

# -- strategies -------------------------------------------------------------

_names = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=12
)
_scalars = st.one_of(
    st.booleans(),
    st.integers(min_value=-(2**31), max_value=2**31),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=20),
)
_params = st.dictionaries(_names, _scalars, max_size=4)

predict_requests = st.builds(
    PredictRequest,
    platform=_names,
    algorithm=_names,
    dataset=_names,
    scale=st.floats(min_value=0.01, max_value=64.0, allow_nan=False),
    num_workers=st.integers(min_value=1, max_value=100),
    # the DAS-4 machine model reserves one of its 8 cores for the OS
    cores_per_worker=st.integers(min_value=1, max_value=7),
    repetitions=st.integers(min_value=1, max_value=10),
    params=_params,
)

sweep_requests = st.builds(
    SweepRequest,
    platforms=st.lists(_names, min_size=1, max_size=4).map(tuple),
    algorithms=st.lists(_names, min_size=1, max_size=3).map(tuple),
    datasets=st.lists(_names, min_size=1, max_size=3).map(tuple),
    name=_names,
    scale=st.floats(min_value=0.01, max_value=64.0, allow_nan=False),
    num_workers=st.integers(min_value=1, max_value=100),
    cores_per_worker=st.integers(min_value=1, max_value=7),
    workers=st.integers(min_value=1, max_value=8),
    params=_params,
)

_opt_time = st.one_of(
    st.none(),
    st.floats(min_value=0, max_value=1e6, allow_nan=False, width=32),
)
predict_responses = st.builds(
    PredictResponse,
    platform=_names,
    algorithm=_names,
    dataset=_names,
    status=st.sampled_from(["ok", "crashed", "dnf"]),
    execution_time=_opt_time,
    computation_time=_opt_time,
    overhead_time=_opt_time,
    supersteps=st.one_of(st.none(), st.integers(min_value=0, max_value=500)),
    breakdown=st.dictionaries(
        _names,
        st.floats(min_value=0, max_value=1e6, allow_nan=False, width=32),
        max_size=5,
    ).map(lambda d: tuple(d.items())),
    num_vertices=st.one_of(st.none(), st.integers(min_value=0)),
    num_edges=st.one_of(st.none(), st.integers(min_value=0)),
    eps=_opt_time,
    vps=_opt_time,
    repetition_times=st.lists(
        st.floats(min_value=0, max_value=1e6, allow_nan=False, width=32),
        max_size=4,
    ).map(tuple),
    failure_reason=st.one_of(st.none(), st.text(min_size=1, max_size=40)),
)

job_statuses = st.builds(
    JobStatus,
    job_id=_names,
    kind=st.sampled_from(["predict", "sweep"]),
    state=st.sampled_from(["queued", "running", "done", "failed"]),
    result=st.one_of(st.none(), st.dictionaries(_names, _scalars, max_size=3)),
    error=st.one_of(st.none(), st.text(min_size=1, max_size=40)),
)


# -- round-trip properties --------------------------------------------------


class TestRoundTrip:
    """``from_json(to_json(x)) == x`` and the re-encoding is the same
    bytes — the wire format loses nothing and reorders nothing."""

    @settings(max_examples=200, deadline=None)
    @given(predict_requests)
    def test_predict_request(self, req):
        wire = req.to_json()
        back = PredictRequest.from_json(wire)
        assert back == req
        assert back.to_json() == wire

    @settings(max_examples=100, deadline=None)
    @given(sweep_requests)
    def test_sweep_request(self, req):
        wire = req.to_json()
        back = SweepRequest.from_json(wire)
        assert back == req
        assert back.to_json() == wire

    @settings(max_examples=200, deadline=None)
    @given(predict_responses)
    def test_predict_response(self, resp):
        wire = resp.to_json()
        back = PredictResponse.from_json(wire)
        assert back == resp
        assert back.to_json() == wire

    @settings(max_examples=100, deadline=None)
    @given(job_statuses)
    def test_job_status(self, status):
        wire = status.to_json()
        back = JobStatus.from_json(wire)
        assert back == status
        assert back.to_json() == wire

    @settings(max_examples=100, deadline=None)
    @given(predict_requests)
    def test_cell_key_survives_the_wire(self, req):
        """Coalescing keys computed client- and server-side agree."""
        assert PredictRequest.from_json(req.to_json()).cell_key() == (
            req.cell_key()
        )

    def test_canonical_json_is_sorted_and_compact(self):
        assert canonical_json({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'


# -- golden schemas ---------------------------------------------------------


@pytest.mark.parametrize(
    "cls, golden",
    [
        (PredictRequest, "predict_request.json"),
        (SweepRequest, "sweep_request.json"),
        (PredictResponse, "predict_response.json"),
        (JobStatus, "job_status.json"),
    ],
)
def test_schema_matches_golden(cls, golden):
    """The published v1 schema is frozen; editing it is a deliberate
    act (regenerate the golden file), never a side effect."""
    expected = json.loads((GOLDEN_DIR / golden).read_text())
    assert cls.json_schema() == expected


@pytest.mark.parametrize(
    "cls", [PredictRequest, SweepRequest, PredictResponse, JobStatus]
)
def test_schema_is_closed_and_versioned(cls):
    schema = cls.json_schema()
    assert schema["additionalProperties"] is False
    assert schema["properties"]["api_version"] == {"const": API_VERSION}


# -- validation errors ------------------------------------------------------


class TestValidation:
    def test_missing_field(self):
        with pytest.raises(ApiError, match="missing field 'dataset'"):
            PredictRequest.from_dict(
                {"platform": "giraph", "algorithm": "bfs"}
            )

    def test_unknown_version(self):
        with pytest.raises(ApiError, match="unsupported api_version 99"):
            PredictRequest.from_dict({
                "api_version": 99, "platform": "giraph",
                "algorithm": "bfs", "dataset": "amazon",
            })

    def test_non_scalar_param(self):
        with pytest.raises(ApiError, match="non-JSON-scalar"):
            PredictRequest(
                platform="giraph", algorithm="bfs", dataset="amazon",
                params={"sources": [1, 2, 3]},
            )

    def test_invalid_body(self):
        with pytest.raises(ApiError, match="not valid JSON"):
            PredictRequest.from_json(b"{nope")

    def test_bad_counts(self):
        with pytest.raises(ApiError):
            PredictRequest(
                platform="p", algorithm="a", dataset="d", num_workers=0
            )
        with pytest.raises(ApiError):
            SweepRequest(
                platforms=("p",), algorithms=("a",), datasets=("d",),
                workers=0,
            )

    def test_empty_sweep_axis(self):
        with pytest.raises(ApiError, match="platforms must be"):
            SweepRequest(platforms=(), algorithms=("a",), datasets=("d",))

    def test_sweep_axis_rejects_bare_string(self):
        with pytest.raises(ApiError, match="algorithms must be"):
            SweepRequest(
                platforms=("p",), algorithms="bfs", datasets=("d",)
            )

    def test_unknown_job_state(self):
        with pytest.raises(ApiError, match="unknown job state"):
            JobStatus(job_id="j", kind="predict", state="paused")

    def test_uncoercible_field_types_are_api_errors(self):
        """Client payloads with wrong field types must surface as the
        contract's 400-mapped error, never a bare TypeError/ValueError
        (which the server would answer with a 500)."""
        base = {"platform": "giraph", "algorithm": "bfs", "dataset": "amazon"}
        with pytest.raises(ApiError, match="bad PredictRequest field"):
            PredictRequest.from_dict(dict(base, scale="fast"))
        with pytest.raises(ApiError, match="bad PredictRequest field"):
            PredictRequest.from_dict(dict(base, num_workers={}))
        with pytest.raises(ApiError, match="bad SweepRequest field"):
            SweepRequest.from_dict({
                "platforms": ["giraph"], "algorithms": ["bfs"],
                "datasets": ["amazon"], "workers": "many",
            })


# -- equivalence with the spec layer ---------------------------------------


class TestSpecEquivalence:
    def test_request_produces_the_canonical_spec(self, cluster20):
        req = PredictRequest(
            platform="Giraph", algorithm="BFS", dataset="Amazon"
        )
        spec = req.to_run_spec()
        direct = RunSpec(
            platform="giraph", algorithm="bfs", dataset="amazon",
            cluster=cluster20,
        )
        assert spec.cell_key() == direct.cell_key()

    def test_sweep_cells_follow_canonical_order(self):
        req = SweepRequest(
            platforms=("giraph", "neo4j"),
            algorithms=("bfs",),
            datasets=("amazon", "wikitalk"),
        )
        cells = req.cells()
        assert [(c.dataset, c.platform) for c in cells] == [
            ("amazon", "giraph"), ("amazon", "neo4j"),
            ("wikitalk", "giraph"), ("wikitalk", "neo4j"),
        ]
        spec_cells = list(req.to_sweep_spec().cells())
        assert [c.to_run_spec().cell_key() for c in cells] == [
            s.cell_key() for s in spec_cells
        ]

    def test_response_from_record_matches_runner(self):
        runner = Runner()
        spec = PredictRequest(
            platform="neo4j", algorithm="bfs", dataset="amazon"
        ).to_run_spec()
        record = runner.run(spec)
        resp = PredictResponse.from_record(record)
        assert resp.ok
        assert resp.execution_time == record.execution_time
        assert resp.status == "ok"
        # the dict round-trips through the canonical wire encoding
        assert PredictResponse.from_json(resp.to_json()) == resp

    def test_failed_cell_is_an_answer_too(self):
        runner = Runner()
        record = runner.run(PredictRequest(
            platform="giraph", algorithm="stats", dataset="wikitalk"
        ).to_run_spec())
        assert not record.ok
        resp = PredictResponse.from_record(record)
        assert resp.status == record.status.value
        assert resp.execution_time is None
        assert resp.failure_reason
        assert PredictResponse.from_json(resp.to_json()) == resp


# -- the reference service --------------------------------------------------


class TestApiService:
    @pytest.fixture(scope="class")
    def service(self):
        return ApiService(Runner())

    def test_predict_submit_result(self, service):
        req = PredictRequest(
            platform="neo4j", algorithm="bfs", dataset="amazon"
        )
        job_id = service.submit(req)
        status = service.result(job_id)
        assert status.kind == "predict"
        assert status.state == "done"
        direct = PredictResponse.from_record(
            service.runner.run(req.to_run_spec())
        )
        assert canonical_json(status.result) == direct.to_json()

    def test_sweep_submit_result(self, service):
        req = SweepRequest(
            platforms=("giraph", "neo4j"),
            algorithms=("bfs",),
            datasets=("amazon",),
            name="svc-sweep",
        )
        job_id = service.submit(req)
        status = service.result(job_id)
        assert status.state == "done"
        assert status.kind == "sweep"
        assert status.result["name"] == "svc-sweep"
        assert len(status.result["cells"]) == 2
        direct = sweep_result_dict(
            service.runner.run_grid(req.to_sweep_spec())
        )
        assert canonical_json(status.result) == canonical_json(direct)

    def test_failed_job_reports_failed_state(self, service):
        job_id = service.submit(PredictRequest(
            platform="no-such-platform", algorithm="bfs", dataset="amazon"
        ))
        status = service.result(job_id)
        assert status.state == "failed"
        assert status.error

    def test_job_table_evicts_only_finished_jobs(self):
        service = ApiService(Runner())
        sweep = service.open_job("sweep")
        service.start_job(sweep.job_id)
        predicts = [service.open_job("predict") for _ in range(MAX_JOBS)]
        for job in predicts:
            service.finish_job(job.job_id, {})
        # 1025 jobs: the oldest *finished* one goes, not the running sweep
        assert service.result(sweep.job_id).state == "running"
        with pytest.raises(KeyError):
            service.result(predicts[0].job_id)
        assert service.result(predicts[1].job_id).state == "done"
        service.finish_job(sweep.job_id, RuntimeError("lost a node"))
        failed = service.result(sweep.job_id)
        assert (failed.state, failed.error) == ("failed", "lost a node")

    def test_unknown_job_raises(self, service):
        with pytest.raises(KeyError):
            service.result("job-999999")

    def test_submit_rejects_foreign_types(self, service):
        with pytest.raises(ApiError, match="submit\\(\\) takes"):
            service.submit({"platform": "giraph"})

    def test_repetitions_mismatch_uses_request_repetitions(self, service):
        req = PredictRequest(
            platform="neo4j", algorithm="bfs", dataset="amazon",
            repetitions=3,
        )
        resp = service.predict(req)
        assert len(resp.repetition_times) == 3
        direct = PredictResponse.from_record(
            Runner(
                repetitions=3, trace_cache=service.runner.trace_cache
            ).run(req.to_run_spec())
        )
        assert resp.to_json() == direct.to_json()

    def test_scale_mismatch_uses_request_scale(self, service):
        req = PredictRequest(
            platform="neo4j", algorithm="bfs", dataset="amazon", scale=0.5
        )
        resp = service.predict(req)
        assert resp.ok
        direct = PredictResponse.from_record(
            Runner(scale=0.5, trace_cache=service.runner.trace_cache).run(
                req.to_run_spec()
            )
        )
        assert resp.to_json() == direct.to_json()
