"""The frozen public API (``repro.api``): versioned request/response
values behind one ``submit()/result()`` surface.

Nine PRs of growth accreted entry points — ``Runner.run``,
``Runner.run_grid``, ``run_benchmark``, ``run_chaos_sweep``, four CLI
subcommands — each with its own argument vocabulary.  A long-running
prediction service (:mod:`repro.serve`) cannot sit on top of that
surface: a server needs **one** request/response contract whose wire
shape is frozen, schema'd, and round-trip stable across releases.
This module is that contract:

* :class:`PredictRequest` — "which platform/cluster for this workload,
  and at what cost?" for **one** cell; wraps
  :class:`~repro.core.spec.RunSpec`.
* :class:`SweepRequest` — the same question over a named cartesian
  grid; wraps :class:`~repro.core.spec.SweepSpec`.
* :class:`PredictResponse` — the full-disclosure answer for one cell
  (execution/computation/overhead time, breakdown, throughput,
  failure class), built from a :class:`~repro.core.results.RunRecord`.
* :class:`JobStatus` — the lifecycle view of a submitted request
  (``queued -> running -> done | failed``).
* :class:`ApiService` — the one implementation of the
  ``submit()/result()`` surface: runner views, batched predicts and
  the job table.  The HTTP server in :mod:`repro.serve` answers
  through it and adds only transport, admission, the answer cache,
  coalescing and its worker processes.  ``graphbench run`` builds its
  cell from a :class:`PredictRequest` too, but calls ``Runner.run``
  directly.

Stability rules (``API_VERSION`` = 1):

* every payload carries ``"api_version"``; adding optional fields is a
  minor change, removing or re-typing a field bumps the version;
* ``to_json()``/``from_json()`` round-trip **bit-identically** (the
  canonical encoding is ``sort_keys=True`` with compact separators) —
  property-tested in ``tests/test_api.py``;
* the JSON Schemas returned by each type's :meth:`json_schema` are
  golden-filed under ``tests/goldens/api_v1/``; an accidental contract
  change fails the suite.
"""

from __future__ import annotations

import collections
import dataclasses
import itertools
import json
import typing as _t

from repro.cluster.spec import das4_cluster
from repro.core.spec import RunSpec, SweepSpec

if _t.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.results import ExperimentResult, RunRecord
    from repro.core.runner import Runner

__all__ = [
    "API_VERSION",
    "ApiError",
    "ApiService",
    "JobStatus",
    "PredictRequest",
    "PredictResponse",
    "SweepRequest",
    "canonical_json",
]

#: the frozen contract version stamped on every payload
API_VERSION = 1

#: JSON types admissible as program-parameter values (the wire format
#: cannot carry arbitrary Python objects, and the spec layer's repr()
#: normalization would not round-trip them)
_SCALAR = (bool, int, float, str)


def canonical_json(payload: dict) -> str:
    """The canonical wire encoding: sorted keys, compact separators.

    Byte-identical re-encoding is part of the contract — a cached
    server answer and a direct :meth:`Runner.run
    <repro.core.runner.Runner.run>` answer must serialize to the same
    bytes.
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


class ApiError(ValueError):
    """A request payload violating the v1 contract (bad type, missing
    field, unsupported parameter value)."""


def _check_params(params: tuple[tuple[str, object], ...]) -> None:
    for key, value in params:
        if not isinstance(value, _SCALAR):
            raise ApiError(
                f"param {key!r} has non-JSON-scalar value {value!r}; "
                f"the v1 wire format admits bool/int/float/str only"
            )


def _normalize_params(
    params: _t.Mapping[str, object] | _t.Iterable[tuple[str, object]] | None,
) -> tuple[tuple[str, object], ...]:
    if params is None:
        return ()
    items = params.items() if isinstance(params, _t.Mapping) else params
    return tuple(sorted((str(k), v) for k, v in items))


def _require(payload: dict, field: str, cls: str) -> object:
    try:
        return payload[field]
    except KeyError:
        raise ApiError(f"{cls} payload is missing field {field!r}") from None


@dataclasses.dataclass(frozen=True)
class PredictRequest:
    """One what-if question: a single (platform, algorithm, dataset)
    cell on a modeled cluster.

    ``params`` is stored in the spec layer's canonical sorted-tuple
    form; values are restricted to JSON scalars so the request
    round-trips the wire bit-identically.
    """

    platform: str
    algorithm: str
    dataset: str
    scale: float = 1.0
    num_workers: int = 20
    cores_per_worker: int = 1
    repetitions: int = 1
    params: tuple[tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "platform", str(self.platform).lower())
        object.__setattr__(self, "algorithm", str(self.algorithm).lower())
        object.__setattr__(self, "dataset", str(self.dataset).lower())
        object.__setattr__(self, "scale", float(self.scale))
        object.__setattr__(self, "params", _normalize_params(self.params))
        _check_params(self.params)
        if self.num_workers < 1 or self.cores_per_worker < 1:
            raise ApiError("num_workers and cores_per_worker must be >= 1")
        if self.repetitions < 1:
            raise ApiError("repetitions must be >= 1")

    # -- conversions -------------------------------------------------------
    def to_run_spec(self) -> RunSpec:
        """The equivalent :class:`~repro.core.spec.RunSpec`."""
        return RunSpec(
            platform=self.platform,
            algorithm=self.algorithm,
            dataset=self.dataset,
            cluster=das4_cluster(self.num_workers, self.cores_per_worker),
            params=self.params,
        )

    def cell_key(self) -> tuple:
        """Content identity (coalescing and the answer cache key); the
        scale participates because the same named dataset at two scales
        is two different workloads."""
        return (float(self.scale), int(self.repetitions),
                self.to_run_spec().cell_key())

    def to_dict(self) -> dict:
        return {
            "api_version": API_VERSION,
            "platform": self.platform,
            "algorithm": self.algorithm,
            "dataset": self.dataset,
            "scale": self.scale,
            "num_workers": self.num_workers,
            "cores_per_worker": self.cores_per_worker,
            "repetitions": self.repetitions,
            "params": {k: v for k, v in self.params},
        }

    def to_json(self) -> str:
        return canonical_json(self.to_dict())

    @classmethod
    def from_dict(cls, payload: dict) -> "PredictRequest":
        if not isinstance(payload, dict):
            raise ApiError(
                f"PredictRequest payload must be an object, "
                f"got {type(payload).__name__}"
            )
        version = payload.get("api_version", API_VERSION)
        if version != API_VERSION:
            raise ApiError(
                f"unsupported api_version {version!r}; this build speaks "
                f"version {API_VERSION}"
            )
        params = payload.get("params") or {}
        if not isinstance(params, dict):
            raise ApiError("params must be an object of scalar values")
        try:
            return cls(
                platform=str(_require(payload, "platform", "PredictRequest")),
                algorithm=str(
                    _require(payload, "algorithm", "PredictRequest")
                ),
                dataset=str(_require(payload, "dataset", "PredictRequest")),
                scale=float(payload.get("scale", 1.0)),
                num_workers=int(payload.get("num_workers", 20)),
                cores_per_worker=int(payload.get("cores_per_worker", 1)),
                repetitions=int(payload.get("repetitions", 1)),
                params=params,
            )
        except ApiError:
            raise
        except (TypeError, ValueError) as exc:
            raise ApiError(f"bad PredictRequest field: {exc}") from None

    @classmethod
    def from_json(cls, text: str | bytes) -> "PredictRequest":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ApiError(f"request body is not valid JSON: {exc}") from None
        return cls.from_dict(payload)

    @classmethod
    def json_schema(cls) -> dict:
        """The v1 JSON Schema for this request (golden-filed)."""
        return {
            "$schema": "https://json-schema.org/draft/2020-12/schema",
            "title": "PredictRequest",
            "description": "One what-if prediction cell: which "
            "platform/cluster for this workload, at what cost?",
            "type": "object",
            "required": ["platform", "algorithm", "dataset"],
            "additionalProperties": False,
            "properties": {
                "api_version": {"const": API_VERSION},
                "platform": {"type": "string"},
                "algorithm": {"type": "string"},
                "dataset": {"type": "string"},
                "scale": {"type": "number", "exclusiveMinimum": 0,
                          "default": 1.0},
                "num_workers": {"type": "integer", "minimum": 1,
                                "default": 20},
                "cores_per_worker": {"type": "integer", "minimum": 1,
                                     "default": 1},
                "repetitions": {"type": "integer", "minimum": 1,
                                "default": 1},
                "params": {
                    "type": "object",
                    "additionalProperties": {
                        "type": ["boolean", "integer", "number", "string"]
                    },
                    "default": {},
                },
            },
        }


@dataclasses.dataclass(frozen=True)
class SweepRequest:
    """A named cartesian grid of prediction cells (the ``/v1/sweep``
    payload); ``workers`` is the executor's process count, while
    ``num_workers``/``cores_per_worker`` describe the *modeled*
    cluster, exactly as in the CLI vocabulary."""

    platforms: tuple[str, ...]
    algorithms: tuple[str, ...]
    datasets: tuple[str, ...]
    name: str = "api-sweep"
    scale: float = 1.0
    num_workers: int = 20
    cores_per_worker: int = 1
    workers: int = 1
    params: tuple[tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        for axis in ("platforms", "algorithms", "datasets"):
            values = getattr(self, axis)
            if isinstance(values, str) or not values:
                raise ApiError(f"{axis} must be a non-empty list of names")
            object.__setattr__(
                self, axis, tuple(str(v).lower() for v in values)
            )
        object.__setattr__(self, "scale", float(self.scale))
        object.__setattr__(self, "params", _normalize_params(self.params))
        _check_params(self.params)
        if self.workers < 1:
            raise ApiError("workers must be >= 1")
        if self.num_workers < 1 or self.cores_per_worker < 1:
            raise ApiError("num_workers and cores_per_worker must be >= 1")

    # -- conversions -------------------------------------------------------
    def to_sweep_spec(self) -> SweepSpec:
        """The equivalent :class:`~repro.core.spec.SweepSpec`."""
        return SweepSpec(
            name=self.name,
            platforms=self.platforms,
            algorithms=self.algorithms,
            datasets=self.datasets,
            cluster=das4_cluster(self.num_workers, self.cores_per_worker),
            params=self.params,
            workers=self.workers,
        )

    def cells(self) -> list[PredictRequest]:
        """The grid flattened to per-cell requests, in the sweep's
        canonical algorithm -> dataset -> platform order."""
        return [
            PredictRequest(
                platform=plat, algorithm=algo, dataset=ds,
                scale=self.scale, num_workers=self.num_workers,
                cores_per_worker=self.cores_per_worker, params=self.params,
            )
            for algo, ds, plat in itertools.product(
                self.algorithms, self.datasets, self.platforms
            )
        ]

    def to_dict(self) -> dict:
        return {
            "api_version": API_VERSION,
            "name": self.name,
            "platforms": list(self.platforms),
            "algorithms": list(self.algorithms),
            "datasets": list(self.datasets),
            "scale": self.scale,
            "num_workers": self.num_workers,
            "cores_per_worker": self.cores_per_worker,
            "workers": self.workers,
            "params": {k: v for k, v in self.params},
        }

    def to_json(self) -> str:
        return canonical_json(self.to_dict())

    @classmethod
    def from_dict(cls, payload: dict) -> "SweepRequest":
        if not isinstance(payload, dict):
            raise ApiError(
                f"SweepRequest payload must be an object, "
                f"got {type(payload).__name__}"
            )
        version = payload.get("api_version", API_VERSION)
        if version != API_VERSION:
            raise ApiError(
                f"unsupported api_version {version!r}; this build speaks "
                f"version {API_VERSION}"
            )
        params = payload.get("params") or {}
        if not isinstance(params, dict):
            raise ApiError("params must be an object of scalar values")
        try:
            return cls(
                platforms=tuple(
                    _require(payload, "platforms", "SweepRequest")
                ),
                algorithms=tuple(
                    _require(payload, "algorithms", "SweepRequest")
                ),
                datasets=tuple(
                    _require(payload, "datasets", "SweepRequest")
                ),
                name=str(payload.get("name", "api-sweep")),
                scale=float(payload.get("scale", 1.0)),
                num_workers=int(payload.get("num_workers", 20)),
                cores_per_worker=int(payload.get("cores_per_worker", 1)),
                workers=int(payload.get("workers", 1)),
                params=params,
            )
        except ApiError:
            raise
        except (TypeError, ValueError) as exc:
            raise ApiError(f"bad SweepRequest field: {exc}") from None

    @classmethod
    def from_json(cls, text: str | bytes) -> "SweepRequest":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ApiError(f"request body is not valid JSON: {exc}") from None
        return cls.from_dict(payload)

    @classmethod
    def json_schema(cls) -> dict:
        """The v1 JSON Schema for this request (golden-filed)."""
        names = {"type": "array", "items": {"type": "string"}, "minItems": 1}
        return {
            "$schema": "https://json-schema.org/draft/2020-12/schema",
            "title": "SweepRequest",
            "description": "A named cartesian grid of prediction cells.",
            "type": "object",
            "required": ["platforms", "algorithms", "datasets"],
            "additionalProperties": False,
            "properties": {
                "api_version": {"const": API_VERSION},
                "name": {"type": "string", "default": "api-sweep"},
                "platforms": names,
                "algorithms": names,
                "datasets": names,
                "scale": {"type": "number", "exclusiveMinimum": 0,
                          "default": 1.0},
                "num_workers": {"type": "integer", "minimum": 1,
                                "default": 20},
                "cores_per_worker": {"type": "integer", "minimum": 1,
                                     "default": 1},
                "workers": {"type": "integer", "minimum": 1, "default": 1},
                "params": {
                    "type": "object",
                    "additionalProperties": {
                        "type": ["boolean", "integer", "number", "string"]
                    },
                    "default": {},
                },
            },
        }


@dataclasses.dataclass(frozen=True)
class PredictResponse:
    """The full-disclosure answer for one cell.

    Built from a :class:`~repro.core.results.RunRecord` via
    :meth:`from_record`; crashed and DNF cells keep their identity and
    failure class with every timing field ``None`` — a capacity verdict
    is an answer too (the paper's Figure 1 annotations).
    """

    platform: str
    algorithm: str
    dataset: str
    status: str
    execution_time: float | None = None
    computation_time: float | None = None
    overhead_time: float | None = None
    supersteps: int | None = None
    breakdown: tuple[tuple[str, float], ...] = ()
    num_vertices: int | None = None
    num_edges: int | None = None
    eps: float | None = None
    vps: float | None = None
    repetition_times: tuple[float, ...] = ()
    failure_reason: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "breakdown",
            tuple(sorted((str(k), float(v)) for k, v in self.breakdown)),
        )
        object.__setattr__(
            self, "repetition_times", tuple(float(t) for t in self.repetition_times)
        )

    @classmethod
    def from_record(cls, record: "RunRecord") -> "PredictResponse":
        """The response for one runner record (the single construction
        path — the server's cached answers and a direct
        ``Runner.run(spec)`` therefore serialize byte-identically)."""
        fields: dict[str, _t.Any] = {
            "platform": record.platform,
            "algorithm": record.algorithm,
            "dataset": record.dataset,
            "status": record.status.value,
            "execution_time": record.execution_time,
            "repetition_times": record.repetition_times,
            "failure_reason": record.failure_reason or None,
        }
        if record.result is not None:
            from repro.core.metrics import paper_scale_eps, paper_scale_vps

            r = record.result
            fields.update(
                computation_time=r.computation_time,
                overhead_time=r.overhead_time,
                supersteps=r.supersteps,
                breakdown=tuple(r.breakdown.items()),
                num_vertices=r.num_vertices,
                num_edges=r.num_edges,
                eps=paper_scale_eps(r),
                vps=paper_scale_vps(r),
            )
        return cls(**fields)

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def to_dict(self) -> dict:
        return {
            "api_version": API_VERSION,
            "platform": self.platform,
            "algorithm": self.algorithm,
            "dataset": self.dataset,
            "status": self.status,
            "execution_time": self.execution_time,
            "computation_time": self.computation_time,
            "overhead_time": self.overhead_time,
            "supersteps": self.supersteps,
            "breakdown": {k: v for k, v in self.breakdown},
            "num_vertices": self.num_vertices,
            "num_edges": self.num_edges,
            "eps": self.eps,
            "vps": self.vps,
            "repetition_times": list(self.repetition_times),
            "failure_reason": self.failure_reason,
        }

    def to_json(self) -> str:
        return canonical_json(self.to_dict())

    @classmethod
    def from_dict(cls, payload: dict) -> "PredictResponse":
        version = payload.get("api_version", API_VERSION)
        if version != API_VERSION:
            raise ApiError(
                f"unsupported api_version {version!r}; this build speaks "
                f"version {API_VERSION}"
            )
        return cls(
            platform=str(_require(payload, "platform", "PredictResponse")),
            algorithm=str(_require(payload, "algorithm", "PredictResponse")),
            dataset=str(_require(payload, "dataset", "PredictResponse")),
            status=str(_require(payload, "status", "PredictResponse")),
            execution_time=payload.get("execution_time"),
            computation_time=payload.get("computation_time"),
            overhead_time=payload.get("overhead_time"),
            supersteps=payload.get("supersteps"),
            breakdown=tuple((payload.get("breakdown") or {}).items()),
            num_vertices=payload.get("num_vertices"),
            num_edges=payload.get("num_edges"),
            eps=payload.get("eps"),
            vps=payload.get("vps"),
            repetition_times=tuple(payload.get("repetition_times") or ()),
            failure_reason=payload.get("failure_reason"),
        )

    @classmethod
    def from_json(cls, text: str | bytes) -> "PredictResponse":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ApiError(f"response body is not valid JSON: {exc}") from None
        return cls.from_dict(payload)

    @classmethod
    def json_schema(cls) -> dict:
        """The v1 JSON Schema for this response (golden-filed)."""
        opt_number = {"type": ["number", "null"]}
        opt_integer = {"type": ["integer", "null"]}
        return {
            "$schema": "https://json-schema.org/draft/2020-12/schema",
            "title": "PredictResponse",
            "description": "Full-disclosure answer for one prediction "
            "cell; crashed/DNF cells carry null timings and a "
            "failure_reason.",
            "type": "object",
            "required": ["api_version", "platform", "algorithm", "dataset",
                         "status"],
            "additionalProperties": False,
            "properties": {
                "api_version": {"const": API_VERSION},
                "platform": {"type": "string"},
                "algorithm": {"type": "string"},
                "dataset": {"type": "string"},
                "status": {"enum": ["ok", "crashed", "dnf"]},
                "execution_time": opt_number,
                "computation_time": opt_number,
                "overhead_time": opt_number,
                "supersteps": opt_integer,
                "breakdown": {
                    "type": "object",
                    "additionalProperties": {"type": "number"},
                },
                "num_vertices": opt_integer,
                "num_edges": opt_integer,
                "eps": opt_number,
                "vps": opt_number,
                "repetition_times": {
                    "type": "array", "items": {"type": "number"},
                },
                "failure_reason": {"type": ["string", "null"]},
            },
        }


#: the closed job-state vocabulary
JOB_STATES = ("queued", "running", "done", "failed")

#: job-table bound; only finished jobs are ever evicted
MAX_JOBS = 1024


@dataclasses.dataclass(frozen=True)
class JobStatus:
    """The lifecycle view of one submitted request.

    ``result`` is the payload dict once ``state == "done"`` — a
    :class:`PredictResponse` dict for predict jobs, a records document
    for sweep jobs; ``error`` explains a ``failed`` state.
    """

    job_id: str
    kind: str  # "predict" | "sweep"
    state: str
    result: dict | None = None
    error: str | None = None

    def __post_init__(self) -> None:
        if self.state not in JOB_STATES:
            raise ApiError(
                f"unknown job state {self.state!r}; choose from "
                f"{', '.join(JOB_STATES)}"
            )

    def to_dict(self) -> dict:
        return {
            "api_version": API_VERSION,
            "job_id": self.job_id,
            "kind": self.kind,
            "state": self.state,
            "result": self.result,
            "error": self.error,
        }

    def to_json(self) -> str:
        return canonical_json(self.to_dict())

    @classmethod
    def from_dict(cls, payload: dict) -> "JobStatus":
        version = payload.get("api_version", API_VERSION)
        if version != API_VERSION:
            raise ApiError(
                f"unsupported api_version {version!r}; this build speaks "
                f"version {API_VERSION}"
            )
        return cls(
            job_id=str(_require(payload, "job_id", "JobStatus")),
            kind=str(_require(payload, "kind", "JobStatus")),
            state=str(_require(payload, "state", "JobStatus")),
            result=payload.get("result"),
            error=payload.get("error"),
        )

    @classmethod
    def from_json(cls, text: str | bytes) -> "JobStatus":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ApiError(f"status body is not valid JSON: {exc}") from None
        return cls.from_dict(payload)

    @classmethod
    def json_schema(cls) -> dict:
        """The v1 JSON Schema for a job status (golden-filed)."""
        return {
            "$schema": "https://json-schema.org/draft/2020-12/schema",
            "title": "JobStatus",
            "description": "Lifecycle view of one submitted request.",
            "type": "object",
            "required": ["api_version", "job_id", "kind", "state"],
            "additionalProperties": False,
            "properties": {
                "api_version": {"const": API_VERSION},
                "job_id": {"type": "string"},
                "kind": {"enum": ["predict", "sweep"]},
                "state": {"enum": list(JOB_STATES)},
                "result": {"type": ["object", "null"]},
                "error": {"type": ["string", "null"]},
            },
        }


def sweep_result_dict(experiment: "ExperimentResult") -> dict:
    """A sweep's records as the v1 job-result payload: one
    :class:`PredictResponse` dict per cell, in canonical grid order."""
    return {
        "api_version": API_VERSION,
        "name": experiment.name,
        "cells": [
            PredictResponse.from_record(record).to_dict()
            for record in experiment
        ],
    }


class ApiService:
    """The one implementation of the ``submit()/result()`` surface, and
    the single owner of every decision behind an answer: the runner
    view a request gets, how a batch of predicts executes, and the job
    table.

    One runner (with its trace cache) serves every request.  Library
    callers get jobs that complete *synchronously* inside
    :meth:`submit`.  :class:`repro.serve.app.GraphbenchServer` holds one
    service for its job table and sweeps, and its worker processes
    answer predicts through :meth:`predict_batch` on a copy of the same
    runner; the server adds only HTTP, admission, the answer cache and
    coalescing, so a served answer comes from this code rather than a
    copy of it.
    """

    def __init__(self, runner: "Runner | None" = None) -> None:
        from repro.core.runner import Runner

        self.runner = runner if runner is not None else Runner()
        self._jobs: collections.OrderedDict[str, JobStatus] = (
            collections.OrderedDict()
        )
        self._next_id = itertools.count(1)

    # -- answers -----------------------------------------------------------
    def predict(self, request: PredictRequest) -> PredictResponse:
        """Answer one cell now."""
        [outcome] = self.predict_batch([request])
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    def predict_batch(
        self, requests: _t.Sequence[PredictRequest]
    ) -> list[PredictResponse | Exception]:
        """Answer many cells at once: one outcome per request, in order
        — its response, or the exception its computation raised.

        Each cell runs through ``Runner.run`` on its runner view, so a
        cell that raises fails only its own slot, and the others get
        exactly the answer ``Runner.run`` gives them alone (cells are
        independent and seeded per cell).  A batch shares the runner's
        trace cache and partition contexts.
        """
        outcomes: list[PredictResponse | Exception] = []
        for request in requests:
            try:
                runner = self._runner_for(request.scale, request.repetitions)
                outcomes.append(PredictResponse.from_record(
                    runner.run(request.to_run_spec())
                ))
            except Exception as exc:  # noqa: BLE001 - the cell's own outcome
                outcomes.append(exc)
        return outcomes

    def sweep(self, request: SweepRequest) -> "ExperimentResult":
        """Run one grid now, honouring the request's worker count."""
        return self._runner_for(
            request.scale, self.runner.repetitions
        ).run_grid(request.to_sweep_spec())

    def execute(
        self, request: PredictRequest | SweepRequest
    ) -> dict | Exception:
        """A request's job payload, or the exception that failed it.
        Writes no job state, so it may run on any thread."""
        try:
            if isinstance(request, PredictRequest):
                return self.predict(request).to_dict()
            return sweep_result_dict(self.sweep(request))
        except Exception as exc:  # noqa: BLE001 - contract: failed state
            return exc

    def _runner_for(self, scale: float, repetitions: int) -> "Runner":
        """The runner view for one request: same seed, jitter and shared
        trace cache; the request's scale and repetitions."""
        if (
            float(scale) == float(self.runner.scale)
            and int(repetitions) == int(self.runner.repetitions)
        ):
            return self.runner
        return dataclasses.replace(
            self.runner, scale=float(scale), repetitions=int(repetitions)
        )

    # -- the job table -----------------------------------------------------
    def submit(self, request: PredictRequest | SweepRequest) -> str:
        """Accept a request; returns its job id.  The job completes
        before this returns."""
        if isinstance(request, PredictRequest):
            kind = "predict"
        elif isinstance(request, SweepRequest):
            kind = "sweep"
        else:
            raise ApiError(
                f"submit() takes a PredictRequest or SweepRequest, "
                f"got {type(request).__name__}"
            )
        job_id = self.open_job(kind).job_id
        self.start_job(job_id)
        self.finish_job(job_id, self.execute(request))
        return job_id

    def result(self, job_id: str) -> JobStatus:
        """The status of a submitted job; raises :class:`KeyError` for
        an unknown (or evicted) id."""
        return self._jobs[job_id]

    def open_job(self, kind: str) -> JobStatus:
        """Register a new job in the ``queued`` state."""
        return self._store(
            JobStatus(f"job-{next(self._next_id)}", kind, "queued")
        )

    def start_job(self, job_id: str) -> None:
        """``queued -> running``."""
        self._store(JobStatus(job_id, self._jobs[job_id].kind, "running"))

    def finish_job(self, job_id: str, outcome: dict | Exception) -> JobStatus:
        """``-> done`` with a payload, or ``-> failed`` with the
        exception's message."""
        kind = self._jobs[job_id].kind
        if isinstance(outcome, Exception):
            return self._store(
                JobStatus(job_id, kind, "failed", error=str(outcome))
            )
        return self._store(JobStatus(job_id, kind, "done", result=outcome))

    def _store(self, status: JobStatus) -> JobStatus:
        """Write one job as most recent; past :data:`MAX_JOBS`, evict
        the oldest finished jobs — a queued or running job stays until
        it finishes, however old."""
        self._jobs[status.job_id] = status
        self._jobs.move_to_end(status.job_id)
        while len(self._jobs) > MAX_JOBS:
            stale = next(
                (job_id for job_id, job in self._jobs.items()
                 if job.state in ("done", "failed")),
                None,
            )
            if stale is None:
                break
            del self._jobs[stale]
        return status

