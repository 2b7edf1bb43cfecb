"""Run records and experiment collections.

A :class:`RunRecord` captures one (platform, algorithm, dataset,
cluster) cell — including the paper's two failure modes, crash and
did-not-finish.  An :class:`ExperimentResult` is an ordered collection
with the query helpers the report layer uses.
"""

from __future__ import annotations

import dataclasses
import enum
import typing as _t

from repro.cluster.spec import ClusterSpec
from repro.platforms.base import JobResult

__all__ = ["RunStatus", "RunRecord", "ExperimentResult"]


class RunStatus(enum.Enum):
    """Outcome class of one run (the paper's figure annotations)."""

    OK = "ok"
    CRASHED = "crashed"
    DNF = "dnf"  # terminated after exceeding the experiment budget

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclasses.dataclass
class RunRecord:
    """One experiment cell."""

    platform: str
    algorithm: str
    dataset: str
    cluster: ClusterSpec
    status: RunStatus
    #: mean execution time over repetitions (ok runs only)
    execution_time: float | None = None
    #: per-repetition times
    repetition_times: tuple[float, ...] = ()
    #: the last completed JobResult (traces, breakdown, output)
    result: JobResult | None = None
    #: crash/timeout explanation
    failure_reason: str = ""

    @property
    def ok(self) -> bool:
        return self.status is RunStatus.OK

    @property
    def variance_fraction(self) -> float:
        """Max relative deviation from the mean across repetitions
        (the paper reports <10 % variance)."""
        times = self.repetition_times
        if len(times) < 2 or not self.execution_time:
            return 0.0
        mean = self.execution_time
        return max(abs(t - mean) / mean for t in times)

    def describe(self) -> str:
        """Cell text for report tables."""
        if self.status is RunStatus.CRASHED:
            return "CRASH"
        if self.status is RunStatus.DNF:
            return "DNF"
        assert self.execution_time is not None
        return f"{self.execution_time:.1f}s"


@dataclasses.dataclass
class ExperimentResult:
    """An ordered collection of run records for one experiment."""

    name: str
    records: list[RunRecord] = dataclasses.field(default_factory=list)
    #: reference outputs computed alongside the records, keyed by
    #: ``(workload name, dataset)`` (see :func:`repro.core.sweep.run_specs`)
    references: dict[tuple[str, str], object] = dataclasses.field(
        default_factory=dict, repr=False, compare=False
    )

    def add(self, record: RunRecord) -> None:
        self.records.append(record)

    def __iter__(self) -> _t.Iterator[RunRecord]:
        return iter(self.records)

    def __len__(self) -> int:
        return len(self.records)

    # -- queries -----------------------------------------------------------
    def find(
        self,
        *,
        platform: str | None = None,
        algorithm: str | None = None,
        dataset: str | None = None,
    ) -> list[RunRecord]:
        """Records matching all given keys."""
        out = []
        for r in self.records:
            if platform is not None and r.platform != platform:
                continue
            if algorithm is not None and r.algorithm != algorithm:
                continue
            if dataset is not None and r.dataset != dataset:
                continue
            out.append(r)
        return out

    def get(
        self, platform: str, algorithm: str, dataset: str
    ) -> RunRecord | None:
        """The unique record for one cell, or None."""
        hits = self.find(platform=platform, algorithm=algorithm, dataset=dataset)
        return hits[0] if hits else None

    def platforms(self) -> list[str]:
        """Distinct platforms, insertion-ordered."""
        return list(dict.fromkeys(r.platform for r in self.records))

    def datasets(self) -> list[str]:
        """Distinct datasets, insertion-ordered."""
        return list(dict.fromkeys(r.dataset for r in self.records))

    def algorithms(self) -> list[str]:
        """Distinct algorithms, insertion-ordered."""
        return list(dict.fromkeys(r.algorithm for r in self.records))

    def completed(self) -> list[RunRecord]:
        """Only the OK records."""
        return [r for r in self.records if r.ok]
