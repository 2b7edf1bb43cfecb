"""Deterministic fault injection: plans, events, and interposition.

The paper's robustness findings (Section 4.1: several platform x
algorithm x dataset cells simply crash; surviving platforms differ in
*how* they recover) need a way to perturb a running simulated job.
This module supplies the DES-level primitives:

* :class:`Fault` — one scheduled perturbation: a node crash at time
  ``t``, a disk-throughput degradation window, a network partition /
  drop window, a per-worker memory-ceiling breach, or a straggler
  slowdown window.
* :class:`FaultPlan` — a seeded, serializable, time-sorted set of
  faults.  The **empty plan is the identity**: platforms consult the
  injector only when a non-empty plan is active, so every charged
  duration stays bit-identical to an un-faulted run.
* :class:`FaultInjector` — the per-run interposition object platform
  models consult at phase boundaries.  All queries are pure functions
  of (plan, call sequence), so the same seed + plan always reproduces
  bit-identical results.
* :func:`schedule_plan` — materializes a plan as real DES events on a
  :class:`~repro.des.engine.Simulator`.

Time semantics are *nominal-timeline fluid*: degradation windows are
intersected with each work interval's nominal placement, and the extra
seconds are charged without re-cascading the shifted timeline.  That
keeps fault charging a closed-form function of the plan — deterministic
and cheap — while preserving the qualitative behaviour (work inside a
slowdown window takes ``severity`` times longer; network traffic inside
a drop window makes no progress for the overlap).

Recovery is **not** modelled here — it is per-platform semantics
layered on :class:`~repro.platforms.base.Platform` (Hadoop/YARN retry
individual tasks, BSP engines restart from a barrier or abort, Neo4j
reboots its single node).  The injector only reports what happened and
keeps the retry/restart accounting counters.
"""

from __future__ import annotations

import bisect
import dataclasses
import enum
import json
import typing as _t

if _t.TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

    from repro.des.engine import Simulator
    from repro.des.events import Event

__all__ = [
    "FaultKind",
    "Fault",
    "FaultPlan",
    "FaultInjector",
    "PlanTemplate",
    "named_plan",
    "NAMED_PLANS",
    "schedule_plan",
]


class FaultKind(enum.Enum):
    """The five DES-level fault classes."""

    #: a worker node dies at ``at`` (recovery is platform semantics)
    NODE_CRASH = "node_crash"
    #: disk throughput divided by ``severity`` during the window
    DISK_DEGRADE = "disk_degrade"
    #: network drop window: traffic inside it makes no progress
    LINK_PARTITION = "link_partition"
    #: per-worker memory limit multiplied by ``severity`` (a fraction)
    MEMORY_CEILING = "memory_ceiling"
    #: compute on the slowest worker takes ``severity`` times longer
    STRAGGLER = "straggler"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: which charge-time resource each windowed fault kind perturbs
_RESOURCE_OF_KIND = {
    FaultKind.STRAGGLER: "cpu",
    FaultKind.DISK_DEGRADE: "disk",
    FaultKind.LINK_PARTITION: "net",
}


@dataclasses.dataclass(frozen=True)
class Fault:
    """One scheduled fault.

    ``at`` is simulated seconds from job start.  ``duration`` is the
    window length for degradation faults (ignored for crashes and
    memory ceilings).  ``severity`` is kind-specific: a slowdown factor
    (>= 1) for STRAGGLER/DISK_DEGRADE, a remaining-memory fraction
    (0 < f <= 1) for MEMORY_CEILING, unused for the others.
    """

    kind: FaultKind
    at: float
    node: int = 0
    duration: float = 0.0
    severity: float = 1.0

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ValueError(f"fault time must be >= 0, got {self.at}")
        if self.duration < 0:
            raise ValueError(f"fault duration must be >= 0, got {self.duration}")
        if self.kind in (FaultKind.STRAGGLER, FaultKind.DISK_DEGRADE):
            if self.severity < 1.0:
                raise ValueError(
                    f"{self.kind} severity is a slowdown factor >= 1, "
                    f"got {self.severity}"
                )
        if self.kind is FaultKind.MEMORY_CEILING and not 0 < self.severity <= 1:
            raise ValueError(
                f"memory ceiling severity is a fraction in (0, 1], "
                f"got {self.severity}"
            )

    def to_dict(self) -> dict[str, _t.Any]:
        return {
            "kind": self.kind.value,
            "at": self.at,
            "node": self.node,
            "duration": self.duration,
            "severity": self.severity,
        }

    @classmethod
    def from_dict(cls, d: dict[str, _t.Any]) -> "Fault":
        return cls(
            kind=FaultKind(d["kind"]),
            at=float(d["at"]),
            node=int(d.get("node", 0)),
            duration=float(d.get("duration", 0.0)),
            severity=float(d.get("severity", 1.0)),
        )


def _sort_key(f: Fault) -> tuple:
    return (f.at, f.kind.value, f.node, f.duration, f.severity)


@dataclasses.dataclass(frozen=True)
class FaultPlan:
    """A seeded, serializable, time-sorted fault schedule.

    Equality and :meth:`key` are content-based, so two plans built the
    same way key the same trace-cache entries.  The empty plan is the
    identity element — :meth:`FaultInjector` is never even constructed
    for it, keeping the no-faults fast path free of float perturbation.
    """

    faults: tuple[Fault, ...] = ()
    name: str = "empty"
    seed: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "faults", tuple(sorted(self.faults, key=_sort_key))
        )

    @classmethod
    def empty(cls) -> "FaultPlan":
        return cls()

    @property
    def is_empty(self) -> bool:
        return not self.faults

    def __len__(self) -> int:
        return len(self.faults)

    def __iter__(self) -> _t.Iterator[Fault]:
        return iter(self.faults)

    def key(self) -> tuple:
        """Content-based hashable key (trace-cache component)."""
        return tuple(
            (f.kind.value, f.at, f.node, f.duration, f.severity)
            for f in self.faults
        )

    # -- serialization -----------------------------------------------------
    def to_dict(self) -> dict[str, _t.Any]:
        return {
            "name": self.name,
            "seed": self.seed,
            "faults": [f.to_dict() for f in self.faults],
        }

    @classmethod
    def from_dict(cls, d: dict[str, _t.Any]) -> "FaultPlan":
        return cls(
            faults=tuple(Fault.from_dict(f) for f in d.get("faults", ())),
            name=str(d.get("name", "plan")),
            seed=d.get("seed"),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))

    # -- builders ----------------------------------------------------------
    @classmethod
    def seeded(
        cls,
        seed: int,
        horizon: float,
        *,
        num_faults: int = 3,
        kinds: _t.Sequence[FaultKind] | None = None,
        num_nodes: int = 20,
    ) -> "FaultPlan":
        """A reproducible random plan: ``num_faults`` faults drawn over
        ``[0.1, 0.9] * horizon`` from ``kinds`` (default: all five)."""
        import numpy as np

        rng = np.random.default_rng(seed)
        pool = tuple(kinds) if kinds is not None else tuple(FaultKind)
        faults = []
        for _ in range(num_faults):
            kind = pool[int(rng.integers(len(pool)))]
            at = float(rng.uniform(0.1, 0.9) * horizon)
            node = int(rng.integers(max(num_nodes, 1)))
            if kind in (FaultKind.STRAGGLER, FaultKind.DISK_DEGRADE):
                duration = float(rng.uniform(0.05, 0.25) * horizon)
                severity = float(rng.uniform(2.0, 8.0))
            elif kind is FaultKind.LINK_PARTITION:
                duration = float(rng.uniform(0.02, 0.1) * horizon)
                severity = 1.0
            elif kind is FaultKind.MEMORY_CEILING:
                duration = 0.0
                severity = float(rng.uniform(0.3, 0.8))
            else:  # NODE_CRASH
                duration = 0.0
                severity = 1.0
            faults.append(
                Fault(kind=kind, at=at, node=node, duration=duration,
                      severity=severity)
            )
        return cls(faults=tuple(faults), name=f"seeded-{seed}", seed=seed)


def named_plan(
    name: str,
    *,
    at: float,
    node: int = 0,
    duration: float = 30.0,
    severity: float | None = None,
) -> FaultPlan:
    """One of the canonical single-fault chaos plans.

    ``crash`` — node ``node`` dies at ``at``; ``partition`` — network
    drop window ``[at, at + duration)``; ``straggler`` — node slowdown
    window (default 4x); ``disk`` — disk degradation window (default
    4x); ``memory`` — per-worker memory ceiling cut to ``severity``
    (default half) for the whole run.
    """
    name = name.lower()
    if name == "crash":
        f = Fault(FaultKind.NODE_CRASH, at=at, node=node)
    elif name == "partition":
        f = Fault(FaultKind.LINK_PARTITION, at=at, node=node,
                  duration=duration)
    elif name == "straggler":
        f = Fault(FaultKind.STRAGGLER, at=at, node=node, duration=duration,
                  severity=4.0 if severity is None else severity)
    elif name == "disk":
        f = Fault(FaultKind.DISK_DEGRADE, at=at, node=node,
                  duration=duration,
                  severity=4.0 if severity is None else severity)
    elif name == "memory":
        f = Fault(FaultKind.MEMORY_CEILING, at=at, node=node,
                  severity=0.5 if severity is None else severity)
    else:
        raise KeyError(
            f"unknown plan {name!r}; choose from {', '.join(NAMED_PLANS)}"
        )
    return FaultPlan(faults=(f,), name=name)


#: the canonical single-fault plan names accepted by :func:`named_plan`
NAMED_PLANS: tuple[str, ...] = (
    "crash", "partition", "straggler", "disk", "memory",
)


@dataclasses.dataclass(frozen=True)
class PlanTemplate:
    """A horizon-relative fault-plan recipe.

    Chaos scenarios place faults at *fractions* of a cell's fault-free
    makespan ("crash at 50% of the job"), but a :class:`FaultPlan`
    holds absolute simulated seconds — and every platform x algorithm x
    dataset cell has a different makespan.  A template captures the
    relative recipe once; :meth:`materialize` turns it into a concrete
    plan for one cell's measured horizon.  Templates are frozen and
    picklable so a chaos sweep can carry one recipe across worker
    processes and cells.

    ``plan`` is one of :data:`NAMED_PLANS`, or ``"seeded"`` for a
    reproducible random plan (requires ``seed``).  ``at`` and
    ``duration`` are fractions of the horizon; ``severity`` passes
    through to :func:`named_plan` untouched.
    """

    plan: str
    at: float = 0.5
    duration: float = 0.2
    severity: float | None = None
    node: int = 0
    seed: int | None = None
    num_faults: int = 3
    label: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "plan", self.plan.lower())
        if self.plan != "seeded" and self.plan not in NAMED_PLANS:
            raise KeyError(
                f"unknown plan template {self.plan!r}; choose from "
                f"{', '.join(NAMED_PLANS + ('seeded',))}"
            )
        if self.plan == "seeded" and self.seed is None:
            raise ValueError("seeded plan templates need an explicit seed")
        if not 0.0 <= self.at:
            raise ValueError(f"fault-time fraction must be >= 0, got {self.at}")
        if self.duration < 0.0:
            raise ValueError(
                f"duration fraction must be >= 0, got {self.duration}"
            )
        if self.num_faults < 1:
            raise ValueError(f"num_faults must be >= 1, got {self.num_faults}")

    @property
    def name(self) -> str:
        """The scenario name this template contributes to a report."""
        if self.label is not None:
            return self.label
        if self.plan == "seeded":
            return f"seeded-{self.seed}"
        return self.plan

    def materialize(self, horizon: float, *, num_nodes: int = 20) -> FaultPlan:
        """The concrete plan for a cell whose fault-free makespan is
        ``horizon`` simulated seconds."""
        if horizon <= 0.0:
            raise ValueError(f"horizon must be > 0, got {horizon}")
        if self.plan == "seeded":
            assert self.seed is not None  # enforced in __post_init__
            plan = FaultPlan.seeded(
                self.seed, horizon,
                num_faults=self.num_faults, num_nodes=num_nodes,
            )
        else:
            plan = named_plan(
                self.plan,
                at=self.at * horizon,
                node=self.node,
                duration=self.duration * horizon,
                severity=self.severity,
            )
        return dataclasses.replace(plan, name=self.name)


class FaultInjector:
    """Per-run fault interposition, consulted at phase boundaries.

    Platform models call :meth:`stretch` when charging a work interval,
    :meth:`next_crash` when entering a recoverable window, and
    :meth:`memory_limit` when sizing per-worker memory.  Recovery
    bookkeeping (:meth:`note_retry` / :meth:`note_restart` /
    :meth:`note_speculative`) feeds the
    :class:`~repro.platforms.base.JobResult` accounting fields.

    Every method is deterministic: crashes are consumed in time order
    and windows are evaluated against the nominal timeline, so repeated
    runs with the same plan are bit-identical.
    """

    def __init__(self, plan: FaultPlan, *, num_workers: int = 1) -> None:
        if plan.is_empty:
            raise ValueError(
                "FaultInjector is not built for empty plans — pass "
                "faults=None instead (the bit-identity fast path)"
            )
        self.plan = plan
        self.num_workers = int(num_workers)
        self._crashes: list[Fault] = [
            f for f in plan.faults if f.kind is FaultKind.NODE_CRASH
        ]
        self._windows: list[Fault] = [
            f for f in plan.faults if f.kind in _RESOURCE_OF_KIND
        ]
        self._ceilings = [
            f for f in plan.faults if f.kind is FaultKind.MEMORY_CEILING
        ]
        #: combined remaining-memory fraction (1.0 when no ceiling fault)
        self.ceiling_fraction = (
            min(f.severity for f in self._ceilings) if self._ceilings else 1.0
        )
        # -- accounting ------------------------------------------------------
        #: distinct faults that actually perturbed the run
        self._fired: set[int] = set()
        #: individual tasks re-executed after a crash (MapReduce)
        self.task_retries = 0
        #: speculative backup executions launched for stragglers
        self.speculative_tasks = 0
        #: whole-job / barrier restarts (BSP engines, Neo4j)
        self.job_restarts = 0
        #: extra simulated seconds charged to recovery
        self.recovery_seconds = 0.0

    @property
    def faults_fired(self) -> int:
        """Number of distinct plan faults that perturbed the run."""
        return len(self._fired)

    def _mark_fired(self, fault: Fault) -> None:
        self._fired.add(id(fault))

    # -- queries -----------------------------------------------------------
    def memory_limit(self, configured: float) -> float:
        """The effective per-worker memory limit under ceiling faults."""
        if self.ceiling_fraction >= 1.0:
            return configured
        for f in self._ceilings:
            self._mark_fired(f)
        return configured * self.ceiling_fraction

    def next_crash(self, t0: float, t1: float) -> Fault | None:
        """Consume and return the first unfired crash in ``[t0, t1)``."""
        for i, f in enumerate(self._crashes):
            if t0 <= f.at < t1:
                self._mark_fired(f)
                del self._crashes[i]
                return f
        return None

    def first_touched(self, since: float, t0: np.ndarray,
                      t1: np.ndarray) -> int:
        """The first of the consecutive windows ``[t0[i], t1[i])`` a
        fault event may touch, ``len(t1)`` if none: an unfired crash in
        ``[since, t1[i])`` or a degradation window overlapping it.  The
        windows are widened by a relative 1e-9, which covers the
        rounding of partial sums inside them, so the test errs toward
        touching; work charged in an untouched window is neither
        stretched nor recovered."""
        ends = t1.tolist()
        first = len(ends)
        for f in self._crashes + self._windows:
            # the first window whose widened end passes the event
            i = bisect.bisect_right(ends, (f.at - 1e-9) / (1.0 + 1e-9))
            if i < first and (
                f.at >= since if f.kind is FaultKind.NODE_CRASH
                else t0[i] * (1.0 - 1e-9) - 1e-9 < f.at + f.duration
            ):
                first = i
        return first

    def stretch(self, t0: float, seconds: float, resource: str) -> float:
        """The charged duration of a nominal work interval
        ``[t0, t0 + seconds)`` on ``resource`` ("cpu", "disk", "net")
        after applying overlapping degradation windows.

        STRAGGLER / DISK_DEGRADE multiply the overlapped share by the
        slowdown factor; LINK_PARTITION stalls the overlapped share
        outright (the traffic makes no progress during the window).
        """
        if seconds <= 0.0:
            return seconds
        t1 = t0 + seconds
        extra = 0.0
        for f in self._windows:
            if _RESOURCE_OF_KIND[f.kind] != resource:
                continue
            overlap = min(t1, f.at + f.duration) - max(t0, f.at)
            if overlap <= 0.0:
                continue
            self._mark_fired(f)
            if f.kind is FaultKind.LINK_PARTITION:
                extra += overlap
            else:
                extra += overlap * (f.severity - 1.0)
        return seconds + extra

    # -- recovery accounting ----------------------------------------------
    def note_retry(self, seconds: float) -> None:
        self.task_retries += 1
        self.recovery_seconds += seconds

    def note_speculative(self, seconds: float) -> None:
        self.speculative_tasks += 1
        self.recovery_seconds += seconds

    def note_restart(self, seconds: float) -> None:
        self.job_restarts += 1
        self.recovery_seconds += seconds


def schedule_plan(
    sim: "Simulator",
    plan: FaultPlan,
    on_fault: _t.Callable[[Fault], None],
) -> list["Event"]:
    """Materialize ``plan`` as DES events: each fault fires a
    :class:`~repro.des.events.Timeout` at ``fault.at`` (relative to the
    simulator's current clock) whose callback invokes ``on_fault``.

    Returns the scheduled events so callers can compose them (e.g.
    ``sim.any_of`` with a workload process).
    """
    events = []
    for fault in plan.faults:
        ev = sim.timeout(fault.at, value=fault)
        ev.add_callback(lambda e, f=fault: on_fault(f))
        events.append(ev)
    return events
