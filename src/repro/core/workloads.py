"""First-class benchmark workloads with reference-output validation.

The paper benchmarks five algorithm classes; its successor suite (LDBC
Graphalytics) formalized the missing half of the method: a **named
workload set** where every workload carries an *output validator*, so a
benchmark run produces a pass/fail artifact instead of an implicit
"the numbers looked right".  This module promotes the paper's
algorithms *and* the extension algorithms to first-class
:class:`Workload` values:

* each workload names the superstep algorithm it drives (the registry
  code from :mod:`repro.algorithms`) plus any parameter overrides;
* each workload declares its **validation semantics**, following
  Graphalytics:

  - ``exact``        — candidate output must equal the reference
    bit-for-bit (BFS levels, triangle counts, seeded samples);
  - ``epsilon``      — numeric outputs match within a relative
    tolerance (PageRank ranks, SSSP distances, mean LCC);
  - ``equivalence``  — label outputs must induce the same *partition*
    of the vertices; the labels themselves are arbitrary names
    (connected components, CDLP-style community labels).

:func:`get_workload` / :func:`list_workloads` mirror the platform /
algorithm / dataset discovery API, so ``graphbench list`` and the CLI
argument validators enumerate workloads the same way.
"""

from __future__ import annotations

import dataclasses
import typing as _t

import numpy as np

__all__ = [
    "VALIDATION_SEMANTICS",
    "WORKLOAD_NAMES",
    "ValidationVerdict",
    "Workload",
    "get_workload",
    "list_workloads",
    "reference_output",
    "validate_equivalence",
    "validate_epsilon",
    "validate_exact",
]

#: the three Graphalytics-style validation modes
VALIDATION_SEMANTICS: tuple[str, ...] = ("exact", "epsilon", "equivalence")


@dataclasses.dataclass(frozen=True)
class ValidationVerdict:
    """Outcome of validating one candidate output against a reference."""

    passed: bool
    semantics: str
    detail: str = ""

    @property
    def status(self) -> str:
        """``"PASS"`` / ``"FAIL"`` — the report-cell text."""
        return "PASS" if self.passed else "FAIL"

    def __bool__(self) -> bool:
        return self.passed


def _as_array(value: object) -> np.ndarray:
    return np.asarray(value)


def validate_exact(reference: object, candidate: object) -> ValidationVerdict:
    """Exact-match semantics: every element must be identical.

    Works for scalars (triangle counts, diameter estimates) and arrays
    (BFS levels, MIS membership masks, seeded samples) alike.
    """
    ref, cand = _as_array(reference), _as_array(candidate)
    if ref.shape != cand.shape:
        return ValidationVerdict(
            False, "exact",
            f"shape mismatch: reference {ref.shape}, candidate {cand.shape}",
        )
    if ref.dtype.kind == "f" or cand.dtype.kind == "f":
        equal = np.array_equal(ref, cand, equal_nan=True)
    else:
        equal = np.array_equal(ref, cand)
    if equal:
        return ValidationVerdict(True, "exact", "bit-identical")
    diff = int(np.count_nonzero(ref != cand))
    return ValidationVerdict(
        False, "exact", f"{diff} of {ref.size} values differ"
    )


def validate_epsilon(
    reference: object, candidate: object, *, epsilon: float = 1e-4
) -> ValidationVerdict:
    """Epsilon-tolerant semantics: relative error <= ``epsilon``.

    Per-element relative error is ``|cand - ref| / max(|ref|, floor)``
    where ``floor = epsilon * max(1, max|ref|)`` — near-zero reference
    entries (a PageRank vector sums to 1 over many vertices) are judged
    against the vector's own magnitude scale instead of blowing up or,
    worse, vacuously passing.  Non-finite values (unreached SSSP
    distances are ``inf``) must match exactly.
    """
    ref = _as_array(reference).astype(np.float64)
    cand_raw = _as_array(candidate)
    if ref.shape != cand_raw.shape:
        return ValidationVerdict(
            False, "epsilon",
            f"shape mismatch: reference {ref.shape}, "
            f"candidate {cand_raw.shape}",
        )
    cand = cand_raw.astype(np.float64)
    finite_ref = np.isfinite(ref)
    if not np.array_equal(finite_ref, np.isfinite(cand)):
        return ValidationVerdict(
            False, "epsilon", "non-finite entries (unreached vertices) differ"
        )
    ref_finite = np.abs(ref[finite_ref])
    scale = float(ref_finite.max()) if ref_finite.size else 0.0
    floor = epsilon * max(1.0, scale)
    denom = np.maximum(ref_finite, floor)
    err = np.abs(cand[finite_ref] - ref[finite_ref]) / denom
    worst = float(err.max()) if err.size else 0.0
    if worst <= epsilon:
        return ValidationVerdict(
            True, "epsilon", f"max relative error {worst:.2e} <= {epsilon:g}"
        )
    return ValidationVerdict(
        False, "epsilon", f"max relative error {worst:.2e} > {epsilon:g}"
    )


def validate_equivalence(
    reference: object, candidate: object
) -> ValidationVerdict:
    """Equivalence-class semantics: same partition, arbitrary labels.

    Two label arrays are equivalent when the induced vertex partitions
    coincide — i.e. there is a bijection between reference labels and
    candidate labels.  This is the Graphalytics rule for WCC and CDLP,
    where any canonical representative is a correct answer.
    """
    ref = _as_array(reference).reshape(-1)
    cand = _as_array(candidate).reshape(-1)
    if ref.shape != cand.shape:
        return ValidationVerdict(
            False, "equivalence",
            f"shape mismatch: reference {ref.shape}, candidate {cand.shape}",
        )
    # The labels are a bijection exactly when the distinct (ref, cand)
    # pairs are as many as the distinct labels on either side.
    ref_labels, ref_ids = np.unique(ref, return_inverse=True)
    cand_labels, cand_ids = np.unique(cand, return_inverse=True)
    pairs = len(np.unique(
        ref_ids.astype(np.int64) * len(cand_labels) + cand_ids
    ))
    if pairs == len(ref_labels) == len(cand_labels):
        return ValidationVerdict(
            True, "equivalence",
            f"partitions coincide ({pairs} classes)",
        )
    return ValidationVerdict(
        False, "equivalence",
        "label partitions differ (no label bijection exists)",
    )


@dataclasses.dataclass(frozen=True)
class Workload:
    """One first-class benchmark workload (Graphalytics-style).

    A workload is an algorithm plus the *benchmark contract* around it:
    a stable public name, parameter overrides, and the validation
    semantics that decide whether a platform's output is correct.
    """

    name: str
    algorithm: str
    label: str
    description: str
    #: one of :data:`VALIDATION_SEMANTICS`
    semantics: str
    #: relative tolerance for ``epsilon`` semantics
    epsilon: float = 1e-4
    #: parameter overrides applied on top of the algorithm defaults
    params: tuple[tuple[str, object], ...] = ()
    #: target simulated makespan in seconds, or ``None`` for no target.
    #: The paper caps every experiment at one hour of processing
    #: (Section 3.2); benchmark mode reports a cell over this budget as
    #: a WARN in the verdict table — a soft target, never a FAIL.
    target_wall_budget: float | None = 3600.0

    def __post_init__(self) -> None:
        if self.semantics not in VALIDATION_SEMANTICS:
            raise ValueError(
                f"unknown validation semantics {self.semantics!r}; choose "
                f"from {', '.join(VALIDATION_SEMANTICS)}"
            )
        if self.target_wall_budget is not None and self.target_wall_budget <= 0:
            raise ValueError("target_wall_budget must be positive or None")

    def params_dict(self) -> dict[str, object]:
        return dict(self.params)

    # -- validation --------------------------------------------------------
    def validate(
        self, reference: object, candidate: object
    ) -> ValidationVerdict:
        """Validate ``candidate`` against ``reference`` output."""
        ref = self._canonical(reference)
        cand = self._canonical(candidate)
        if self.semantics == "exact":
            return validate_exact(ref, cand)
        if self.semantics == "epsilon":
            return validate_epsilon(ref, cand, epsilon=self.epsilon)
        return validate_equivalence(ref, cand)

    def _canonical(self, output: object) -> object:
        """The comparable view of an algorithm output.

        Most programs return scalars or per-vertex arrays directly;
        the two structured outputs (STATS, EVO) are reduced to the
        numeric vectors their semantics validate.
        """
        from repro.algorithms.stats import StatsResult
        from repro.graph.graph import Graph

        if isinstance(output, StatsResult):
            return np.array(
                [output.num_vertices, output.num_edges, output.mean_lcc]
            )
        if isinstance(output, Graph):
            # EVO writes the evolved graph; its size and degree profile
            # are the validated quantities.
            return np.concatenate([
                np.array([output.num_vertices, output.num_edges],
                         dtype=np.int64),
                np.asarray(output.out_degree(), dtype=np.int64),
            ])
        return output


#: the workload set: the Graphalytics core six mapped onto this repo's
#: algorithms, plus the paper's remaining exemplars — all validated
_WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in [
        Workload(
            "bfs", "bfs", "BFS",
            "breadth-first search levels from the per-dataset source",
            semantics="exact",
        ),
        Workload(
            "wcc", "conn", "WCC",
            "weakly connected components (paper CONN)",
            semantics="equivalence",
        ),
        Workload(
            "cdlp", "cd", "CDLP",
            "community detection by label propagation (paper CD)",
            semantics="equivalence",
        ),
        Workload(
            "pr", "pagerank", "PageRank",
            "PageRank vector after the damped iteration",
            semantics="epsilon", epsilon=1e-4,
        ),
        Workload(
            "sssp", "sssp", "SSSP",
            "single-source shortest path distances",
            semantics="epsilon", epsilon=1e-9,
        ),
        Workload(
            "lcc", "triangles", "LCC",
            "global triangle count (LCC numerator)",
            semantics="exact",
        ),
        Workload(
            "stats", "stats", "STATS",
            "graph statistics: |V|, |E|, mean local clustering",
            semantics="epsilon", epsilon=1e-9,
        ),
        Workload(
            "evo", "evo", "EVO",
            "forest-fire graph evolution (size + degree profile)",
            semantics="exact",
        ),
        Workload(
            "mis", "mis", "MIS",
            "Luby maximal independent set membership (seeded)",
            semantics="exact",
        ),
        Workload(
            "sampling", "sampling", "Sampling",
            "random-walk vertex sample (seeded)",
            semantics="exact",
        ),
        Workload(
            "diameter", "diameter", "Diameter",
            "double-sweep diameter lower bound",
            semantics="exact",
        ),
    ]
}

#: canonical order: the Graphalytics core six, then the paper extras
WORKLOAD_NAMES: tuple[str, ...] = (
    "bfs", "wcc", "cdlp", "pr", "sssp", "lcc",
    "stats", "evo", "mis", "sampling", "diameter",
)
assert set(WORKLOAD_NAMES) == set(_WORKLOADS)


def get_workload(name: str) -> Workload:
    """Look up a workload by its benchmark name."""
    try:
        return _WORKLOADS[name.lower()]
    except KeyError:
        raise KeyError(
            f"unknown workload {name!r}; choose from "
            f"{', '.join(WORKLOAD_NAMES)}"
        ) from None


def list_workloads() -> list[tuple[str, str]]:
    """Discovery API: ``(name, one-line description)`` pairs in
    canonical order (mirrors ``list_platforms`` / ``list_algorithms`` /
    ``list_datasets`` — ``graphbench list`` renders all of them)."""
    out = []
    for name in WORKLOAD_NAMES:
        w = _WORKLOADS[name]
        out.append(
            (
                name,
                f"{w.label} ({w.algorithm}) — {w.semantics} validation; "
                f"{w.description}",
            )
        )
    return out


def reference_output(
    workload: Workload, graph: "_t.Any", **params: object
) -> object:
    """The workload's reference output for ``graph``.

    The core six (``bfs``, ``wcc``, ``cdlp``, ``pr``, ``sssp``, ``lcc``)
    are computed by :mod:`repro.core.references` from the graph's CSR
    arrays with scipy's sparse and ``csgraph`` routines, sharing no
    code with the superstep programs, so a wrong program FAILs its
    cells.  The other five (``stats``, ``evo``, ``mis``, ``sampling``,
    ``diameter``) still re-run their own program
    (:meth:`~repro.algorithms.base.Algorithm.run_reference`): that
    check catches nondeterminism and replay corruption, not a wrong
    algorithm.
    """
    # imported on first use: scipy.sparse.csgraph takes about 0.1 s to
    # import, which every command importing this module would pay
    from repro.core.references import REFERENCES

    merged = {**workload.params_dict(), **params}
    reference = REFERENCES.get(workload.name)
    if reference is not None:
        return reference(graph, **merged)
    from repro.algorithms.base import get_algorithm

    algo = get_algorithm(workload.algorithm)
    return algo.run_reference(graph, **merged).output
