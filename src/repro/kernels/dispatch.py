"""Superstep-kernel dispatch: compiled tier when available, numpy always.

The backend is selected once at import time from the
``GRAPHBENCH_KERNELS`` environment variable:

``auto`` (default)
    Use the numba-compiled loop tier when numba imports, otherwise fall
    back to the pure-numpy tier with a single logged note.
``numba``
    Require the compiled tier; raise immediately when numba is missing
    (so a CI job configured for the compiled tier cannot silently test
    the fallback).
``numpy``
    Force the pure-numpy tier even when numba is installed — the
    configuration the fallback CI factor pins.

Whatever the backend, results are **bit-identical**: the compiled tier
replays the numpy tier's exact arithmetic (see
:mod:`repro.kernels._compiled`), which is property-tested per
platform x algorithm in ``tests/test_kernels.py``.

Call sites import this module and call its wrappers
(``from repro.kernels import dispatch as kernels``); the wrappers
normalize dtypes and route to the active implementation table, so the
:func:`use_backend` test hook can swap tiers mid-process.
"""

from __future__ import annotations

import contextlib
import logging
import os
import time

import numpy as np

from repro import obs
from repro.kernels import _compiled, _numpy

__all__ = [
    "ENV_VAR",
    "BACKEND_CHOICES",
    "KERNEL_DESCRIPTIONS",
    "active_backend",
    "requested_backend",
    "compiled_tier_loaded",
    "numba_version",
    "list_kernels",
    "backend_summary",
    "use_backend",
    "part_bincount",
    "comm_degrees",
    "cut_count",
    "gather_neighbors",
    "gather_with_sources",
    "scatter_min",
    "ldg_assign",
]

_LOG = logging.getLogger("repro.kernels")

ENV_VAR = "GRAPHBENCH_KERNELS"
BACKEND_CHOICES = ("auto", "numba", "numpy")

#: one-line description per kernel (the ``graphbench list kernels`` rows)
KERNEL_DESCRIPTIONS: dict[str, str] = {
    "part_bincount": "weighted per-part workload aggregation "
    "(every WorkerStepCosts bincount)",
    "comm_degrees": "per-vertex cut-arc counts, one shared edge pass "
    "(PartitionContext remote degrees)",
    "cut_count": "cut-edge count over the CSR (Partition.cut_edges)",
    "gather_neighbors": "frontier adjacency concatenation "
    "(BFS-style expansion)",
    "gather_with_sources": "frontier adjacency + per-entry source ids "
    "(CONN/SSSP edge relaxation)",
    "scatter_min": "in-place minimum scatter "
    "(CONN label / SSSP distance combine)",
    "ldg_assign": "Linear Deterministic Greedy streaming partitioner "
    "inner loop",
}

_KERNEL_NAMES = tuple(KERNEL_DESCRIPTIONS)


def _impl_table(module) -> dict[str, object]:
    return {name: getattr(module, name) for name in _KERNEL_NAMES}


_numba = None
_numba_jitted = False


def _load_numba():
    """Import numba once; remember the module (or the failure)."""
    global _numba
    if _numba is None:
        try:
            import numba  # type: ignore[import-not-found]
        except ImportError:
            _numba = False
        else:
            _numba = numba
    return _numba or None


def _jit_compiled_tier(numba) -> None:
    """Compile the loop bodies in :mod:`repro.kernels._compiled` in
    place (idempotent; lazy per-signature compilation happens on first
    call)."""
    global _numba_jitted
    if _numba_jitted:
        return
    jit = numba.njit(cache=True, nogil=True)
    for name in _compiled.JIT_LOOPS:
        setattr(_compiled, name, jit(getattr(_compiled, name)))
    _numba_jitted = True


def _resolve() -> tuple[str, str, dict[str, object]]:
    """(requested, active backend, implementation table) at import."""
    requested = os.environ.get(ENV_VAR, "auto").strip().lower() or "auto"
    if requested not in BACKEND_CHOICES:
        raise ValueError(
            f"{ENV_VAR}={requested!r} is not a valid kernel backend; "
            f"choose from {', '.join(BACKEND_CHOICES)}"
        )
    if requested == "numpy":
        return requested, "numpy", _impl_table(_numpy)
    numba = _load_numba()
    if numba is None:
        if requested == "numba":
            raise RuntimeError(
                f"{ENV_VAR}=numba but numba is not importable — "
                "install the compiled tier with `pip install repro[perf]`"
            )
        _LOG.info(
            "numba not installed; superstep kernels run on the pure-numpy "
            "fallback (install `repro[perf]` for the compiled tier)"
        )
        return requested, "numpy", _impl_table(_numpy)
    _jit_compiled_tier(numba)
    return requested, "numba", _impl_table(_compiled)


_REQUESTED, _BACKEND, _ACTIVE = _resolve()


# -- introspection (the discovery API surface) -------------------------------

def requested_backend() -> str:
    """The ``GRAPHBENCH_KERNELS`` value the process was imported with."""
    return _REQUESTED


def active_backend() -> str:
    """The tier actually serving kernel calls: ``numba`` or ``numpy``."""
    return _BACKEND


def compiled_tier_loaded() -> bool:
    """True when the numba-compiled tier is the active backend."""
    return _BACKEND == "numba"


def numba_version() -> str | None:
    """The installed numba version, or ``None`` when unavailable."""
    numba = _load_numba()
    return getattr(numba, "__version__", None) if numba else None


def list_kernels() -> list[tuple[str, str]]:
    """Discovery API: sorted ``(name, one-line description)`` pairs for
    every dispatchable kernel, each stamped with its active backend
    (mirrors ``list_platforms`` / ``list_algorithms`` — the CLI's
    ``graphbench list kernels`` is built on this)."""
    return [
        (name, f"{KERNEL_DESCRIPTIONS[name]} [backend: {_BACKEND}]")
        for name in sorted(_KERNEL_NAMES)
    ]


def backend_summary() -> str:
    """One line stating whether the compiled tier loaded and why."""
    if compiled_tier_loaded():
        return (
            f"compiled tier: loaded (numba {numba_version()}, "
            f"{ENV_VAR}={_REQUESTED})"
        )
    reason = (
        "forced by environment" if _REQUESTED == "numpy"
        else "numba not installed"
    )
    return (
        f"compiled tier: not loaded — pure-numpy fallback "
        f"({reason}, {ENV_VAR}={_REQUESTED})"
    )


@contextlib.contextmanager
def use_backend(name: str):
    """Test hook: run a block on a specific tier.

    ``"numpy"`` binds the reference tier; ``"compiled"`` binds the loop
    tier (numba-jitted when numba is installed, plain python otherwise
    — same arithmetic either way, which is what the bit-identity suite
    exercises on numba-less machines).
    """
    global _BACKEND, _ACTIVE
    if name == "numpy":
        table, backend = _impl_table(_numpy), "numpy"
    elif name == "compiled":
        numba = _load_numba()
        if numba is not None:
            _jit_compiled_tier(numba)
        table = _impl_table(_compiled)
        backend = "numba" if numba is not None else "numpy"
    else:
        raise ValueError(f"unknown kernel tier {name!r}")
    prev = _BACKEND, _ACTIVE
    _BACKEND, _ACTIVE = backend, table
    try:
        yield
    finally:
        _BACKEND, _ACTIVE = prev


# -- dispatch wrappers (the hot-path API) ------------------------------------

def _call(name: str, *args):
    """Route one kernel call through the active tier.

    The single ``is None`` check is the whole observability cost when
    the layer is off; when a session is ambient, the call is timed and
    folded into per-kernel, per-backend counters
    (``kernels.<backend>.<name>.calls`` / ``.wall_seconds``).
    """
    session = obs.active()
    if session is None:
        return _ACTIVE[name](*args)
    start = time.perf_counter()
    result = _ACTIVE[name](*args)
    wall = time.perf_counter() - start
    metrics = session.metrics
    metrics.count(f"kernels.{_BACKEND}.{name}.calls")
    metrics.count(f"kernels.{_BACKEND}.{name}.wall_seconds", wall)
    return result


def part_bincount(
    parts: np.ndarray, weights: np.ndarray, num_parts: int
) -> np.ndarray:
    """Float64 per-part totals of ``weights`` grouped by ``parts``.

    Accumulation is in element order — the same order (and therefore
    the same float64 sums) as ``np.bincount(parts, weights=...)``.
    """
    return _call(
        "part_bincount",
        parts, np.asarray(weights, dtype=np.float64), int(num_parts),
    )


def comm_degrees(
    indptr: np.ndarray,
    indices: np.ndarray,
    assign: np.ndarray,
    directed: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-vertex ``(remote_out, remote_in)`` cut-arc counts from one
    pass over the CSR (``remote_in`` aliases ``remote_out`` on
    undirected graphs)."""
    return _call("comm_degrees", indptr, indices, assign, bool(directed))


def cut_count(
    indptr: np.ndarray, indices: np.ndarray, assign: np.ndarray
) -> int:
    """Number of CSR arcs crossing parts (before any undirected
    halving)."""
    return int(_call("cut_count", indptr, indices, assign))


def gather_neighbors(
    indptr: np.ndarray, indices: np.ndarray, vertices: np.ndarray
) -> np.ndarray:
    """Concatenated adjacency slices of ``vertices`` (frontier
    expansion); output dtype matches ``indices``."""
    return _call("gather_neighbors", indptr, indices, vertices)


def gather_with_sources(
    indptr: np.ndarray, indices: np.ndarray, vertices: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Like :func:`gather_neighbors` plus the int64 source vertex of
    every gathered entry."""
    return _call("gather_with_sources", indptr, indices, vertices)


def scatter_min(
    target: np.ndarray, idx: np.ndarray, values: np.ndarray
) -> None:
    """In-place ``np.minimum.at(target, idx, values)``."""
    _call("scatter_min", target, idx, values)


def ldg_assign(
    indptr: np.ndarray,
    indices: np.ndarray,
    in_indptr: np.ndarray,
    in_indices: np.ndarray,
    directed: bool,
    order: np.ndarray,
    weight: np.ndarray,
    capacity: float,
    num_parts: int,
) -> np.ndarray:
    """The LDG streaming-partitioner inner loop; int32 assignment."""
    return _call(
        "ldg_assign",
        indptr, indices, in_indptr, in_indices, bool(directed),
        order, np.asarray(weight, dtype=np.float64), float(capacity),
        int(num_parts),
    )
