"""In-memory span tracer that wraps the public functions of each layer.

Nothing under ``src/`` is edited: :func:`install` replaces each layer's
entry point with a wrapper, in every ``repro`` module that bound it, so
calls from anywhere in the program go through the wrapper.  A wrapper
records one span (name, start, end, parent) per call into flat arrays,
and keeps per-name totals of *self* time (span time minus the time of
the child spans inside it).  Spans are written out once, at
the end, by :meth:`Tracer.dump`.

A wrapper names its span after the call returns, so one entry point can
feed two layers: a ``TraceCache.get_or_record`` call that records is a
``trace.record`` span, one that hits is ``trace.hit``.
"""

from __future__ import annotations

import array
import functools
import os
import sys
import time
import typing as _t

#: the seven dispatch kernels of ``repro.kernels``
KERNELS = (
    "part_bincount",
    "comm_degrees",
    "cut_count",
    "gather_neighbors",
    "gather_with_sources",
    "scatter_min",
    "ldg_assign",
)


class Tracer:
    """Spans in memory plus per-name aggregates."""

    def __init__(self) -> None:
        self.enabled = False
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array.array("H")
        self.span_start = array.array("d")
        self.span_end = array.array("d")
        self.span_parent = array.array("l")
        # one [child_seconds, span_index] frame per open span
        self._stack: list[list] = []
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        #: extra counts taken at span boundaries (bytes, memo hits)
        self.counters: dict[str, float] = {}

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self._names)
            self._names.append(name)
        return nid

    def count(self, name: str, value: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def reset(self) -> None:
        """Drop the aggregates (spans already recorded are kept)."""
        self.self_s.clear()
        self.calls.clear()
        self.counters.clear()

    def wrap(
        self,
        fn: _t.Callable,
        name: str,
        classify: _t.Callable | None = None,
    ) -> _t.Callable:
        """``fn`` with a span around each call.

        ``classify(args, kwargs)`` runs before the call and returns a
        function of the call's result that gives the span name; without
        it every span is called ``name``.
        """
        tracer = self
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            finish = classify(args, kwargs) if classify is not None else None
            stack = tracer._stack
            index = len(tracer.span_start)
            tracer.span_name.append(0)
            tracer.span_parent.append(stack[-1][1] if stack else -1)
            frame = [0.0, index]
            stack.append(frame)
            t0 = perf()
            tracer.span_start.append(t0)
            tracer.span_end.append(t0)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf()
                stack.pop()
                span = t1 - t0
                if stack:
                    stack[-1][0] += span
                label = finish(result) if finish is not None else name
                tracer.span_end[index] = t1
                tracer.span_name[index] = tracer._name_id(label)
                tracer.self_s[label] = (
                    tracer.self_s.get(label, 0.0) + span - frame[0]
                )
                tracer.calls[label] = tracer.calls.get(label, 0) + 1

        return wrapper

    def self_total(self) -> float:
        """Sum of every span's self time."""
        return sum(self.self_s.values())

    def dump(self, path: str) -> None:
        """Write every recorded span to ``path`` (``.npz``)."""
        import numpy as np

        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self._names),
            name=np.frombuffer(self.span_name, dtype=np.uint16),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
        )


def _rebind(original: _t.Callable, replacement: _t.Callable) -> int:
    """Point every ``repro`` module attribute bound to ``original`` at
    ``replacement``; returns how many bindings changed."""
    changed = 0
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (
            mod_name == "repro" or mod_name.startswith("repro.")
        ):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                changed += 1
    return changed


def _patch_function(tracer: Tracer, module, attr: str, name: str,
                    classify=None) -> None:
    original = getattr(module, attr)
    if _rebind(original, tracer.wrap(original, name, classify)) == 0:
        raise RuntimeError(f"{module.__name__}.{attr} is bound nowhere")


def _patch_method(tracer: Tracer, cls, attr: str, name: str,
                  classify=None) -> None:
    setattr(cls, attr, tracer.wrap(getattr(cls, attr), name, classify))


def install(tracer: Tracer) -> None:
    """Wrap every layer's public entry points; call once per process."""
    # Import every module that binds a wrapped function by name, so the
    # rebinding below reaches all of them.
    import repro.algorithms  # noqa: F401  (registers every algorithm)
    import repro.algorithms.extensions  # noqa: F401
    import repro.core.benchmark
    import repro.core.runner
    import repro.core.scalability  # noqa: F401
    import repro.core.sweep
    import repro.core.trace_cache
    import repro.core.workloads
    import repro.datasets.registry as dreg
    import repro.des.engine
    import repro.graph.graph
    import repro.kernels.dispatch as dispatch
    import repro.platforms.base
    import repro.platforms.giraph  # noqa: F401
    import repro.platforms.graphlab  # noqa: F401
    import repro.platforms.mapreduce  # noqa: F401
    import repro.platforms.neo4j  # noqa: F401
    import repro.platforms.registry as preg
    import repro.platforms.stratosphere  # noqa: F401

    # repro.datasets: a load that misses the in-process memo is a load
    def load_classify(args, kwargs):
        name = args[0] if args else kwargs["name"]
        scale = dreg.resolve_scale(kwargs.get("scale", 1.0))
        key = (name.lower(), float(scale), kwargs.get("seed"))
        hit = key in dreg._cache
        return lambda _r: "datasets.hit" if hit else "datasets.load"

    _patch_function(tracer, dreg, "load_dataset", "datasets.load",
                    load_classify)

    # repro.core.trace_cache: a call that raised the miss count recorded
    def trace_classify(args, kwargs):
        cache = args[0]
        misses = cache.misses

        def finish(result):
            if cache.misses > misses:
                if result is not None:
                    tracer.count("trace.bytes", result[0].nbytes)
                return "trace.record"
            return "trace.hit"

        return finish

    _patch_method(tracer, repro.core.trace_cache.TraceCache,
                  "get_or_record", "trace.record", trace_classify)

    # repro.core.workloads: references and checks
    _patch_function(tracer, repro.core.workloads, "reference_output",
                    "validate.reference")
    _patch_method(tracer, repro.core.workloads.Workload, "validate",
                  "validate.check")

    # repro.platforms.registry + repro.graph.partition
    def partition_classify(args, kwargs):
        graph, num_parts, policy = args[:3]
        part = preg._partition_cache.get((id(graph), num_parts, policy))
        hit = part is not None and part.graph is graph
        return lambda _r: "partition.hit" if hit else "partition.build"

    def context_classify(args, kwargs):
        graph, num_parts, policy, scale = args[:4]
        ctx = preg._context_cache.get((id(graph), num_parts, policy, scale))
        hit = ctx is not None and ctx.graph is graph
        return lambda _r: "context.hit" if hit else "context.build"

    _patch_function(tracer, preg, "cached_partition", "partition.build",
                    partition_classify)
    _patch_function(tracer, preg, "cached_context", "context.build",
                    context_classify)

    # repro.platforms.base: step-cost aggregation and its memo
    def step_classify(args, kwargs):
        ctx = args[0]
        hits = ctx.step_memo_hits

        def finish(_result):
            if ctx.step_memo_hits > hits:
                tracer.count("step_costs.memo_hits")
            return "step_costs"

        return finish

    _patch_method(tracer, repro.platforms.base.PartitionContext,
                  "step_costs", "step_costs", step_classify)
    _patch_method(tracer, repro.graph.graph.Graph, "text_size_bytes",
                  "graph.text_size")
    _patch_method(tracer, repro.des.engine.Simulator, "run", "des.run")
    _patch_method(tracer, repro.platforms.base.Platform, "run", "charge")

    # repro.kernels: the dispatch wrappers, wherever they are bound
    for kernel in KERNELS:
        _patch_function(tracer, dispatch, kernel, f"kernels.{kernel}")

    # repro.core.runner and repro.core.sweep
    _patch_method(tracer, repro.core.runner.Runner, "run", "runner")
    _patch_function(tracer, repro.core.sweep, "run_specs", "sweep.pool")

    # Forked sweep workers inherit the wrappers; their spans could not
    # reach the parent, so they run untraced.
    os.register_at_fork(after_in_child=lambda: setattr(tracer, "enabled", False))
