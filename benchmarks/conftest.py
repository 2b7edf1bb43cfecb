"""Shared fixtures for the benchmark harness.

Run with ``pytest benchmarks/ --benchmark-only``; add ``-s`` to see the
regenerated paper tables inline.  Every benchmark times the full
regeneration of one paper table or figure and prints the rendered
result (the paper-vs-measured artifact recorded in EXPERIMENTS.md).
"""

from __future__ import annotations

import pytest

from repro.core.runner import Runner
from repro.core.suite import BenchmarkSuite


@pytest.fixture(scope="session")
def suite() -> BenchmarkSuite:
    """One shared suite so dataset/partition caches are reused."""
    return BenchmarkSuite(runner=Runner())


@pytest.fixture
def fresh_context_memo():
    """Reset the process-wide partition/context memos around a cold-path
    measurement.

    Benchmarks that assert a cold-vs-warm speedup flake when the whole
    ``benchmarks/`` directory runs in one process: earlier benchmarks
    pre-warm the memos, so the "cold" sweep was never cold.  Resetting
    before *and* after keeps both this measurement honest and later
    benchmarks independent of test ordering.  Code that measures
    outside pytest calls
    :func:`repro.platforms.registry.reset_for_isolation` itself.
    """
    from repro.platforms.registry import reset_for_isolation

    reset_for_isolation()
    yield
    reset_for_isolation()


def run_once(benchmark, fn):
    """Time ``fn`` exactly once (simulated runs are deterministic and
    too expensive for multi-round timing) and print its rendering."""
    data, text = benchmark.pedantic(fn, rounds=1, iterations=1)
    print()
    print(text)
    return data, text
