"""Second round of property-based tests: algorithms and scale model."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms.extensions.mis import maximal_independent_set
from repro.algorithms.extensions.sssp import edge_weights
from repro.algorithms.evo import EvoProgram
from repro.core import references
from repro.graph.builder import from_edges
from repro.platforms.scale import ScaleModel


@st.composite
def edge_lists(draw, max_vertices=30, max_edges=90, directed=None):
    n = draw(st.integers(min_value=2, max_value=max_vertices))
    m = draw(st.integers(min_value=0, max_value=max_edges))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
            ),
            min_size=m,
            max_size=m,
        )
    )
    if directed is None:
        directed = draw(st.booleans())
    return n, np.array(edges, dtype=np.int64).reshape(-1, 2), directed


def _build(spec):
    n, edges, directed = spec
    return from_edges(n, edges, directed=directed)


# -- MIS invariants ---------------------------------------------------------


@given(edge_lists())
@settings(max_examples=50, deadline=None)
def test_mis_is_independent_and_maximal(spec):
    g = _build(spec)
    mis = maximal_independent_set(g)
    und = g.as_undirected() if g.directed else g
    for v in range(g.num_vertices):
        nbrs = und.neighbors(v)
        if mis[v]:
            # independence: no neighbor is in the set
            assert not mis[nbrs].any()
        else:
            # maximality: some neighbor must be in the set
            assert len(nbrs) > 0 and mis[nbrs].any()


# -- SSSP vs Dijkstra ------------------------------------------------------------


@given(edge_lists(), st.data())
@settings(
    max_examples=30, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_sssp_program_matches_dijkstra(spec, data):
    from repro.algorithms.base import get_algorithm

    g = _build(spec)
    source = data.draw(st.integers(min_value=0, max_value=g.num_vertices - 1))
    prog = get_algorithm("sssp").program(g, source=source)
    for _ in prog:
        pass
    ref = references.sssp(g, source=source)
    assert np.allclose(prog.result(), ref, equal_nan=True)


@given(
    st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=40),
    st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=40),
)
@settings(max_examples=50, deadline=None)
def test_edge_weights_bounded_and_deterministic(srcs, dsts):
    k = min(len(srcs), len(dsts))
    s = np.array(srcs[:k])
    d = np.array(dsts[:k])
    w1 = edge_weights(s, d)
    w2 = edge_weights(s, d)
    assert np.array_equal(w1, w2)
    assert np.all((w1 >= 1) & (w1 <= 8))


# -- EVO monotonicity ------------------------------------------------------------


@given(edge_lists(), st.integers(min_value=1, max_value=10))
@settings(
    max_examples=25, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_evo_only_adds(spec, seed):
    g = _build(spec)
    prog = EvoProgram(g, growth_fraction=0.2, iterations=3, seed=seed)
    for _ in prog:
        pass
    evolved = prog.result()
    assert evolved.num_vertices >= g.num_vertices
    assert evolved.num_edges >= g.num_edges
    for v in range(g.num_vertices):
        assert set(g.neighbors(v).tolist()) <= set(evolved.neighbors(v).tolist())


# -- ScaleModel algebra ------------------------------------------------------------


@given(
    st.floats(min_value=0.1, max_value=1e4),
    st.floats(min_value=0.1, max_value=1e4),
    st.floats(min_value=0.1, max_value=1e2),
    st.booleans(),
    st.floats(min_value=1e-6, max_value=1e9),
)
@settings(max_examples=100, deadline=None)
def test_scale_model_linear_and_consistent(v_mult, e_mult, d_mult, hub, x):
    import pytest

    s = ScaleModel(v_mult=v_mult, e_mult=e_mult, d_mult=d_mult, hub_scaled=hub)
    assert s.vertices(x) == x * v_mult
    assert s.edges(x) == x * e_mult
    # quadratic multiplier is consistent with its definition
    expected = v_mult * v_mult if hub else e_mult * d_mult
    assert s.degree_quadratic(x) == pytest.approx(x * expected)
    # linearity (up to float rounding)
    assert s.edges(2 * x) == pytest.approx(2 * s.edges(x), rel=1e-12)


# -- monitor sampling conservation -------------------------------------------------


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=50.0),
            st.floats(min_value=0.01, max_value=50.0),
            st.floats(min_value=0.0, max_value=10.0),
        ),
        min_size=1,
        max_size=12,
    )
)
@settings(max_examples=50, deadline=None)
def test_trace_series_nonnegative_and_bounded(intervals):
    from repro.cluster.monitoring import ResourceTrace

    tr = ResourceTrace()
    total = 0.0
    for start, length, value in intervals:
        tr.record("w", start, start + length, cpu=value)
        total += value
    series = tr.series("w", "cpu", num_points=64)
    assert np.all(series >= 0)
    # a sample can never exceed the sum of all overlapping values
    assert series.max() <= total + 1e-9
