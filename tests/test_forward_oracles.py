"""Degree-ordered triangle counting, LCC and the one-sort CDLP vote
against the formulations they replaced.

The oracles below are the earlier bodies of ``triangle_count`` (the
unoriented ``(A @ A) ∘ A`` product), ``local_clustering_coefficients``
(the same product in row blocks), ``TriangleProgram``'s forward degrees
(a lexsort rank), ``_segment_argmax_label`` (two lexsorts and
``np.add.at``) and ``validate_equivalence`` (``np.unique`` on label
pairs).  Every comparison is byte-for-byte: the replacements must
change no output bit, not merely agree within a tolerance.
"""

import hashlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms import cd
from repro.algorithms.extensions.triangles import TriangleProgram, triangle_count
from repro.core.workloads import ValidationVerdict, validate_equivalence
from repro.graph import properties
from repro.graph.builder import from_edges
from repro.graph.properties import forward_adjacency, local_clustering_coefficients

_SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@st.composite
def graphs(draw, max_vertices=30, max_edges=150):
    """Directed or undirected graphs, with or without duplicate edges,
    possibly edgeless, with up to three trailing isolated vertices."""
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    edges = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        max_size=max_edges,
    ))
    n += draw(st.integers(min_value=0, max_value=3))
    return from_edges(
        n, np.array(edges, dtype=np.int64).reshape(-1, 2),
        directed=draw(st.booleans()), dedupe=draw(st.booleans()),
    )


def _bytes_equal(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# -- oracles: the replaced formulations ----------------------------------------


def _triangle_count_oracle(graph) -> int:
    und = graph.as_undirected() if graph.directed else graph
    adj = und.to_scipy("out").astype(np.int64)
    return int((adj @ adj).multiply(adj).sum() // 6)


def _lcc_oracle(graph, budget=1 << 25) -> np.ndarray:
    und = graph.as_undirected() if graph.directed else graph
    n = und.num_vertices
    if n == 0:
        return np.zeros(0, dtype=np.float64)
    adj = und.to_scipy("out").astype(np.int64)
    two_tri = np.empty(n, dtype=np.int64)
    deg_vec = np.diff(adj.indptr).astype(np.int64)
    row_work = np.asarray(adj @ deg_vec, dtype=np.int64).ravel()
    cuts = np.searchsorted(
        np.cumsum(row_work), np.arange(budget, row_work.sum() + budget, budget)
    )
    lo = 0
    for hi in [*cuts.tolist(), n]:
        hi = min(max(hi, lo + 1), n)
        if hi <= lo:
            continue
        rows = adj[lo:hi]
        two_tri[lo:hi] = np.asarray((rows @ adj).multiply(rows).sum(axis=1)).ravel()
        lo = hi
        if lo >= n:
            break
    deg = np.asarray(und.out_degree(), dtype=np.float64)
    denom = deg * (deg - 1.0)
    lcc = np.zeros(n, dtype=np.float64)
    mask = denom > 0
    lcc[mask] = two_tri[mask] / denom[mask]
    return lcc


def _forward_degree_oracle(graph) -> np.ndarray:
    und = graph.as_undirected() if graph.directed else graph
    n = und.num_vertices
    deg = np.asarray(und.out_degree(), dtype=np.int64)
    rank = np.lexsort((np.arange(n), deg))
    order = np.empty(n, dtype=np.int64)
    order[rank] = np.arange(n)
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(und.out_indptr))
    forward = order[src] < order[und.out_indices.astype(np.int64)]
    return np.bincount(src[forward], minlength=n).astype(np.int64)


def _segment_argmax_oracle(receivers, labels, weights, num_vertices):
    best_label = np.full(num_vertices, -1, dtype=np.int64)
    best_weight = np.zeros(num_vertices, dtype=np.float64)
    if len(receivers) == 0:
        return best_label, best_weight
    order = np.lexsort((labels, receivers))
    r, l, w = receivers[order], labels[order], weights[order]
    boundary = np.empty(len(r), dtype=bool)
    boundary[0] = True
    boundary[1:] = (r[1:] != r[:-1]) | (l[1:] != l[:-1])
    seg_ids = np.cumsum(boundary) - 1
    seg_weight = np.zeros(seg_ids[-1] + 1, dtype=np.float64)
    np.add.at(seg_weight, seg_ids, w)
    seg_recv, seg_label = r[boundary], l[boundary]
    order2 = np.lexsort((seg_label, -seg_weight, seg_recv))
    sr = seg_recv[order2]
    first = np.empty(len(sr), dtype=bool)
    first[0] = True
    first[1:] = sr[1:] != sr[:-1]
    winners = order2[first]
    best_label[seg_recv[winners]] = seg_label[winners]
    best_weight[seg_recv[winners]] = seg_weight[winners]
    return best_label, best_weight


class _UnsortedArcsCdProgram(cd.CdProgram):
    """CD with the arcs in gather order rather than receiver order."""

    def _neighbor_triples(self):
        if self._triples is None:
            g = self.graph
            all_v = np.arange(g.num_vertices, dtype=np.int64)
            src, dst = cd.gather_with_sources(g.out_indptr, g.out_indices, all_v)
            if g.directed:
                src2, dst2 = cd.gather_with_sources(g.in_indptr, g.in_indices, all_v)
                src, dst = np.concatenate([src, src2]), np.concatenate([dst, dst2])
            self._triples = (src, dst)
        return self._triples


def _run_cd(program_cls, vote, graph):
    """CD labels plus every step's (best_label, best_weight) vote."""
    votes = []

    def recording_vote(*args):
        votes.append(vote(*args))
        return votes[-1]

    with mock.patch.object(cd, "_segment_argmax_label", recording_vote):
        prog = program_cls(graph)
        for _ in prog:
            pass
    return prog.result(), votes


def _equivalence_oracle(reference, candidate) -> ValidationVerdict:
    ref = np.asarray(reference).reshape(-1)
    cand = np.asarray(candidate).reshape(-1)
    pairs = np.unique(np.column_stack([ref, cand]), axis=0)
    if len(np.unique(pairs[:, 0])) == len(pairs) == len(np.unique(pairs[:, 1])):
        return ValidationVerdict(
            True, "equivalence", f"partitions coincide ({len(pairs)} classes)"
        )
    return ValidationVerdict(
        False, "equivalence", "label partitions differ (no label bijection exists)"
    )


# -- triangles and LCC ----------------------------------------------------------


@given(graph=graphs(), budget=st.sampled_from([1, 40, 1 << 21]))
@_SETTINGS
def test_triangle_count_matches_unoriented_oracle(graph, budget):
    expected = _triangle_count_oracle(graph)
    with mock.patch.object(properties, "_ROW_BLOCK_WORK", budget):
        assert triangle_count(graph) == expected
        prog = TriangleProgram(graph)
        reports = list(prog)
    assert prog.result() == expected
    fwd_deg = _forward_degree_oracle(graph)
    assert _bytes_equal(reports[0].compute_edges, fwd_deg)
    assert _bytes_equal(reports[0].message_bytes, fwd_deg * fwd_deg * 8)
    assert _bytes_equal(reports[1].compute_edges, fwd_deg * fwd_deg)


@given(graph=graphs(), budget=st.sampled_from([1, 3, 40, 1 << 25]))
@_SETTINGS
def test_lcc_matches_blocked_oracle(graph, budget):
    # Small budgets force many row blocks on both oriented products.
    with mock.patch.object(properties, "_ROW_BLOCK_WORK", budget):
        ours = local_clustering_coefficients(graph)
    assert _bytes_equal(ours, _lcc_oracle(graph, budget))


@given(graph=graphs())
@_SETTINGS
def test_forward_adjacency_orients_each_edge_once(graph):
    fwd = forward_adjacency(graph)
    und = graph.as_undirected() if graph.directed else graph
    assert fwd.nnz * 2 == und.num_half_edges
    # Oriented plus its transpose is the skeleton, multiplicities included.
    sym = (fwd + fwd.T).toarray()
    assert np.array_equal(sym, und.to_scipy("out").astype(np.int64).toarray())
    deg = np.diff(und.out_indptr)
    rows = np.repeat(np.arange(und.num_vertices), np.diff(fwd.indptr))
    low_to_high = (deg[rows] < deg[fwd.indices]) | (
        (deg[rows] == deg[fwd.indices]) & (rows < fwd.indices)
    )
    assert low_to_high.all()


# -- CDLP vote -------------------------------------------------------------------


@st.composite
def votes(draw, num_vertices=8):
    """(receiver, label, weight) triples with labels up to 3x the vertex
    count and weights drawn from a few values so exact ties are common."""
    size = draw(st.integers(min_value=0, max_value=60))
    ints = st.integers(min_value=0, max_value=num_vertices - 1)
    receivers = draw(st.lists(ints, min_size=size, max_size=size))
    labels = draw(st.lists(
        st.integers(min_value=0, max_value=3 * num_vertices),
        min_size=size, max_size=size,
    ))
    weights = draw(st.lists(
        st.sampled_from([0.0, 0.1, 0.2, 0.3, 0.5, 1.0, 1.05]),
        min_size=size, max_size=size,
    ))
    return (np.array(receivers, dtype=np.int64), np.array(labels, dtype=np.int64),
            np.array(weights, dtype=np.float64))


@given(triples=votes())
@_SETTINGS
def test_segment_argmax_matches_two_lexsort_oracle(triples):
    receivers, labels, weights = triples
    best, weight = cd._segment_argmax_label(receivers, labels, weights, 8)
    best_o, weight_o = _segment_argmax_oracle(receivers, labels, weights, 8)
    assert _bytes_equal(best, best_o)
    assert _bytes_equal(weight, weight_o)


@given(graph=graphs())
@_SETTINGS
def test_cdlp_labels_and_vote_weights_match_oracle(graph):
    labels, votes = _run_cd(cd.CdProgram, cd._segment_argmax_label, graph)
    labels_o, votes_o = _run_cd(_UnsortedArcsCdProgram, _segment_argmax_oracle, graph)
    assert _bytes_equal(labels, labels_o)
    assert _bytes_equal(labels, cd.community_detection_labels(graph))
    assert len(votes) == len(votes_o)
    for (best, weight), (best_o, weight_o) in zip(votes, votes_o):
        assert _bytes_equal(best, best_o)
        assert _bytes_equal(weight, weight_o)


@given(graph=graphs())
@_SETTINGS
def test_cd_arcs_are_stably_sorted_by_receiver(graph):
    senders, receivers = cd.CdProgram(graph)._neighbor_triples()
    senders_o, receivers_o = _UnsortedArcsCdProgram(graph)._neighbor_triples()
    order = np.argsort(receivers_o, kind="stable")
    assert _bytes_equal(senders, senders_o[order])
    assert _bytes_equal(receivers, receivers_o[order])


# -- equivalence validator ---------------------------------------------------------


@given(
    labels=st.lists(st.integers(min_value=0, max_value=12), max_size=40),
    perm=st.permutations(range(13)),
    mapping=st.lists(st.integers(min_value=-5, max_value=30), min_size=13, max_size=13),
    split=st.booleans(),
)
@_SETTINGS
def test_validate_equivalence_matches_pair_oracle(labels, perm, mapping, split):
    ref = np.array(labels, dtype=np.int64)
    permuted = np.array(perm, dtype=np.int64)[ref]
    assert validate_equivalence(ref, permuted).passed
    # ``mapping`` merges classes unless it is injective on the used
    # labels; ``split`` moves one vertex into a class of its own.
    mapped = np.array(mapping, dtype=np.int64)[ref]
    if split and len(mapped):
        mapped[0] = 99
    for a, b in ((ref, permuted), (ref, mapped), (mapped, ref)):
        assert validate_equivalence(a, b) == _equivalence_oracle(a, b)


# -- pinned outputs on the benchmark grid ------------------------------------------


def _digest(array) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()[:32]


#: triangle count, sha256 of the LCC float64 bytes, sha256 of the CDLP
#: int64 labels on each grid dataset at ``tiny`` (the unoriented and
#: two-lexsort formulations gave these same values)
_PINNED = {
    "amazon": (5880, "ba0648a5bad0037d5d27e977a63df516",
               "a6112ff020f7cb2a2242973c3ec5b1b8"),
    "kgs": (4678642, "1bce32113b58f8e5863f9824b65abd77",
            "86068a0bd0d1092b72ad9f47be0080be"),
    "citation": (5999, "b65b73eab8f06fbe4dea994e67938e0d",
                 "d3f7dcc49b329b0bd3f08c3845618c55"),
    "wikitalk": (356, "13974db0acb3194c923cd72760396716",
                 "e888c15a37c0db139fee8f8fa76e7f59"),
    "synth": (1167436, "b2b24c7b9453011672d15f143d9725e1",
              "5e29e51bcbcd937381a75b0e8814df0b"),
}


@pytest.mark.parametrize("dataset", sorted(_PINNED))
def test_grid_datasets_pinned(dataset):
    from repro.datasets.registry import load_dataset

    graph = load_dataset(dataset, scale="tiny")
    triangles, lcc_digest, cdlp_digest = _PINNED[dataset]
    assert triangle_count(graph) == triangles
    assert _digest(local_clustering_coefficients(graph)) == lcc_digest
    assert _digest(cd.community_detection_labels(graph)) == cdlp_digest
