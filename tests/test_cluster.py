"""Tests for the cluster substrate: specs, HDFS, monitoring."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.hdfs import HDFS
from repro.cluster.monitoring import MASTER, ResourceTrace, normalize_series, worker_node
from repro.cluster.spec import DAS4_MACHINE, GB, MB, ClusterSpec, das4_cluster


class TestSpecs:
    def test_das4_defaults(self):
        c = das4_cluster()
        assert c.num_workers == 20
        assert c.cores_per_worker == 1
        assert c.machine.cores == 8
        assert c.machine.memory_bytes == 24 * GB

    def test_total_cores(self):
        assert das4_cluster(20, 4).total_cores == 80

    def test_heap_divided_among_slots(self):
        """Paper: 20 GB heap at 1 task/node, ~3 GB at 7 (Section 3.1)."""
        assert das4_cluster(20, 1).worker_heap_bytes == pytest.approx(20 * GB)
        assert das4_cluster(20, 7).worker_heap_bytes == pytest.approx(20 * GB / 7)

    def test_invalid_workers(self):
        with pytest.raises(ValueError):
            ClusterSpec(num_workers=0)

    def test_cores_bounded_by_machine(self):
        """One core is always left to the OS (paper tests 1..7 of 8)."""
        with pytest.raises(ValueError):
            das4_cluster(20, 8)
        with pytest.raises(ValueError):
            das4_cluster(20, 0)

    def test_with_workers_copy(self):
        c = das4_cluster(20, 3)
        c2 = c.with_workers(45)
        assert c2.num_workers == 45 and c2.cores_per_worker == 3
        assert c.num_workers == 20  # frozen original

    def test_with_cores_copy(self):
        c = das4_cluster(20, 1).with_cores(5)
        assert c.cores_per_worker == 5


class TestHDFS:
    def test_block_count(self):
        h = HDFS(das4_cluster())
        assert h.num_blocks(0.5 * h.block_bytes) == 1
        assert h.num_blocks(2.5 * h.block_bytes) == 3

    def test_ingestion_roughly_linear(self):
        """Paper Table 6: ~1 second per 100 MB."""
        h = HDFS(das4_cluster())
        t1 = h.ingest_seconds(1000 * MB)
        t2 = h.ingest_seconds(2000 * MB)
        assert t2 == pytest.approx(2 * t1, rel=0.2)

    def test_ingestion_rate_near_paper(self):
        """100 MB should take on the order of 1 second."""
        t = HDFS(das4_cluster()).ingest_seconds(100 * MB)
        assert 0.5 <= t <= 3.0

    def test_zero_bytes(self):
        assert HDFS(das4_cluster()).ingest_seconds(0) == 0.0

    def test_parallel_read_scales_with_readers(self):
        h = HDFS(das4_cluster())
        assert h.parallel_read_seconds(10 * GB, 20) == pytest.approx(
            h.parallel_read_seconds(10 * GB, 40) * 2
        )

    def test_parallel_write_uses_write_bandwidth(self):
        h = HDFS(das4_cluster())
        t = h.parallel_write_seconds(1 * GB, 1)
        assert t == pytest.approx(GB / DAS4_MACHINE.disk_write_bps)

    def test_replication_multiplies_write(self):
        c = das4_cluster()
        t1 = HDFS(c, replication=1).parallel_write_seconds(1 * GB, 4)
        t3 = HDFS(c, replication=3).parallel_write_seconds(1 * GB, 4)
        assert t3 == pytest.approx(3 * t1)


class TestResourceTrace:
    def test_interval_recording_and_sampling(self):
        tr = ResourceTrace()
        tr.record("w0", 0.0, 10.0, cpu=0.5)
        vals = tr.sample("w0", "cpu", np.array([5.0, 15.0]))
        assert vals.tolist() == [0.5, 0.0]

    def test_overlapping_intervals_accumulate(self):
        tr = ResourceTrace()
        tr.record("w0", 0.0, 10.0, cpu=0.3)
        tr.record("w0", 5.0, 15.0, cpu=0.4)
        assert tr.sample("w0", "cpu", np.array([7.0]))[0] == pytest.approx(0.7)

    def test_memory_step_function(self):
        tr = ResourceTrace()
        tr.set_memory("w0", 0.0, 100.0)
        tr.set_memory("w0", 10.0, 300.0)
        vals = tr.sample("w0", "memory", np.array([5.0, 10.0, 20.0]))
        assert vals.tolist() == [100.0, 300.0, 300.0]

    def test_memory_before_first_event_is_zero(self):
        tr = ResourceTrace()
        tr.set_memory("w0", 5.0, 100.0)
        assert tr.sample("w0", "memory", np.array([1.0]))[0] == 0.0

    def test_series_has_num_points(self):
        tr = ResourceTrace()
        tr.record("w0", 0.0, 50.0, net_in=1e6)
        assert len(tr.series("w0", "net_in", num_points=100)) == 100

    def test_series_normalizes_over_job_length(self):
        """Two jobs of different lengths produce comparable series."""
        a = ResourceTrace()
        a.record("w0", 0.0, 10.0, cpu=1.0)
        b = ResourceTrace()
        b.record("w0", 0.0, 1000.0, cpu=1.0)
        assert np.allclose(
            a.series("w0", "cpu"), b.series("w0", "cpu")
        )

    def test_unknown_metric(self):
        tr = ResourceTrace()
        with pytest.raises(ValueError):
            tr.sample("w0", "entropy", np.array([0.0]))

    def test_invalid_interval(self):
        tr = ResourceTrace()
        with pytest.raises(ValueError):
            tr.record("w0", 5.0, 1.0, cpu=0.1)

    def test_empty_interval_ignored(self):
        tr = ResourceTrace()
        tr.record("w0", 5.0, 5.0, cpu=0.1)
        assert tr.nodes() == []

    def test_nodes_listing(self):
        tr = ResourceTrace()
        tr.record(MASTER, 0, 1, cpu=0.1)
        tr.set_memory(worker_node(0), 0, 1.0)
        assert tr.nodes() == [MASTER, worker_node(0)]

    def test_peak_and_mean(self):
        tr = ResourceTrace()
        tr.record("w0", 0.0, 5.0, cpu=1.0)
        tr.record("w0", 5.0, 10.0, cpu=0.0)
        assert tr.peak("w0", "cpu") == pytest.approx(1.0)
        assert tr.mean("w0", "cpu") == pytest.approx(0.5, abs=0.05)

    def test_memory_sampling_matches_scalar_semantics(self):
        """The vectorized searchsorted path reproduces 'last event at
        or before t defines the value' for many events and samples."""
        tr = ResourceTrace()
        rng = np.random.default_rng(7)
        events = sorted(
            (float(t), float(v))
            for t, v in zip(rng.uniform(0, 100, 50), rng.uniform(0, 1e9, 50))
        )
        for t, v in events:
            tr.set_memory("w0", t, v)
        times = np.sort(rng.uniform(-5, 105, 200))
        got = tr.sample("w0", "memory", times)
        for t, g in zip(times, got):
            expected = 0.0
            for et, ev in events:
                if et <= t:
                    expected = ev
            assert g == expected

    def test_memory_same_time_events_take_larger_value(self):
        # Ties sort by (t, value): the larger value wins — the ordering
        # the pre-vectorization sorted() tuples produced.
        tr = ResourceTrace()
        tr.set_memory("w0", 5.0, 300.0)
        tr.set_memory("w0", 5.0, 100.0)
        assert tr.sample("w0", "memory", np.array([6.0]))[0] == 300.0

    def test_attribution_lists_overlapping_records(self):
        tr = ResourceTrace()
        tr.record("w0", 0.0, 10.0, net_in=100.0, span=7)
        tr.record("w0", 5.0, 15.0, net_in=50.0, span=9)
        contribs = tr.attribution("w0", "net_in", 7.0)
        assert (100.0, 0.0, 10.0, 7) in contribs
        assert (50.0, 5.0, 15.0, 9) in contribs
        assert tr.attribution("w0", "net_in", 20.0) == []

    def test_attribution_memory_returns_defining_event(self):
        tr = ResourceTrace()
        tr.set_memory("w0", 0.0, 100.0, span=3)
        tr.set_memory("w0", 10.0, 200.0, span=4)
        assert tr.attribution("w0", "memory", 5.0) == [(100.0, 0.0, 0.0, 3)]
        assert tr.attribution("w0", "memory", 12.0) == [(200.0, 10.0, 10.0, 4)]

    def test_peak_attribution_finds_heaviest_record(self):
        tr = ResourceTrace()
        tr.record("w0", 0.0, 100.0, net_in=10.0, span=1)
        tr.record("w0", 40.0, 60.0, net_in=90.0, span=2)
        peak = tr.peak_attribution("w0", "net_in")
        assert 40.0 <= peak["time"] < 60.0
        assert peak["value"] == pytest.approx(100.0)
        # Largest contribution first, each traceable to its span.
        assert peak["contributors"][0][3] == 2
        assert peak["contributors"][1][3] == 1

    def test_records_default_to_untracked_span(self):
        tr = ResourceTrace()
        tr.record("w0", 0.0, 1.0, cpu=0.5)
        assert tr.attribution("w0", "cpu", 0.5) == [(0.5, 0.0, 1.0, None)]


def _trace_state(tr: ResourceTrace):
    """Everything the public read API shows of a trace."""
    nodes = tr.nodes()
    return (
        nodes,
        {(n, m): tr.intervals(n, m) for n in nodes
         for m in ResourceTrace.INTERVAL_METRICS},
        {n: tr.memory_events(n) for n in nodes},
        tr.end_time.hex(),
    )


@st.composite
def _row_calls(draw):
    n = draw(st.integers(1, 5))
    times = st.lists(st.sampled_from([0.0, 1.0, 2.5, 4.0]), min_size=n,
                     max_size=n)
    value = st.one_of(
        st.sampled_from([0.0, 0.5, 3.0]),
        st.lists(st.sampled_from([0.0, 0.25, 2.0]), min_size=n, max_size=n),
    )
    span = st.one_of(st.none(), st.integers(0, 9),
                     st.lists(st.integers(0, 9), min_size=n, max_size=n))
    calls = []
    for _ in range(draw(st.integers(1, 5))):
        node = draw(st.sampled_from(["master", "worker0"]))
        t0 = np.array(draw(times))
        if draw(st.booleans()):
            # lengths of zero are dropped like per-row calls drop them
            t1 = t0 + np.array(draw(times))
            calls.append(("record", node, t0, t1, draw(value), draw(value),
                          draw(value), draw(span)))
        else:
            calls.append(("memory", node, t0, draw(value), draw(span)))
    return n, calls


class TestRowRecords:
    """Rows recorded as arrays build the trace per-row calls build."""

    @staticmethod
    def _row(x, i):
        """Row ``i`` of a per-row list or array, else ``x`` itself."""
        if isinstance(x, (list, np.ndarray)):
            x = x[i]
        return float(x) if isinstance(x, np.floating) else x

    @staticmethod
    def _array(x):
        return np.array(x) if isinstance(x, list) else x

    @settings(max_examples=100, deadline=None)
    @given(case=_row_calls())
    def test_lazy_rows_equal_eager_calls(self, case):
        n, calls = case
        eager, lazy = ResourceTrace(), ResourceTrace()
        for tr in (eager, lazy):
            tr.record("worker0", 0.0, 1.0, cpu=0.5, span=7)
            tr.set_memory("worker0", 0.0, 2.0)
        for i in range(n):
            for kind, node, *args in calls:
                t, *rest = (self._row(x, i) for x in args)
                if kind == "record":
                    t1, cpu, net_in, net_out, span = rest
                    eager.record(node, t, t1, cpu=cpu, net_in=net_in,
                                 net_out=net_out, span=span)
                else:
                    eager.set_memory(node, t, rest[0], span=rest[1])

        def fill(rows):
            for kind, node, t, *rest in calls:
                if kind == "record":
                    t1, cpu, net_in, net_out, span = rest
                    rows.record(node, t, t1, cpu=self._array(cpu),
                                net_in=self._array(net_in),
                                net_out=self._array(net_out), span=span)
                else:
                    rows.set_memory(node, t, self._array(rest[0]),
                                    span=rest[1])

        lazy.rows(n, fill)
        for tr in (eager, lazy):
            tr.record("master", 5.0, 6.0, net_out=1.0)
            tr.set_memory("worker0", 6.0, 1.0)
        assert _trace_state(lazy) == _trace_state(eager)

    @staticmethod
    def _rows(tr, t0, t1):
        tr.rows(len(t0), lambda rows: rows.record(
            "w0", np.array(t0), np.array(t1), cpu=1.0))

    def test_rows_ending_before_they_start_raise_when_built(self):
        tr = ResourceTrace()
        self._rows(tr, [0.0, 2.0], [1.0, 1.5])
        with pytest.raises(ValueError, match="ends before it starts"):
            tr.intervals("w0", "cpu")

    def test_rows_are_made_on_first_read(self):
        tr = ResourceTrace()
        made = []
        tr.rows(1, lambda rows: made.append(rows.n))
        tr.record("w0", 0.0, 1.0, cpu=1.0)
        assert made == []
        assert tr.nodes() == ["w0"]
        assert made == [1]

    def test_end_time_counts_only_positive_length_rows(self):
        tr = ResourceTrace()
        self._rows(tr, [0.0, 9.0], [1.0, 9.0])
        assert tr.end_time == 1.0
        assert tr.intervals("w0", "cpu") == [(0.0, 1.0, 1.0, None)]

    def test_pickling_builds_the_rows(self):
        import pickle

        tr = ResourceTrace()
        self._rows(tr, [0.0], [2.0])
        copy = pickle.loads(pickle.dumps(tr))
        assert _trace_state(copy) == _trace_state(tr)


class TestNormalizeSeries:
    def test_length(self):
        assert len(normalize_series(np.arange(7), 100)) == 100

    def test_endpoints_preserved(self):
        out = normalize_series(np.array([3.0, 9.0]), 10)
        assert out[0] == 3.0 and out[-1] == 9.0

    def test_constant_input(self):
        assert np.allclose(normalize_series(np.full(33, 2.5), 50), 2.5)

    def test_single_sample(self):
        assert np.allclose(normalize_series(np.array([4.0]), 10), 4.0)

    def test_empty_input(self):
        assert np.allclose(normalize_series(np.array([]), 10), 0.0)
