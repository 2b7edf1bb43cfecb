"""Tests for platform model options: Giraph combiners/checkpointing,
MapReduce block-driven map scheduling."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.spec import das4_cluster
from repro.datasets import load_dataset
from repro.platforms import PlatformCrash
from repro.platforms.giraph import Giraph
from repro.platforms.hadoop import Hadoop


class TestGiraphCombiner:
    def test_combiner_reduces_time_on_combinable(self):
        g = load_dataset("dotaleague")
        c = das4_cluster()
        plain = Giraph().run("bfs", g, c).execution_time
        combined = Giraph(use_combiner=True).run("bfs", g, c).execution_time
        assert combined <= plain

    def test_combiner_rescues_friendster_bfs(self):
        """A min-combiner shrinks the superstep buffers enough to fit
        Friendster at 20 workers — the standard production fix for the
        paper's crash."""
        g = load_dataset("friendster")
        c = das4_cluster()
        with pytest.raises(PlatformCrash):
            Giraph().run("bfs", g, c)
        result = Giraph(use_combiner=True).run("bfs", g, c)
        assert result.execution_time > 0

    def test_combiner_does_not_change_output(self, random_graph, small_cluster):
        a = Giraph().run("bfs", random_graph, small_cluster)
        b = Giraph(use_combiner=True).run("bfs", random_graph, small_cluster)
        import numpy as np

        assert np.array_equal(a.output, b.output)

    def test_combiner_ignored_for_uncombinable(self, small_cluster):
        """CD messages carry labels+scores that cannot be merged."""
        g = load_dataset("kgs")
        a = Giraph().run("cd", g, small_cluster).execution_time
        b = Giraph(use_combiner=True).run("cd", g, small_cluster).execution_time
        assert b == pytest.approx(a)

    def test_combiner_does_not_rescue_stats(self):
        """STATS messages (whole neighbor lists) are not combinable, so
        the WikiTalk crash remains."""
        g = load_dataset("wikitalk")
        with pytest.raises(PlatformCrash):
            Giraph(use_combiner=True).run("stats", g, das4_cluster())


class TestGiraphCheckpointing:
    def test_checkpoint_adds_overhead(self):
        g = load_dataset("kgs")
        c = das4_cluster()
        plain = Giraph().run("bfs", g, c)
        ckpt = Giraph(checkpoint_interval=2).run("bfs", g, c)
        assert ckpt.execution_time > plain.execution_time
        assert ckpt.breakdown["checkpoint"] > 0

    def test_zero_interval_means_off(self):
        g = load_dataset("kgs")
        r = Giraph(checkpoint_interval=0).run("bfs", g, das4_cluster())
        assert "checkpoint" not in r.breakdown

    def test_sparser_checkpoints_cost_less(self):
        g = load_dataset("kgs")
        c = das4_cluster()
        dense = Giraph(checkpoint_interval=1).run("bfs", g, c)
        sparse = Giraph(checkpoint_interval=4).run("bfs", g, c)
        assert sparse.breakdown["checkpoint"] < dense.breakdown["checkpoint"]

    def test_output_unchanged(self, random_graph, small_cluster):
        import numpy as np

        a = Giraph().run("conn", random_graph, small_cluster)
        b = Giraph(checkpoint_interval=1).run("conn", random_graph, small_cluster)
        assert np.array_equal(a.output, b.output)


class TestMapReduceBlockScheduling:
    def _block_hadoop(self) -> Hadoop:
        h = Hadoop()
        h.pin_blocks_to_slots = False
        return h

    def test_block_mode_never_faster(self):
        """The paper's pinned-block configuration is the optimum: the
        64 MB-block schedule adds wave rounding."""
        g = load_dataset("friendster")
        c = das4_cluster()
        pinned = Hadoop().run("bfs", g, c).execution_time
        blocks = self._block_hadoop().run("bfs", g, c).execution_time
        assert blocks >= pinned * 0.99

    def test_block_mode_output_identical(self, random_graph, small_cluster):
        import numpy as np

        a = Hadoop().run("bfs", random_graph, small_cluster)
        b = self._block_hadoop().run("bfs", random_graph, small_cluster)
        assert np.array_equal(a.output, b.output)

    def test_wave_makespan_exact(self):
        """10 unit tasks over 3 slots = 4 waves."""
        assert Hadoop._wave_makespan([1.0] * 10, 3) == pytest.approx(4.0)

    def test_wave_makespan_heterogeneous(self):
        # one long task dominates
        assert Hadoop._wave_makespan([5.0, 1.0, 1.0], 2) == pytest.approx(5.0)

    def test_wave_makespan_empty(self):
        assert Hadoop._wave_makespan([], 4) == 0.0

    @settings(max_examples=200, deadline=None)
    @given(
        durations=st.lists(
            st.one_of(
                st.floats(0.0, 1e4, allow_nan=False),
                st.sampled_from([0.0, 0.1, 1.0, 7.5]),
            ),
            max_size=40,
        ),
        slots=st.integers(0, 9),
    )
    def test_wave_makespan_matches_des_kernel(self, durations, slots):
        """The list scheduler is bit-identical to scheduling the same
        tasks through a DES resource pool."""
        assert Hadoop._wave_makespan(durations, slots) == _des_makespan(
            durations, slots
        )


def _des_makespan(durations: list[float], slots: int) -> float:
    """Reference wave makespan: every task queues for one of ``slots``
    DES resource units and holds it for its duration."""
    from repro.des import Resource, Simulator

    if not durations:
        return 0.0
    sim = Simulator()
    pool = Resource(sim, capacity=max(slots, 1))

    def task(service: float):
        with pool.request() as req:
            yield req
            yield sim.timeout(service)

    procs = [sim.process(task(d)) for d in durations]
    sim.run(until=sim.all_of(procs))
    return sim.now


class TestGiraphOutOfCore:
    """Out-of-core execution (the Giraph 1.0 feature that later fixed
    the paper's OOM cells) trades crashes for disk traffic."""

    def test_rescues_friendster_bfs(self):
        from repro.datasets import load_dataset

        g = load_dataset("friendster")
        c = das4_cluster()
        with pytest.raises(PlatformCrash):
            Giraph().run("bfs", g, c)
        r = Giraph(out_of_core=True).run("bfs", g, c)
        assert r.execution_time > 0

    def test_rescues_stats_wikitalk(self):
        from repro.datasets import load_dataset

        g = load_dataset("wikitalk")
        r = Giraph(out_of_core=True).run("stats", g, das4_cluster())
        assert r.execution_time > 0

    def test_slower_than_combiner_on_friendster(self):
        """Spilling the overflow costs more than not creating it."""
        from repro.datasets import load_dataset

        g = load_dataset("friendster")
        c = das4_cluster()
        ooc = Giraph(out_of_core=True).run("bfs", g, c).execution_time
        comb = Giraph(use_combiner=True).run("bfs", g, c).execution_time
        assert ooc > comb

    def test_no_cost_when_memory_fits(self):
        from repro.datasets import load_dataset

        g = load_dataset("kgs")
        c = das4_cluster()
        plain = Giraph().run("bfs", g, c).execution_time
        ooc = Giraph(out_of_core=True).run("bfs", g, c).execution_time
        assert ooc == pytest.approx(plain)

    def test_output_unchanged(self, random_graph, small_cluster):
        import numpy as np

        a = Giraph().run("conn", random_graph, small_cluster)
        b = Giraph(out_of_core=True).run("conn", random_graph, small_cluster)
        assert np.array_equal(a.output, b.output)
