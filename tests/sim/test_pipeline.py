"""Pipeline timing: latency, initiation interval, retire order."""

import pytest

from repro.sim.pipeline import Pipeline


class TestPipelineConstruction:
    def test_rejects_bad_latency(self):
        with pytest.raises(ValueError):
            Pipeline(latency=0)

    def test_rejects_bad_initiation_interval(self):
        with pytest.raises(ValueError):
            Pipeline(latency=1, initiation_interval=0)


class TestPipelineTiming:
    def test_result_appears_after_latency(self):
        pipe = Pipeline(latency=5)
        assert pipe.issue("x", cycle=10)
        assert pipe.retire_ready(14) == []
        assert pipe.retire_ready(15) == ["x"]

    def test_initiation_interval_blocks_early_reissue(self):
        pipe = Pipeline(latency=5, initiation_interval=2)
        assert pipe.issue("a", cycle=0)
        assert not pipe.can_issue(1)
        assert not pipe.issue("b", cycle=1)
        assert pipe.issue("b", cycle=2)

    def test_pipelined_overlap(self):
        """Items issued every II retire every II after the fill latency —
        the property that lets the FPU run at full rate regardless of
        depth (§4.5)."""
        pipe = Pipeline(latency=14, initiation_interval=2)
        for i in range(8):
            assert pipe.issue(i, cycle=2 * i)
        retired = []
        for cycle in range(40):
            retired.extend((cycle, item) for item in pipe.retire_ready(cycle))
        assert [item for _, item in retired] == list(range(8))
        times = [cycle for cycle, _ in retired]
        assert times[0] == 14
        assert all(b - a == 2 for a, b in zip(times, times[1:]))

    def test_retire_order_is_issue_order(self):
        pipe = Pipeline(latency=3, initiation_interval=1)
        for i in range(5):
            pipe.issue(i, cycle=i)
        out = []
        for cycle in range(12):
            out.extend(pipe.retire_ready(cycle))
        assert out == [0, 1, 2, 3, 4]

    def test_busy_and_len(self):
        pipe = Pipeline(latency=2)
        assert len(pipe) == 0
        pipe.issue("a", 0)
        assert len(pipe) == 1
        pipe.retire_ready(2)
        assert len(pipe) == 0

    def test_counters(self):
        pipe = Pipeline(latency=1)
        pipe.issue("a", 0)
        pipe.retire_ready(5)
        assert pipe.issued == 1
        assert pipe.retired == 1

    def test_pipeline_next_retire_cycle(self):
        pipe = Pipeline(latency=12, initiation_interval=2)
        assert pipe.next_retire_cycle() is None
        pipe.issue("a", cycle=5)
        pipe.issue("b", cycle=7)
        assert pipe.next_retire_cycle() == 17
        assert pipe.retire_ready(16) == []
        assert pipe.retire_ready(17) == ["a"]
        assert pipe.next_retire_cycle() == 19
