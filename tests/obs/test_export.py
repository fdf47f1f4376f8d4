"""Exporters: Chrome trace JSON round trip, summaries, flow timelines."""

import json

import pytest

from repro.obs.export import (
    events_to_csv,
    flow_ids_in,
    load_chrome_trace,
    render_flow_timeline,
    render_summary,
    summarize_records,
    to_chrome_trace,
    write_chrome_trace,
)
from repro.obs.trace import TraceEvent


@pytest.fixture
def events():
    """A hand-built event→fpu→tx causality chain plus a counter sample."""
    return [
        TraceEvent(1000.0, "engine.sched", "a/events", "event", 5, "send req=64"),
        TraceEvent(2000.0, "engine.fpc", "a/fpc0", "fpu", 5, "una=1 nxt=65",
                   dur_ps=8000.0),
        TraceEvent(3000.0, "engine.tx", "a/tx", "tx", 5, "ACK seq=1 len=64"),
        TraceEvent(4000.0, "engine.mem", "a/memmgr", "sample", -1,
                   {"resident": 3.0, "cache_hits": 10.0}),
    ]


class TestChromeTrace:
    def test_metadata_names_every_track(self, events):
        records = to_chrome_trace(events)
        meta = [r for r in records if r["ph"] == "M"]
        names = {r["args"]["name"] for r in meta}
        assert {"engine.sched", "engine.fpc", "engine.tx", "engine.mem"} <= names
        assert {"a/events", "a/fpc0", "a/tx", "a/memmgr"} <= names

    def test_phases_map_by_event_shape(self, events):
        records = to_chrome_trace(events)
        phases = {r["ph"] for r in records}
        # instants, complete (dur), counters, metadata, flow arrows
        assert {"i", "X", "C", "M", "s", "t", "f"} <= phases
        complete = [r for r in records if r["ph"] == "X"][0]
        assert complete["dur"] == pytest.approx(8000.0 / 1e6)
        counters = [r for r in records if r["ph"] == "C"]
        assert {c["name"] for c in counters} == {
            "a/memmgr.resident", "a/memmgr.cache_hits"
        }

    def test_timestamps_are_microseconds(self, events):
        records = to_chrome_trace(events)
        instants = [r for r in records if r["ph"] == "i"]
        assert instants[0]["ts"] == pytest.approx(1000.0 / 1e6)

    def test_flow_arrows_span_the_causality_chain(self, events):
        records = to_chrome_trace(events)
        arrows = [r for r in records if r["ph"] in ("s", "t", "f")]
        assert [a["ph"] for a in arrows] == ["s", "t", "f"]
        assert len({a["id"] for a in arrows}) == 1
        assert all(a["name"] == "flow5" for a in arrows)

    def test_write_and_load_round_trip(self, events, tmp_path):
        path = str(tmp_path / "trace.json")
        count = write_chrome_trace(path, events)
        records = load_chrome_trace(path)
        assert len(records) == count
        assert json.load(open(path)) == records

    def test_load_rejects_non_trace_json(self, tmp_path):
        path = str(tmp_path / "bad.json")
        with open(path, "w") as handle:
            json.dump({"not": "a trace"}, handle)
        with pytest.raises(ValueError, match="not a trace-event array"):
            load_chrome_trace(path)
        with open(path, "w") as handle:
            json.dump([{"missing": "ph"}], handle)
        with pytest.raises(ValueError, match="malformed"):
            load_chrome_trace(path)


class TestSummary:
    def test_per_component_breakdown(self, events):
        summaries = summarize_records(to_chrome_trace(events))
        by_component = {s.component: s for s in summaries}
        assert by_component["a/fpc0"].busy_us > 0
        assert by_component["a/fpc0"].kinds == {"fpu": 1}
        # the busiest component sorts first
        assert summaries[0].component == "a/fpc0"

    def test_counter_tracks_aggregate(self, events):
        summaries = summarize_records(to_chrome_trace(events))
        memmgr = next(s for s in summaries if s.component == "a/memmgr")
        count, total, peak = memmgr.counters["a/memmgr.resident"]
        assert (count, total, peak) == (1, 3.0, 3.0)

    def test_render_mentions_components_and_occupancy(self, events):
        text = render_summary(to_chrome_trace(events))
        assert "a/fpc0" in text
        assert "occupancy:" in text
        assert "a/memmgr.resident" in text

    def test_top_limits_rows(self, events):
        text = render_summary(to_chrome_trace(events), top=1)
        assert "a/fpc0" in text
        assert "a/tx" not in text.split("occupancy:")[0]


class TestTimelines:
    def test_flow_ids_skip_unscoped_events(self, events):
        assert flow_ids_in(to_chrome_trace(events)) == [5]

    def test_timeline_is_time_ordered_and_cross_layer(self, events):
        text = render_flow_timeline(to_chrome_trace(events), 5)
        lines = text.splitlines()
        assert len(lines) == 3
        assert "event" in lines[0] and "fpu" in lines[1] and "tx" in lines[2]
        assert "engine.sched" in lines[0] and "engine.tx" in lines[2]

    def test_timeline_limit(self, events):
        text = render_flow_timeline(to_chrome_trace(events), 5, limit=1)
        assert len(text.splitlines()) == 1

    def test_csv_flattens_events(self, events):
        csv = events_to_csv(to_chrome_trace(events))
        lines = csv.strip().splitlines()
        assert lines[0] == "ts_us,layer,component,kind,flow,dur_us,detail"
        assert len(lines) == 4  # header + event/fpu/tx (counters excluded)
        assert any("a/fpc0,fpu,5" in line for line in lines)
