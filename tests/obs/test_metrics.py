"""The labeled metrics registry: instruments, snapshots, export."""

import json
import math

import pytest

from repro.obs.metrics import MetricsRegistry, format_labels


class TestInstruments:
    def test_labels_distinguish_instruments(self):
        registry = MetricsRegistry()
        registry.counter("frames", engine="a").set_total(1)
        registry.counter("frames", engine="b").set_total(2)
        snapshot = registry.snapshot()
        assert snapshot.value("frames", engine="a") == 1
        assert snapshot.value("frames", engine="b") == 2

    def test_gauge_keeps_last_value(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("depth")
        gauge.set(7)
        gauge.set(9)
        assert registry.snapshot().value("depth") == 9

    def test_histogram_flattens_to_stats(self):
        registry = MetricsRegistry()
        hist = registry.histogram("latency_s", cls="rpc")
        for value in (1.0, 2.0, 3.0):
            hist.observe(value)
        snapshot = registry.snapshot()
        assert snapshot.value("latency_s", cls="rpc", stat="count") == 3
        assert snapshot.value("latency_s", cls="rpc", stat="mean") == pytest.approx(2.0)
        assert snapshot.value("latency_s", cls="rpc", stat="max") == 3.0

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")



class TestSnapshot:
    def test_csv_has_header_and_labeled_rows(self):
        registry = MetricsRegistry()
        registry.counter("frames", engine="a").set_total(3)
        csv = registry.snapshot().to_csv()
        lines = csv.strip().splitlines()
        assert lines[0] == "name,kind,labels,value"
        assert "frames,counter,engine=a,3" in lines[1]

    def test_json_round_trip(self):
        registry = MetricsRegistry()
        registry.counter("frames", engine="a").set_total(3)
        registry.histogram("latency_s").observe(1.5)
        snapshot = registry.snapshot()
        back = [
            (row["name"], row["kind"], row["labels"], row["value"])
            for row in json.loads(snapshot.to_json())
        ]
        assert back == snapshot.rows

    def test_empty_histogram_snapshots_nan_not_error(self):
        registry = MetricsRegistry()
        registry.histogram("latency_s")
        snapshot = registry.snapshot()
        assert snapshot.value("latency_s", stat="count") == 0
        assert math.isnan(snapshot.value("latency_s", stat="p99"))

    def test_as_dict_names_carry_labels(self):
        """Each snapshot row carries its metric's name with its labels;
        an unlabeled metric has none."""
        registry = MetricsRegistry()
        registry.counter("frames", engine="a").set_total(1)
        registry.counter("total").set_total(1)
        rows = {(name, format_labels(labels)): value
                for name, _kind, labels, value in registry.snapshot()}
        assert rows == {("frames", "engine=a"): 1, ("total", ""): 1}


class TestLabels:
    def test_format_is_sorted_and_parseable(self):
        labels = {"engine": "a", "cls": "rpc"}
        text = format_labels(labels)
        assert text == "cls=rpc;engine=a"

    def test_empty_labels(self):
        assert format_labels({}) == ""
