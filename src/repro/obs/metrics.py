"""The metrics registry: labeled counters, gauges and histograms.

:mod:`repro.sim.stats` gives each component its own unlabeled bag of
numbers; great inside one module, useless across a run that spans two
engines, their host queues and a traffic generator.  The registry is the
cross-layer view: every instrument is a ``(name, labels)`` pair (think
Prometheus), so ``cache_misses{engine=a}`` and ``cache_misses{engine=b}``
coexist, and a sweep can merge per-run registries into one.

The registry *wraps* the sim.stats primitives rather than replacing
them — components keep their cheap local bags and histograms, and
:meth:`MetricsRegistry.ingest_scalars` / ``ingest_histogram`` lift them
into labeled metrics at snapshot time (histograms delegate their
percentile math to :class:`~repro.sim.stats.Histogram`).

Snapshots are plain rows (name, kind, labels, value), exportable as
CSV or JSON.
"""

from __future__ import annotations

import json
import math
from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple

from ..sim.stats import Histogram

#: A frozen, hashable label set: (("engine","a"), ("class","rpc")).
LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Mapping[str, str]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def format_labels(labels: Mapping[str, str]) -> str:
    """``engine=a;class=rpc`` — the CSV/JSON wire form, sorted, stable."""
    return ";".join(f"{k}={v}" for k, v in _label_key(labels))


class Counter:
    """Labeled counter, ingested as a total: the sim.stats bags count
    from the component's own start of time."""

    kind = "counter"

    def __init__(self) -> None:
        self.value = 0.0

    def set_total(self, value: float) -> None:
        self.value = float(value)


class Gauge:
    """Last-written labeled value (occupancy, depth, ratio)."""

    kind = "gauge"

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


#: The stats a histogram flattens into at snapshot time.
HISTOGRAM_STATS = ("count", "mean", "p50", "p99", "max")


class HistogramMetric:
    """Labeled sample store; percentile math lives in sim.stats."""

    kind = "histogram"

    def __init__(self) -> None:
        self.histogram = Histogram()

    def observe(self, value: float) -> None:
        self.histogram.record(value)

    def stats(self) -> Dict[str, float]:
        h = self.histogram
        return {
            "count": float(len(h)),
            "mean": h.mean,
            "p50": h.median,
            "p99": h.p99,
            "max": h.max,
        }


class MetricsSnapshot:
    """A frozen numeric view of a registry: rows of (name, kind, labels, value)."""

    def __init__(self, rows: List[Tuple[str, str, Dict[str, str], float]]) -> None:
        self.rows = rows

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[Tuple[str, str, Dict[str, str], float]]:
        return iter(self.rows)

    def value(self, name: str, **labels: str) -> Optional[float]:
        key = _label_key(labels)
        for row_name, _kind, row_labels, value in self.rows:
            if row_name == name and _label_key(row_labels) == key:
                return value
        return None

    def as_dict(self) -> Dict[str, float]:
        """``name{labels}`` -> value, for quick asserts and JSON scalars."""
        out: Dict[str, float] = {}
        for name, _kind, labels, value in self.rows:
            suffix = format_labels(labels)
            out[f"{name}{{{suffix}}}" if suffix else name] = value
        return out

    # ------------------------------------------------------------- export
    def to_csv(self) -> str:
        lines = ["name,kind,labels,value"]
        for name, kind, labels, value in self.rows:
            rendered = (
                f"{value:.9g}" if isinstance(value, float) else str(value)
            )
            lines.append(f"{name},{kind},{format_labels(labels)},{rendered}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        return json.dumps(
            [
                {"name": name, "kind": kind, "labels": labels, "value": value}
                for name, kind, labels, value in self.rows
            ],
            sort_keys=True,
        )


class MetricsRegistry:
    """All of a run's instruments, keyed by name + labels."""

    def __init__(self) -> None:
        self._instruments: Dict[Tuple[str, LabelKey], Any] = {}

    def __len__(self) -> int:
        return len(self._instruments)

    def _get(self, factory: type, name: str, labels: Mapping[str, str]) -> Any:
        key = (name, _label_key(labels))
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = factory()
            self._instruments[key] = instrument
        elif not isinstance(instrument, factory):
            raise TypeError(
                f"metric {name!r}{dict(labels)!r} already registered as "
                f"{instrument.kind}, not {factory.kind}"
            )
        return instrument

    def counter(self, name: str, **labels: str) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: str) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, **labels: str) -> HistogramMetric:
        return self._get(HistogramMetric, name, labels)

    def ingest_scalars(self, scalars: Mapping[str, float], **labels: str) -> None:
        for name, value in scalars.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            if isinstance(value, float) and not math.isfinite(value):
                continue
            self.counter(name, **labels).set_total(float(value))

    def ingest_histogram(
        self, histogram: Histogram, name: str, **labels: str
    ) -> None:
        metric = self.histogram(name, **labels)
        for sample in histogram.samples:
            metric.observe(sample)

    # ------------------------------------------------------------ snapshot
    def snapshot(self) -> MetricsSnapshot:
        rows: List[Tuple[str, str, Dict[str, str], float]] = []
        for (name, key), instrument in sorted(
            self._instruments.items(), key=lambda item: item[0]
        ):
            labels = dict(key)
            if isinstance(instrument, HistogramMetric):
                stats = instrument.stats()
                for stat in HISTOGRAM_STATS:
                    stat_labels = dict(labels)
                    stat_labels["stat"] = stat
                    rows.append((name, "histogram", stat_labels, stats[stat]))
            else:
                rows.append((name, instrument.kind, labels, instrument.value))
        return MetricsSnapshot(rows)
