"""repro.obs — full-stack observability for the simulated F4T stack.

Three pieces, composable and individually optional:

* :mod:`~repro.obs.metrics` — a labeled registry of counters, gauges and
  histograms with snapshot / delta / merge and CSV/JSON export;
* :mod:`~repro.obs.trace` — an append-only structured event bus with
  per-layer masks, per-flow filters and bounded sampling;
* :mod:`~repro.obs.export` — Chrome trace-event JSON (Perfetto-loadable),
  per-flow text timelines, and "where did the time go" summaries.

:mod:`~repro.obs.hooks` wires a bus into a live engine/testbed/load
engine; :mod:`~repro.obs.collect` lifts a finished run's counters into a
registry.  Everything is near-zero cost when not attached: instrumented
components guard each emit site on ``self.trace is not None``.
"""

from .collect import (
    collect_engine,
    collect_scenario_result,
    collect_testbed,
    collect_traced_run,
)
from .export import (
    events_to_csv,
    flow_ids_in,
    load_chrome_trace,
    render_flow_timeline,
    render_summary,
    save_trace,
    summarize_records,
    to_chrome_trace,
    write_chrome_trace,
)
from .hooks import (
    attach_engine,
    attach_load_engine,
    attach_testbed,
    sample_occupancy,
)
from .metrics import (
    Counter,
    Gauge,
    HistogramMetric,
    MetricsRegistry,
    MetricsSnapshot,
    format_labels,
)
from .trace import (
    ALL_LAYERS,
    DEFAULT_MAX_EVENTS,
    ENGINE_LAYERS,
    StreamingFingerprint,
    TraceBus,
    TraceEvent,
    expand_layers,
    fingerprint,
    merge_fingerprints,
)

__all__ = [
    "ALL_LAYERS",
    "DEFAULT_MAX_EVENTS",
    "ENGINE_LAYERS",
    "Counter",
    "Gauge",
    "HistogramMetric",
    "MetricsRegistry",
    "MetricsSnapshot",
    "StreamingFingerprint",
    "TraceBus",
    "TraceEvent",
    "attach_engine",
    "attach_load_engine",
    "attach_testbed",
    "collect_engine",
    "collect_scenario_result",
    "collect_testbed",
    "collect_traced_run",
    "events_to_csv",
    "expand_layers",
    "fingerprint",
    "flow_ids_in",
    "format_labels",
    "load_chrome_trace",
    "merge_fingerprints",
    "render_flow_timeline",
    "render_summary",
    "sample_occupancy",
    "save_trace",
    "summarize_records",
    "to_chrome_trace",
    "write_chrome_trace",
]
