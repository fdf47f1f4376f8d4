"""Trace exporters: Perfetto-loadable JSON, flow timelines, summaries.

The Chrome trace-event format (the JSON array flavour) is what
ui.perfetto.dev and ``chrome://tracing`` both load.  We map:

* **process** = layer (``engine.fpc``, ``engine.mem``, ``host``, ...),
* **thread**  = component (``a/fpc3``, ``b/memmgr``, ``load-engine``),
* instantaneous actions -> ``"i"`` (instant) events,
* actions with a known duration (FPU passes, cache-miss DRAM time,
  request latencies) -> ``"X"`` (complete) events,
* occupancy samples (dict details) -> ``"C"`` (counter) tracks,
* event->FPU->TX causality -> ``"s"``/``"t"``/``"f"`` flow arrows.

Everything in this module is pure functions over event lists, so the
CLI (``python -m repro obs``) can round-trip: export to JSON, then
``summary``/``flows`` parse the JSON back without the original run.
"""

from __future__ import annotations

import json
from collections import defaultdict
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from .trace import TraceBus, TraceEvent

#: Cap flow-arrow chains per export so a big trace stays loadable.
MAX_FLOW_ARROWS = 2000


# ---------------------------------------------------------------- chrome
def _track_ids(
    events: Sequence[TraceEvent],
) -> Tuple[Dict[str, int], Dict[Tuple[str, str], int]]:
    """Stable pid per layer and tid per (layer, component)."""
    pids: Dict[str, int] = {}
    tids: Dict[Tuple[str, str], int] = {}
    for event in events:
        if event.layer not in pids:
            pids[event.layer] = len(pids) + 1
        key = (event.layer, event.component)
        if key not in tids:
            tids[key] = len(tids) + 1
    return pids, tids


def _flow_arrows(
    events: Sequence[TraceEvent],
    pids: Dict[str, int],
    tids: Dict[Tuple[str, str], int],
) -> List[Dict[str, Any]]:
    """event -> fpu -> tx causality arrows, one chain per FPU pass.

    A chain is: the latest ``event`` submission for a flow, the next
    ``fpu`` pass of that flow, and the first ``tx`` at-or-after the
    pass.  This is exactly the control path's "request to packet"
    latency made visible.
    """
    by_flow: Dict[int, Dict[str, List[TraceEvent]]] = defaultdict(
        lambda: defaultdict(list)
    )
    for event in events:
        if event.flow_id >= 0 and event.kind in ("event", "fpu", "tx"):
            by_flow[event.flow_id][event.kind].append(event)

    arrows: List[Dict[str, Any]] = []
    chain_id = 0
    for flow_id in sorted(by_flow):
        kinds = by_flow[flow_id]
        tx_index = 0
        submit_index = 0
        for fpu in kinds["fpu"]:
            if len(arrows) >= 3 * MAX_FLOW_ARROWS:
                return arrows
            # Latest submission at or before the pass.
            submit: Optional[TraceEvent] = None
            while (
                submit_index < len(kinds["event"])
                and kinds["event"][submit_index].t_ps <= fpu.t_ps
            ):
                submit = kinds["event"][submit_index]
                submit_index += 1
            # First transmit at or after the pass.
            tx: Optional[TraceEvent] = None
            while tx_index < len(kinds["tx"]):
                candidate = kinds["tx"][tx_index]
                if candidate.t_ps >= fpu.t_ps:
                    tx = candidate
                    break
                tx_index += 1
            if submit is None or tx is None:
                continue
            chain_id += 1
            for phase, point in (("s", submit), ("t", fpu), ("f", tx)):
                arrows.append(
                    {
                        "name": f"flow{flow_id}",
                        "cat": "causality",
                        "ph": phase,
                        "id": chain_id,
                        "ts": point.t_ps / 1e6,
                        "pid": pids[point.layer],
                        "tid": tids[(point.layer, point.component)],
                        **({"bp": "e"} if phase == "f" else {}),
                    }
                )
    return arrows


def to_chrome_trace(events: Sequence[TraceEvent]) -> List[Dict[str, Any]]:
    """The trace as a Chrome trace-event array (``ts`` in microseconds),
    with one flow arrow chain per traced flow."""
    pids, tids = _track_ids(events)
    out: List[Dict[str, Any]] = []
    for layer, pid in pids.items():
        out.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": layer},
            }
        )
    for (layer, component), tid in tids.items():
        out.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pids[layer],
                "tid": tid,
                "args": {"name": component},
            }
        )
    for event in events:
        pid = pids[event.layer]
        tid = tids[(event.layer, event.component)]
        ts_us = event.t_ps / 1e6
        if isinstance(event.detail, dict):
            # Occupancy sample: one counter track per metric name.
            for name in sorted(event.detail):
                out.append(
                    {
                        "name": f"{event.component}.{name}",
                        "cat": event.layer,
                        "ph": "C",
                        "ts": ts_us,
                        "pid": pid,
                        "tid": tid,
                        "args": {"value": event.detail[name]},
                    }
                )
            continue
        record: Dict[str, Any] = {
            "name": event.kind,
            "cat": event.layer,
            "ts": ts_us,
            "pid": pid,
            "tid": tid,
            "args": {"flow": event.flow_id, "detail": str(event.detail)},
        }
        if event.dur_ps > 0:
            record["ph"] = "X"
            record["dur"] = event.dur_ps / 1e6
        else:
            record["ph"] = "i"
            record["s"] = "t"  # thread-scoped instant
        out.append(record)
    out.extend(_flow_arrows(events, pids, tids))
    return out


def write_chrome_trace(path: str, events: Sequence[TraceEvent]) -> int:
    """Write the Perfetto-loadable JSON; returns the record count."""
    records = to_chrome_trace(events)
    with open(path, "w") as handle:
        json.dump(records, handle)
    return len(records)


def save_trace(path: str, bus: TraceBus) -> None:
    """The ``--trace PATH`` sink of every ``run`` verb: write the bus
    and tell the user how to look at it."""
    write_chrome_trace(path, bus.events)
    dropped = f", {bus.dropped} dropped" if bus.dropped else ""
    print(f"wrote {path} ({len(bus.events)} events{dropped}; "
          f"load into https://ui.perfetto.dev, or: "
          f"python -m repro obs summary {path})")


# ----------------------------------------------------- reading JSON back
def load_chrome_trace(path: str) -> List[Dict[str, Any]]:
    """Load and validate a trace-event array (what the CLI consumes)."""
    with open(path) as handle:
        records = json.load(handle)
    if not isinstance(records, list):
        raise ValueError(f"{path}: not a trace-event array")
    for record in records:
        if not isinstance(record, dict) or "ph" not in record:
            raise ValueError(f"{path}: malformed trace-event record: {record!r}")
    return records


def _tracks(records: Iterable[Dict[str, Any]]) -> Dict[Tuple[int, int], Tuple[str, str]]:
    """(pid, tid) -> (layer, component) from the metadata events."""
    processes: Dict[int, str] = {}
    threads: Dict[Tuple[int, int], str] = {}
    for record in records:
        if record.get("ph") != "M":
            continue
        if record.get("name") == "process_name":
            processes[record["pid"]] = record["args"]["name"]
        elif record.get("name") == "thread_name":
            threads[(record["pid"], record["tid"])] = record["args"]["name"]
    return {
        key: (processes.get(key[0], f"pid{key[0]}"), name)
        for key, name in threads.items()
    }


# -------------------------------------------------------------- summary
class ComponentSummary:
    """Aggregate view of one component's activity in a trace."""

    __slots__ = (
        "layer", "component", "events", "busy_us", "first_us", "last_us",
        "kinds", "counters",
    )

    def __init__(self, layer: str, component: str) -> None:
        self.layer = layer
        self.component = component
        self.events = 0
        self.busy_us = 0.0
        self.first_us = float("inf")
        self.last_us = 0.0
        self.kinds: Dict[str, int] = {}
        #: counter-track name -> (samples, sum, max)
        self.counters: Dict[str, List[float]] = {}

    @property
    def span_us(self) -> float:
        return max(0.0, self.last_us - self.first_us)

    def top_kinds(self) -> str:
        """The three most frequent event kinds, ``kind:count`` each."""
        ranked = sorted(self.kinds.items(), key=lambda kv: (-kv[1], kv[0]))
        return " ".join(f"{kind}:{count}" for kind, count in ranked[:3])


def summarize_records(records: Sequence[Dict[str, Any]]) -> List[ComponentSummary]:
    """Per-component breakdown of a loaded trace-event array."""
    tracks = _tracks(records)
    summaries: Dict[Tuple[int, int], ComponentSummary] = {}
    for record in records:
        ph = record.get("ph")
        if ph in ("M", "s", "t", "f"):
            continue
        key = (record.get("pid", 0), record.get("tid", 0))
        layer, component = tracks.get(key, (f"pid{key[0]}", f"tid{key[1]}"))
        summary = summaries.get(key)
        if summary is None:
            summary = summaries[key] = ComponentSummary(layer, component)
        ts = float(record.get("ts", 0.0))
        summary.first_us = min(summary.first_us, ts)
        summary.last_us = max(summary.last_us, ts)
        if ph == "C":
            name = record.get("name", "counter")
            value = float(record.get("args", {}).get("value", 0.0))
            stats = summary.counters.setdefault(name, [0.0, 0.0, 0.0])
            stats[0] += 1
            stats[1] += value
            stats[2] = max(stats[2], value)
            continue
        summary.events += 1
        kind = record.get("name", "?")
        summary.kinds[kind] = summary.kinds.get(kind, 0) + 1
        if ph == "X":
            summary.busy_us += float(record.get("dur", 0.0))
    ordered = sorted(
        summaries.values(), key=lambda s: (-s.busy_us, -s.events, s.component)
    )
    return ordered


def render_summary(records: Sequence[Dict[str, Any]], top: int = 0) -> str:
    """The "where did the time go" table, busiest components first."""
    from ..analysis.reporting import render_table

    summaries = summarize_records(records)
    if top:
        summaries = summaries[:top]
    total_busy = sum(s.busy_us for s in summaries) or float("nan")
    rows = []
    for s in summaries:
        rows.append(
            [
                s.layer,
                s.component,
                s.events,
                f"{s.busy_us:.1f}",
                f"{100 * s.busy_us / total_busy:.1f}" if s.busy_us else "-",
                f"{s.span_us:.1f}",
                s.top_kinds(),
            ]
        )
    table = render_table(
        ["layer", "component", "events", "busy_us", "busy_%", "span_us", "top kinds"],
        rows,
    )
    counter_lines = []
    for s in summarize_records(records):
        for name, (count, total, peak) in sorted(s.counters.items()):
            counter_lines.append(
                f"  {s.layer}/{name}: mean {total / max(count, 1):.2f}, "
                f"peak {peak:g} over {int(count)} samples"
            )
    if counter_lines:
        table += "\noccupancy:\n" + "\n".join(counter_lines)
    return table


# -------------------------------------------------------------- timelines
def flow_ids_in(records: Sequence[Dict[str, Any]]) -> List[int]:
    flows = {
        record["args"]["flow"]
        for record in records
        if record.get("ph") in ("i", "X")
        and isinstance(record.get("args"), dict)
        and isinstance(record["args"].get("flow"), int)
        and record["args"]["flow"] >= 0
    }
    return sorted(flows)


def render_flow_timeline(
    records: Sequence[Dict[str, Any]], flow_id: int, limit: int = 0
) -> str:
    """One flow's life as a cross-layer text timeline, reconstructed
    from the exported JSON."""
    tracks = _tracks(records)
    lines = []
    selected = [
        record
        for record in records
        if record.get("ph") in ("i", "X")
        and isinstance(record.get("args"), dict)
        and record["args"].get("flow") == flow_id
    ]
    selected.sort(key=lambda record: float(record.get("ts", 0.0)))
    if limit:
        selected = selected[:limit]
    for record in selected:
        key = (record.get("pid", 0), record.get("tid", 0))
        layer, component = tracks.get(key, ("?", "?"))
        detail = record["args"].get("detail", "")
        lines.append(
            f"{float(record.get('ts', 0.0)):10.2f}us  {layer:12s} "
            f"{component:14s} {record.get('name', '?'):8s} {detail}"
        )
    return "\n".join(lines)


def events_to_csv(records: Sequence[Dict[str, Any]]) -> str:
    """Flat CSV of the trace's instant/complete events, for spreadsheets."""
    tracks = _tracks(records)
    lines = ["ts_us,layer,component,kind,flow,dur_us,detail"]
    for record in records:
        if record.get("ph") not in ("i", "X"):
            continue
        key = (record.get("pid", 0), record.get("tid", 0))
        layer, component = tracks.get(key, ("?", "?"))
        args = record.get("args", {})
        detail = str(args.get("detail", "")).replace(",", ";").replace("\n", " ")
        lines.append(
            f"{float(record.get('ts', 0.0)):.3f},{layer},{component},"
            f"{record.get('name', '?')},{args.get('flow', -1)},"
            f"{float(record.get('dur', 0.0)):.3f},{detail}"
        )
    return "\n".join(lines) + "\n"
