"""``python -m repro obs`` — inspect exported traces without the run.

Subcommands operate on the Chrome trace-event JSON that
``python -m repro traffic run --trace out.json`` writes:

* ``summary``  — per-component time/occupancy breakdown, busiest first;
* ``flows``    — list traced flows, or print one flow's text timeline;
* ``export``   — convert the JSON to a flat CSV or a full text timeline.
"""

from __future__ import annotations

import argparse
import sys
from typing import List

from ..cli import add_group, emit
from .export import (
    events_to_csv,
    flow_ids_in,
    load_chrome_trace,
    render_flow_timeline,
    render_summary,
)


def _load(path: str) -> List[dict]:
    try:
        return load_chrome_trace(path)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"obs: {exc}")


def cmd_summary(args: argparse.Namespace) -> int:
    records = _load(args.trace)
    print(render_summary(records, top=args.top))
    return 0


def cmd_flows(args: argparse.Namespace) -> int:
    records = _load(args.trace)
    if args.flow is None:
        flows = flow_ids_in(records)
        print(f"{len(flows)} traced flow(s): "
              + " ".join(str(flow) for flow in flows[:64])
              + (" ..." if len(flows) > 64 else ""))
        return 0
    timeline = render_flow_timeline(records, args.flow, limit=args.limit)
    if not timeline:
        print(f"flow {args.flow}: no events in {args.trace}", file=sys.stderr)
        return 1
    print(timeline)
    return 0


def cmd_export(args: argparse.Namespace) -> int:
    records = _load(args.trace)
    if args.csv is not None:
        text = events_to_csv(records)
        destination = args.csv
    else:
        lines = []
        for flow_id in flow_ids_in(records):
            lines.append(f"== flow {flow_id} ==")
            lines.append(render_flow_timeline(records, flow_id))
        text = "\n".join(lines) + "\n"
        destination = args.timeline or "-"
    emit(text, destination)
    return 0


def add_obs_parser(subparsers: argparse._SubParsersAction) -> None:
    obs_sub = add_group(
        subparsers, "obs", help="inspect exported traces (repro.obs)"
    )

    summary = obs_sub.add_parser(
        "summary", help="per-component time/occupancy breakdown"
    )
    summary.add_argument("trace", help="Chrome trace-event JSON (from --trace)")
    summary.add_argument("--top", type=int, default=0,
                         help="only the N busiest components")
    summary.set_defaults(handler=cmd_summary)

    flows = obs_sub.add_parser("flows", help="per-flow text timelines")
    flows.add_argument("trace", help="Chrome trace-event JSON (from --trace)")
    flows.add_argument("--flow", type=int, default=None,
                       help="print this flow's timeline (default: list flows)")
    flows.add_argument("--limit", type=int, default=0,
                       help="cap timeline lines (0 = all)")
    flows.set_defaults(handler=cmd_flows)

    export = obs_sub.add_parser(
        "export", help="convert a trace to CSV or text timelines"
    )
    export.add_argument("trace", help="Chrome trace-event JSON (from --trace)")
    export.add_argument("--csv", metavar="PATH",
                        help="flat event CSV ('-' = stdout)")
    export.add_argument("--timeline", metavar="PATH",
                        help="all flows as text timelines ('-' = stdout)")
    export.set_defaults(handler=cmd_export)
