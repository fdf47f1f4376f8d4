"""Metric collectors: assemble a labeled registry from a finished run.

The components keep their cheap local instruments (count dicts, plain
ints); these functions lift them into one
:class:`~repro.obs.metrics.MetricsRegistry` with ``engine=a/b`` and
``component=...`` labels at collection time, so collecting costs nothing
during the run and the registry is the single export surface.
"""

from __future__ import annotations

from .metrics import MetricsRegistry


def collect_engine(registry: MetricsRegistry, engine, name: str) -> None:
    """Every module-level statistic of one FtEngine, labeled."""
    for section, values in engine.stats_report().items():
        if section == "fpcs":
            for fpc_name, fpc_values in values.items():
                registry.ingest_scalars(
                    fpc_values, engine=name, component=fpc_name
                )
            continue
        registry.ingest_scalars(values, engine=name, component=section)


def collect_testbed(registry: MetricsRegistry, testbed) -> None:
    collect_engine(registry, testbed.engine_a, "a")
    collect_engine(registry, testbed.engine_b, "b")
    registry.ingest_scalars(
        {
            "frames_sent": testbed.wire.frames_sent,
            "frames_dropped": testbed.wire.frames_dropped,
            "bytes_sent": testbed.wire.bytes_sent,
        },
        component="wire",
    )


def collect_scenario_result(registry: MetricsRegistry, result) -> None:
    """Per-class traffic metrics of one ScenarioResult."""
    for name, metrics in result.classes.items():
        registry.ingest_scalars(
            {
                "offered": metrics.offered,
                "completed": metrics.completed,
                "bytes_delivered": metrics.bytes_delivered,
                "connections_opened": metrics.connections_opened,
                "connections_closed": metrics.connections_closed,
            },
            component="traffic",
            cls=name,
        )
        registry.gauge("achieved_rps", component="traffic", cls=name).set(
            metrics.achieved_rps
        )
        registry.gauge("goodput_gbps", component="traffic", cls=name).set(
            metrics.goodput_gbps
        )
        registry.ingest_histogram(
            metrics.latencies, "latency_s", component="traffic", cls=name
        )
        if len(metrics.lifecycle):
            registry.ingest_histogram(
                metrics.lifecycle, "lifecycle_s", component="traffic", cls=name
            )
    registry.gauge("elapsed_s", component="traffic").set(result.elapsed_s)
    registry.counter("violations", component="traffic").set_total(
        len(result.violations)
    )


def collect_traced_run(testbed, result=None) -> MetricsRegistry:
    """The whole picture of one functional run, one call."""
    registry = MetricsRegistry()
    collect_testbed(registry, testbed)
    if result is not None:
        collect_scenario_result(registry, result)
    return registry
