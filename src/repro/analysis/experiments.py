"""Experiment drivers: one function per table/figure of the paper.

Each ``run_*`` regenerates the rows/series its exhibit reports and
returns an :class:`~repro.analysis.reporting.ExperimentResult` whose
``checks`` compare headline scalars against the paper's numbers.  The
``method`` field says which mechanism produced the data (DESIGN.md §4):
cycle simulation, functional protocol execution, or calibrated models.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from .. import Registry
from ..apps.echo import EchoModel
from ..apps.iperf import BulkTransferModel
from ..apps.nginx import NginxPerformanceModel, simulate_closed_loop
from ..engine.ftengine import ENGINE_FREQ_HZ, FtEngineConfig
from ..engine.resources import ftengine_cost, utilization_table
from ..host.calibration import (
    COMMAND_BYTES_DEFAULT,
    COMMAND_BYTES_SIMPLIFIED,
    F4T_CYCLES_PER_SEND_BULK,
    F4T_CYCLES_PER_SEND_RR,
    F4T_HEADER_OFFERED_BULK,
    F4T_HEADER_OFFERED_RR,
    F4T_HEADER_RATE_PER_CORE,
    FPC_EVENTS_PER_SECOND,
    LINUX_LATENCY_MEDIAN_RATIO,
    LINUX_LATENCY_P99_RATIO,
    NGINX_LINUX_TCP_FRACTION,
)
from ..host.cpu import CpuModel
from ..host.linux_stack import LinuxTcpStack
from ..host.pcie import PcieModel
from ..net.link import LINK_100G
from ..tcp.congestion import available_algorithms
from .cwnd import (
    capture_engine_cwnd_trace,
    compare_traces,
    reference_cwnd_trace,
)
from .microbench import (
    HeaderRateDesign,
    measure_baseline_event_rate,
    measure_fpc_event_rate,
    measure_header_rate,
)
from .reporting import ExperimentResult

MRPS = 1e6


# ----------------------------------------------------------------- Table 1
def run_table1() -> ExperimentResult:
    """Table 1: qualitative summary of TCP implementations."""
    config = FtEngineConfig()
    f4t_connectivity = "64K+"  # SRAM flows + DRAM-resident TCBs (§4.3)
    rows = [
        ("Host CPUs", "poor (37% to TCP)", "64K+", "limited versatility"),
        ("Embedded processors", "limited improvement", "64K+", "limited versatility"),
        ("ASICs", "good", "64K+", "none"),
        ("Existing FPGAs", "good", "1K", "limited versatility"),
        (
            "F4T",
            "good (2 cores @ 100G)",
            f4t_connectivity,
            f"full ({len(available_algorithms())} CC algorithms registered)",
        ),
    ]
    result = ExperimentResult(
        exhibit="Table 1",
        title="Summary of existing TCP implementations",
        columns=["stack", "host CPU util.", "connectivity", "flexibility"],
        rows=rows,
        method="calibrated + model capabilities",
    )
    result.check(
        "F4T SRAM-resident flows",
        paper=1024,
        measured=config.sram_flow_capacity,
        tolerance=0.01,
    )
    return result


# ----------------------------------------------------------------- Figure 1
def run_figure1() -> ExperimentResult:
    """Fig 1: Nginx on Linux — CPU breakdown and request rate."""
    breakdown = NginxPerformanceModel().cycle_breakdown("linux").fractions()
    rows = [
        ("cpu-fraction", name, round(fraction, 3), "")
        for name, fraction in sorted(breakdown.items())
    ]
    for cores in (1, 2, 4, 8, 24):
        stack = LinuxTcpStack(CpuModel(cores=cores))
        rows.append(
            ("nginx-rate", f"{cores} cores", round(stack.nginx_request_rate() / MRPS, 3), "Mrps")
        )
    result = ExperimentResult(
        exhibit="Figure 1",
        title="CPU utilization and performance of Nginx on Linux",
        columns=["series", "point", "value", "unit"],
        rows=rows,
        method="calibrated",
    )
    result.check(
        "TCP share of Nginx cycles",
        paper=0.37,
        measured=breakdown["tcp_stack"],
        tolerance=0.02,
    )
    result.notes.append(
        "Fig 1b's qualitative claim — Nginx reaches only a few Mrps on a "
        "whole dual-socket machine — corresponds to the 24-core row."
    )
    return result


# ----------------------------------------------------------------- Figure 2
def run_figure2() -> ExperimentResult:
    """Fig 2: bulk throughput of w-RMW vs w/o-RMW designs (cycle sim)."""
    w_rmw_rate = measure_baseline_event_rate(stall_cycles=17, freq_hz=322e6)
    wo_rmw_rate = measure_baseline_event_rate(stall_cycles=1, freq_hz=100e6)
    rows = []
    for size in (16, 32, 64, 128, 256, 512, 1024, 2048, 4096):
        w = w_rmw_rate * size * 8 / 1e9
        wo = wo_rmw_rate * size * 8 / 1e9
        rows.append((size, round(w, 2), round(wo, 2), round(wo / w, 1)))
    result = ExperimentResult(
        exhibit="Figure 2",
        title="Bulk data transfer: w-RMW (17-cycle stall @322MHz) vs w/o-RMW (1/cycle @100MHz)",
        columns=["request B", "w-RMW Gbps", "w/o-RMW Gbps", "gap"],
        rows=rows,
        method="simulated",
    )
    result.check("w-RMW event rate (322MHz/17)", paper=18.9e6, measured=w_rmw_rate, tolerance=0.05)
    result.check("w/o-RMW event rate (100MHz)", paper=100e6, measured=wo_rmw_rate, tolerance=0.05)
    result.check(
        "w/o-RMW saturates 100G at 128B",
        paper=100.0,
        measured=min(100.0, wo_rmw_rate * 128 * 8 / 1e9),
        tolerance=0.05,
    )
    return result


# ----------------------------------------------------------------- Figure 7
def run_figure7() -> ExperimentResult:
    """Fig 7b: FPGA resource utilization of FtEngine."""
    rows = [
        (row["design"], row["lut_pct"], row["ff_pct"], row["bram_pct"])
        for row in utilization_table([1, 8])
    ]
    result = ExperimentResult(
        exhibit="Figure 7b",
        title="Resource utilization on the Xilinx U280",
        columns=["design", "LUT %", "FF %", "BRAM %"],
        rows=rows,
        method="calibrated (analytic resource model; no Vivado available)",
    )
    lut1, ff1, bram1 = ftengine_cost(1).utilization()
    lut8, ff8, bram8 = ftengine_cost(8).utilization()
    result.check("1 FPC LUT%", paper=16.0, measured=lut1, tolerance=0.08)
    result.check("1 FPC FF%", paper=11.0, measured=ff1, tolerance=0.08)
    result.check("1 FPC BRAM%", paper=27.0, measured=bram1, tolerance=0.08)
    result.check("8 FPC LUT%", paper=23.0, measured=lut8, tolerance=0.08)
    result.check("8 FPC FF%", paper=15.0, measured=ff8, tolerance=0.08)
    result.check("8 FPC BRAM%", paper=32.0, measured=bram8, tolerance=0.08)
    return result


# ----------------------------------------------------------------- Figure 8
def run_figure8() -> ExperimentResult:
    """Fig 8: bulk + round-robin throughput, Linux vs F4T, 64/128 B."""
    rows: List[tuple] = []
    f4t_points: Dict[tuple, float] = {}
    for pattern in ("bulk", "round-robin"):
        for size in (64, 128):
            for cores in (1, 2, 4, 8):
                linux = LinuxTcpStack(CpuModel(cores=cores))
                if pattern == "bulk":
                    linux_gbps = linux.bulk_goodput_gbps(size)
                    cycles = F4T_CYCLES_PER_SEND_BULK
                else:
                    linux_gbps = (
                        linux.round_robin_request_rate(size) * size * 8 / 1e9
                    )
                    cycles = F4T_CYCLES_PER_SEND_RR
                f4t = BulkTransferModel(
                    cores=cores, cycles_per_send=cycles
                ).request_rate(size)
                f4t_points[(pattern, size, cores)] = f4t.goodput_gbps
                rows.append(
                    (
                        pattern,
                        size,
                        cores,
                        round(linux_gbps, 2),
                        round(f4t.goodput_gbps, 1),
                        round(f4t.requests_per_s / MRPS, 1),
                        f4t.bottleneck,
                    )
                )
    result = ExperimentResult(
        exhibit="Figure 8",
        title="Throughput with bulk and round-robin request patterns",
        columns=["pattern", "req B", "cores", "Linux Gbps", "F4T Gbps", "F4T Mrps", "F4T bound"],
        rows=rows,
        method="calibrated (software/PCIe/link) + simulated engine",
    )
    result.check("F4T bulk 128B 1 core Gbps", 45.0, f4t_points[("bulk", 128, 1)])
    result.check("F4T bulk 128B 2 cores Gbps", 87.0, f4t_points[("bulk", 128, 2)])
    result.check("F4T bulk 64B 8 cores Gbps", 89.7, f4t_points[("bulk", 64, 8)])
    result.check("F4T rr 128B 1 core Gbps", 35.0, f4t_points[("round-robin", 128, 1)])
    result.check("F4T rr 128B 2 cores Gbps", 63.0, f4t_points[("round-robin", 128, 2)])
    result.check("F4T rr 128B 8 cores Gbps", 90.0, f4t_points[("round-robin", 128, 8)])
    linux8 = LinuxTcpStack(CpuModel(cores=8))
    result.check("Linux bulk 128B 8 cores Gbps", 8.3, linux8.bulk_goodput_gbps(128))
    result.check(
        "Linux rr 128B 1 core Gbps",
        0.126,
        LinuxTcpStack(CpuModel(cores=1)).round_robin_request_rate(128) * 128 * 8 / 1e9,
    )
    return result


# ----------------------------------------------------------------- Figure 9
def run_figure9() -> ExperimentResult:
    """Fig 9: bulk transfer across request sizes; PCIe-bound small end."""
    rows = []
    target = None
    for size in (16, 32, 64, 128, 256, 512, 1024):
        for cores in (1, 2, 4, 8, 16):
            point = BulkTransferModel(cores=cores).request_rate(size)
            rows.append(
                (
                    size,
                    cores,
                    round(point.goodput_gbps, 1),
                    round(point.requests_per_s / MRPS, 1),
                    point.bottleneck,
                )
            )
            if size == 16 and cores == 16:
                target = point
    result = ExperimentResult(
        exhibit="Figure 9",
        title="Bulk data transfer with various request sizes",
        columns=["req B", "cores", "Gbps", "Mrps", "bound"],
        rows=rows,
        method="calibrated (software/PCIe/link) + simulated engine",
    )
    assert target is not None
    result.check("16B @16 cores Mrps", 396.0, target.requests_per_s / MRPS)
    result.check("16B @16 cores Gbps", 50.7, target.goodput_gbps)
    result.check(
        "16B bound is PCIe", paper=1.0, measured=1.0 if target.bottleneck == "pcie" else 0.0, tolerance=0.0
    )
    return result


# ---------------------------------------------------------------- Figure 10
def run_figure10(quick: bool = False) -> ExperimentResult:
    """Fig 10: Nginx request rate vs concurrent flows, 1-4 cores."""
    rows = []
    ratios = {}
    requests = 20_000 if quick else 60_000
    flow_points = (16, 64, 256) if quick else (4, 16, 64, 128, 256)
    for cores in (1, 2, 4):
        for flows in flow_points:
            linux_rate, _ = simulate_closed_loop(
                "linux", flows=flows, cores=cores, think_s=0.28e-3, requests=requests
            )
            f4t_rate, _ = simulate_closed_loop(
                "f4t", flows=flows, cores=cores, think_s=0.28e-3, requests=requests
            )
            rows.append(
                (
                    cores,
                    flows,
                    round(linux_rate / 1e3, 1),
                    round(f4t_rate / 1e3, 1),
                    round(f4t_rate / linux_rate, 2),
                )
            )
            ratios[(cores, flows)] = f4t_rate / linux_rate
    result = ExperimentResult(
        exhibit="Figure 10",
        title="Request processing rate of Nginx (closed loop)",
        columns=["cores", "flows", "Linux Krps", "F4T Krps", "speedup"],
        rows=rows,
        method="calibrated closed-loop simulation",
    )
    for cores in (1, 2, 4):
        result.check(
            f"saturation speedup @{cores} cores (256 flows)",
            paper=2.7,
            measured=ratios[(cores, 256)],
            tolerance=0.15,
        )
    knees = [
        min(f for f in flow_points if ratios[(cores, f)] >= 0.95 * ratios[(cores, 256)])
        for cores in (1, 2, 4)
    ]
    checks = list(result.checks.values())
    result.notes.append(
        "the load generator's think time sets where each core count saturates: "
        f"the speedup first comes within 5% of its 256-flow value at "
        f"{' / '.join(map(str, knees))} flows on 1 / 2 / 4 cores, and is "
        f"{' / '.join(f'{c.measured:.2f}x' for c in checks)} at 256 flows "
        f"(paper {checks[0].paper:.2f}x)"
    )
    return result


# ---------------------------------------------------------------- Figure 11
def run_figure11() -> ExperimentResult:
    """Fig 11: CPU utilization breakdown of Nginx, Linux vs F4T."""
    model = NginxPerformanceModel()
    rows = []
    for stack in ("linux", "f4t"):
        fractions = model.cycle_breakdown(stack).fractions()
        for name, fraction in sorted(fractions.items()):
            rows.append((stack, name, round(fraction, 3)))
    result = ExperimentResult(
        exhibit="Figure 11",
        title="CPU utilization breakdown of Nginx (1 core, 64 flows)",
        columns=["stack", "category", "fraction"],
        rows=rows,
        method="calibrated",
    )
    result.check("application cycles gained", paper=2.8, measured=model.speedup(), tolerance=0.05)
    result.check("CPU cycles saved", paper=0.64, measured=model.cpu_savings_fraction(), tolerance=0.05)
    result.check(
        "Linux TCP fraction", paper=NGINX_LINUX_TCP_FRACTION,
        measured=model.cycle_breakdown("linux").fraction("tcp_stack"), tolerance=0.02,
    )
    result.check(
        "F4T TCP fraction removed", paper=0.0,
        measured=model.cycle_breakdown("f4t").fraction("tcp_stack"), tolerance=0.01,
    )
    return result


# ---------------------------------------------------------------- Figure 12
def run_figure12(quick: bool = False) -> ExperimentResult:
    """Fig 12: median and p99 Nginx latency."""
    requests = 20_000 if quick else 60_000
    _, linux_hist = simulate_closed_loop("linux", flows=64, cores=1, requests=requests)
    _, f4t_hist = simulate_closed_loop("f4t", flows=64, cores=1, requests=requests)
    rows = [
        ("linux", round(linux_hist.median * 1e6, 1), round(linux_hist.p99 * 1e6, 1)),
        ("f4t", round(f4t_hist.median * 1e6, 1), round(f4t_hist.p99 * 1e6, 1)),
    ]
    result = ExperimentResult(
        exhibit="Figure 12",
        title="Median and 99th percentile latency of Nginx (us)",
        columns=["stack", "median us", "p99 us"],
        rows=rows,
        method="calibrated closed-loop simulation",
    )
    result.check(
        "median latency ratio (Linux/F4T)",
        paper=LINUX_LATENCY_MEDIAN_RATIO,
        measured=linux_hist.median / f4t_hist.median,
        tolerance=0.30,
    )
    result.check(
        "p99 latency ratio (Linux/F4T)",
        paper=LINUX_LATENCY_P99_RATIO,
        measured=linux_hist.p99 / f4t_hist.p99,
        tolerance=0.40,
    )
    median, p99 = result.checks.values()
    result.notes.append(
        f"Linux/F4T is {median.measured:.2f}x at the median (paper {median.paper:.2f}x) "
        f"and {p99.measured:.2f}x at p99 (paper {p99.paper:.2f}x): the Linux stall "
        "distribution is a two-parameter model, so its tail is a fit, not a measurement"
    )
    return result


# ---------------------------------------------------------------- Figure 13
def run_figure13() -> ExperimentResult:
    """Fig 13: 128 B echo rate vs number of flows."""
    rows = []
    points: Dict[tuple, float] = {}
    flow_counts = (256, 1024, 2048, 4096, 16384, 65536)
    ddr_model = EchoModel(memory="ddr4")
    hbm_model = EchoModel(memory="hbm")
    for flows in flow_counts:
        linux = LinuxTcpStack(CpuModel(cores=8)).echo_rate(flows)
        ddr = ddr_model.rate(flows)
        hbm = hbm_model.rate(flows)
        points[("linux", flows)] = linux
        points[("ddr4", flows)] = ddr
        points[("hbm", flows)] = hbm
        rows.append(
            (
                flows,
                round(linux / MRPS, 2),
                round(ddr / MRPS, 1),
                round(hbm / MRPS, 1),
                round(ddr / linux, 1),
                round(hbm / linux, 1),
            )
        )
    result = ExperimentResult(
        exhibit="Figure 13",
        title="128B echoing request rate vs concurrent flows (8 cores)",
        columns=["flows", "Linux Mrps", "F4T-DRAM Mrps", "F4T-HBM Mrps", "DRAM x", "HBM x"],
        rows=rows,
        method="calibrated software + simulated DRAM swap path",
    )
    result.check(
        "F4T vs Linux @1K flows", paper=20.0,
        measured=points[("hbm", 1024)] / points[("linux", 1024)], tolerance=0.25,
    )
    result.check(
        "F4T-DRAM vs Linux @64K", paper=12.0,
        measured=points[("ddr4", 65536)] / points[("linux", 65536)], tolerance=0.35,
    )
    result.check(
        "F4T-HBM vs Linux @64K", paper=44.0,
        measured=points[("hbm", 65536)] / points[("linux", 65536)], tolerance=0.35,
    )
    result.check(
        "DRAM throttles past 1024 flows", paper=1.0,
        measured=1.0 if points[("ddr4", 4096)] < 0.6 * points[("ddr4", 1024)] else 0.0,
        tolerance=0.0,
    )
    return result


# ---------------------------------------------------------------- Figure 14
def run_figure14(quick: bool = False) -> ExperimentResult:
    """Fig 14: congestion-window traces, F4T vs the reference simulator."""
    duration = 1.5e-3 if quick else 3e-3
    rows = []
    comparisons = {}
    for algorithm in ("newreno", "cubic"):
        engine_trace = capture_engine_cwnd_trace(
            algorithm=algorithm, duration_s=duration
        )
        reference_trace = reference_cwnd_trace(
            algorithm=algorithm, duration_s=duration
        )
        comparison = compare_traces(engine_trace, reference_trace)
        comparisons[algorithm] = comparison
        grid = [duration * i / 9 for i in range(1, 10)]
        for t in grid:
            rows.append(
                (
                    algorithm,
                    round(t * 1e3, 2),
                    engine_trace.sample_at(t) // 1460,
                    reference_trace.sample_at(t) // 1460,
                )
            )
    result = ExperimentResult(
        exhibit="Figure 14",
        title="Congestion window: F4T engine vs reference simulator (MSS units)",
        columns=["algorithm", "t ms", "F4T cwnd", "reference cwnd"],
        rows=rows,
        method="functional (engine) vs independent reference simulation",
    )
    result.notes.append(
        "drops are injected by data-frame count, so the two sawtooths drift out "
        "of phase: the checks judge the number of loss reactions and the mean "
        "window; pointwise agreement is reported, not checked"
    )
    for algorithm, comparison in comparisons.items():
        result.check(
            f"{algorithm} multiplicative-decrease count ratio", paper=1.0,
            measured=comparison.engine_decreases
            / max(1, comparison.reference_decreases),
            tolerance=0.45,
        )
        result.check(
            f"{algorithm} mean cwnd ratio", paper=1.0,
            measured=comparison.mean_cwnd_ratio, tolerance=0.45,
        )
        result.notes.append(
            f"{algorithm}: correlation {comparison.correlation:.2f}, "
            f"median pointwise error {comparison.median_relative_error:.2f}"
        )
    return result


# ---------------------------------------------------------------- Figure 15
def run_figure15() -> ExperimentResult:
    """Fig 15: event rate vs FPU processing latency (cycle sim)."""
    rows = []
    baseline_rates = []
    f4t_rates = []
    latencies = (1, 5, 10, 14, 20, 30, 41, 50, 60, 68)
    for latency in latencies:
        baseline = measure_baseline_event_rate(stall_cycles=latency, cycles=10_000)
        f4t = measure_fpc_event_rate(fpu_latency=latency, cycles=10_000)
        baseline_rates.append(baseline)
        f4t_rates.append(f4t)
        rows.append((latency, round(baseline / MRPS, 1), round(f4t / MRPS, 1)))
    result = ExperimentResult(
        exhibit="Figure 15",
        title="Event processing rate vs FPU processing latency",
        columns=["latency cyc", "Baseline Mev/s", "F4T Mev/s"],
        rows=rows,
        method="simulated",
    )
    for latency, rate in (("14 (NewReno)", f4t_rates[3]), ("68 (Vegas)", f4t_rates[-1])):
        result.check(f"F4T rate at latency {latency}", FPC_EVENTS_PER_SECOND, rate, tolerance=0.05)
    result.check(
        "F4T flatness (min/max)", paper=1.0,
        measured=min(f4t_rates) / max(f4t_rates), tolerance=0.02,
    )
    result.check(
        "Baseline decays ~1/latency", paper=17 / 68,
        measured=baseline_rates[-1] / measure_baseline_event_rate(17, cycles=10_000),
        tolerance=0.10,
    )
    result.notes.append(
        "Per-algorithm FPU latencies (§5.4): NewReno 14, CUBIC 41, Vegas 68 "
        "cycles — all sustain the same 125M events/s on F4T."
    )
    return result


# --------------------------------------------------------------- Figure 16a
def run_figure16a() -> ExperimentResult:
    """Fig 16a: header processing rate vs cores, 16B vs 8B commands."""
    pcie = PcieModel()
    engine_cap = 8 * FPC_EVENTS_PER_SECOND  # 8 FPCs
    rows = []
    rate_16 = {}
    rate_8 = {}
    for cores in (1, 2, 4, 8, 12, 16, 20, 24):
        software = cores * F4T_HEADER_RATE_PER_CORE
        r16 = min(software, pcie.max_requests_per_s(0, command_bytes=COMMAND_BYTES_DEFAULT), engine_cap)
        r8 = min(software, pcie.max_requests_per_s(0, command_bytes=COMMAND_BYTES_SIMPLIFIED), engine_cap)
        rate_16[cores] = r16
        rate_8[cores] = r8
        rows.append((cores, round(r16 / MRPS), round(r8 / MRPS)))
    result = ExperimentResult(
        exhibit="Figure 16a",
        title="Header processing rate vs CPU cores (payload excluded)",
        columns=["cores", "16B cmd Mrps", "8B cmd Mrps"],
        rows=rows,
        method="calibrated (PCIe + per-core rate) + engine cap",
    )
    result.check(
        "16B commands hit the PCIe ceiling", paper=794.0,
        measured=rate_16[24] / MRPS, tolerance=0.10,
    )
    result.check(
        "8B commands scale to ~900 Mrps+", paper=900.0,
        measured=rate_8[24] / MRPS, tolerance=0.20,
    )
    result.check(
        "8B scaling linear to 16 cores", paper=16.0,
        measured=rate_8[16] / rate_8[1], tolerance=0.05,
    )
    return result


# --------------------------------------------------------------- Figure 16b
def run_figure16b(quick: bool = False) -> ExperimentResult:
    """Fig 16b: header rates of Baseline / 1FPC / 1FPC-C / F4T (cycle sim)."""
    cycles = 10_000 if quick else 30_000
    designs = [
        HeaderRateDesign.baseline(),
        HeaderRateDesign.one_fpc(),
        HeaderRateDesign.one_fpc_coalescing(),
        HeaderRateDesign.f4t(),
    ]
    offered = {"bulk": F4T_HEADER_OFFERED_BULK, "rr": F4T_HEADER_OFFERED_RR}
    flows = {"bulk": 24, "rr": 384}  # 24 cores; RR uses 16 flows per core
    measured: Dict[tuple, float] = {}
    rows = []
    for design in designs:
        row = [design.name]
        for workload in ("bulk", "rr"):
            rate = measure_header_rate(
                design, workload, offered[workload], flows[workload], cycles=cycles
            )
            measured[(design.name, workload)] = rate
            row.append(round(rate / MRPS))
        baseline_bulk = measured[("Baseline", "bulk")]
        baseline_rr = measured[("Baseline", "rr")]
        row.append(round(measured[(design.name, "bulk")] / baseline_bulk, 1))
        row.append(round(measured[(design.name, "rr")] / baseline_rr, 1))
        rows.append(tuple(row))
    result = ExperimentResult(
        exhibit="Figure 16b",
        title="Header processing rate of intermediate designs (24 cores)",
        columns=["design", "bulk Mrps", "rr Mrps", "bulk x", "rr x"],
        rows=rows,
        method="simulated",
    )
    base_bulk = measured[("Baseline", "bulk")]
    base_rr = measured[("Baseline", "rr")]
    result.check("1FPC bulk speedup", 8.6, measured[("1FPC", "bulk")] / base_bulk, tolerance=0.15)
    result.check("1FPC rr speedup", 8.4, measured[("1FPC", "rr")] / base_rr, tolerance=0.15)
    result.check("1FPC-C bulk speedup", 62.3, measured[("1FPC-C", "bulk")] / base_bulk, tolerance=0.15)
    result.check("1FPC-C rr speedup", 8.6, measured[("1FPC-C", "rr")] / base_rr, tolerance=0.15)
    result.check("F4T bulk speedup", 63.1, measured[("F4T", "bulk")] / base_bulk, tolerance=0.15)
    result.check("F4T rr speedup", 71.3, measured[("F4T", "rr")] / base_rr, tolerance=0.15)
    result.notes.append(
        "the offered load is calibrated: the paper's F4T speedups times its "
        "Baseline event rate, so the Mrps columns are bounded by it; the x columns "
        "(what coalescing and parallel FPCs each buy over Baseline) are cycle simulation"
    )
    return result


# ----------------------------------------------------------------- Table 2
def run_table2(fig16b: ExperimentResult) -> ExperimentResult:
    """Table 2: which mechanism targets which situation, with evidence.

    A view of Figure 16b's run (``run_figure16b``'s result): it quotes
    those rows and copies those checks, and simulates nothing itself.
    """
    by_name = {row[0]: row for row in fig16b.rows}
    rows = [
        (
            "FPC architecture",
            "all situations",
            f"1FPC = {by_name['1FPC'][3]}x bulk / {by_name['1FPC'][4]}x rr over Baseline",
        ),
        (
            "Scheduler (event coalescing)",
            "events of the same flow",
            f"1FPC-C = {by_name['1FPC-C'][3]}x bulk (rr unchanged at {by_name['1FPC-C'][4]}x)",
        ),
        (
            "Parallel FPCs",
            "events of different flows",
            f"F4T = {by_name['F4T'][4]}x rr (bulk already coalesced)",
        ),
        (
            "Scheduler (FPC migration)",
            "event load imbalance",
            "congested-FPC flows migrate to the idlest FPC (see scheduler tests)",
        ),
    ]
    result = ExperimentResult(
        exhibit="Table 2",
        title="Target situations of F4T's solutions (with measured evidence)",
        columns=["solution", "target situation", "measured evidence"],
        rows=rows,
        method="simulated",
    )
    result.checks.update(fig16b.checks)
    return result


#: Every exhibit driver, in paper order (``repro report`` presents them
#: in this order and looks exhibit names up here).
ALL_EXPERIMENTS: Registry[Callable[..., ExperimentResult]] = Registry("exhibit")
ALL_EXPERIMENTS.update(
    table1=run_table1,
    figure1=run_figure1,
    figure2=run_figure2,
    figure7=run_figure7,
    figure8=run_figure8,
    figure9=run_figure9,
    figure10=run_figure10,
    figure11=run_figure11,
    figure12=run_figure12,
    figure13=run_figure13,
    figure14=run_figure14,
    figure15=run_figure15,
    figure16a=run_figure16a,
    figure16b=run_figure16b,
    table2=run_table2,
)
