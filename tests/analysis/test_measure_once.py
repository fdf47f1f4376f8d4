"""Every simulated measurement in a report runs once.

Table 2 is a view of Figure 16b's run, Fig 13's swap path is measured
once per distinct point, and ``measure_header_rate`` ticks a block only
on a cycle its ``next_action`` names — with the same float and the same
block counters as the retired per-cycle loop (``_header_rate_oracle``).
Counted, not timed.
"""

import pytest

from repro.analysis import experiments, microbench
from repro.analysis.microbench import HeaderRateDesign, measure_header_rate
from repro.analysis.report import EXHIBIT_ORDER, run_all
from repro.apps import echo
from repro.apps.echo import EchoModel
from repro.engine.fpc import FlowProcessingCore
from repro.engine.scheduler import Scheduler
from repro.host.calibration import F4T_HEADER_OFFERED_BULK, F4T_HEADER_OFFERED_RR
from repro.lab import drivers
from repro.lab.grids import get_grid

from tests.analysis._header_rate_oracle import measure_header_rate_per_cycle

FIG16B_DESIGNS = [
    HeaderRateDesign.baseline(),
    HeaderRateDesign.one_fpc(),
    HeaderRateDesign.one_fpc_coalescing(),
    HeaderRateDesign.f4t(),
]
#: Fig 16b's offered loads and flow counts (``run_figure16b``).
FIG16B_WORKLOADS = {"bulk": (F4T_HEADER_OFFERED_BULK, 24), "rr": (F4T_HEADER_OFFERED_RR, 384)}
ORACLE_CYCLES = 2_000


def _history(measure, *args, **kwargs):
    """The rate ``measure`` returns and what each block it built did:
    its cycle and its event counters, in the order the blocks were built."""
    built = []
    inits = {cls: cls.__init__ for cls in (Scheduler, FlowProcessingCore)}

    def recording(init):
        def recorded(block, *a, **k):
            init(block, *a, **k)
            built.append(block)
        return recorded

    for cls, init in inits.items():
        cls.__init__ = recording(init)
    try:
        rate = measure(*args, **kwargs)
    finally:
        for cls, init in inits.items():
            cls.__init__ = init
    counters = [
        (block.cycle, block.events_submitted, block.events_coalesced, block.events_routed)
        if isinstance(block, Scheduler)
        else (block.cycle, block.events_accepted, block.tcbs_processed)
        for block in built
    ]
    return rate, counters


def _grid_points():
    for name in ("ablation-coalescing", "ablation-fpc-count", "ablation-coalesce-depth"):
        grid = get_grid(name)
        for point in grid.expand():
            swept = ",".join(f"{key}={point.params[key]}" for key in grid.domains)
            params = {**point.kwargs(), "cycles": ORACLE_CYCLES}
            yield pytest.param(params, id=f"{name}[{swept}]")


class TestHeaderRateOracle:
    @pytest.mark.parametrize("workload", ["bulk", "rr"])
    @pytest.mark.parametrize("design", FIG16B_DESIGNS, ids=lambda d: d.name)
    def test_figure16b_designs(self, design, workload):
        offered, flows = FIG16B_WORKLOADS[workload]
        args = (design, workload, offered, flows)
        assert _history(measure_header_rate, *args, cycles=ORACLE_CYCLES) == \
            _history(measure_header_rate_per_cycle, *args, cycles=ORACLE_CYCLES)

    @pytest.mark.parametrize("params", _grid_points())
    def test_ablation_grid_points(self, params, monkeypatch):
        one_clock = _history(drivers.ablation_header_point, **params)
        monkeypatch.setattr(microbench, "measure_header_rate", measure_header_rate_per_cycle)
        assert one_clock == _history(drivers.ablation_header_point, **params)

    def test_f4t_ticks_only_due_fpcs(self, monkeypatch):
        ticks = {"n": 0}
        tick = FlowProcessingCore.tick

        def counted(fpc):
            ticks["n"] += 1
            tick(fpc)

        monkeypatch.setattr(FlowProcessingCore, "tick", counted)
        pinned = {"rr": 15_992, "bulk": 5_437}  # of 8 x 2,000 per-cycle ticks
        for workload, count in pinned.items():
            ticks["n"] = 0
            offered, flows = FIG16B_WORKLOADS[workload]
            measure_header_rate(
                HeaderRateDesign.f4t(), workload, offered, flows, cycles=ORACLE_CYCLES
            )
            assert ticks["n"] == count, workload


def _count_measurements(monkeypatch, header_rate, swap_rate):
    """Put counting wrappers of these in place of both simulated
    measurements; returns the live call counts."""
    calls = {"header": 0, "swap": 0}

    def counted_header_rate(*args, **kwargs):
        calls["header"] += 1
        return header_rate(*args, **kwargs)

    def counted_swap_rate(*args, **kwargs):
        calls["swap"] += 1
        return swap_rate(*args, **kwargs)

    monkeypatch.setattr(experiments, "measure_header_rate", counted_header_rate)
    monkeypatch.setattr(echo, "measure_dram_swap_rate", counted_swap_rate)
    return calls


@pytest.fixture
def counted_measurements(monkeypatch):
    """Stub both simulated measurements with counting ones whose value
    depends on the design point (and, for header rates, on the cycles)."""

    def header_rate(design, workload, offered_rate, flows, cycles=30_000):
        return 1e6 * (1 + design.num_fpcs + 2 * design.coalescing) + 100 * cycles

    def swap_rate(memory="ddr4", flows=65536, transactions=4000, cache_entries=512):
        return (4e9 if memory == "hbm" else 1e9) / flows

    return _count_measurements(monkeypatch, header_rate, swap_rate)


@pytest.fixture
def counted_real_measurements(monkeypatch):
    """Count both simulated measurements and keep their real values."""
    return _count_measurements(
        monkeypatch, experiments.measure_header_rate, echo.measure_dram_swap_rate
    )


class TestMeasuredOnce:
    def test_full_quick_report(self, counted_real_measurements):
        """Every quick exhibit passes its checks, each measured once."""
        results = run_all(quick=True)
        assert list(results) == EXHIBIT_ORDER
        failing = [name for name, result in results.items() if not result.all_checks_pass()]
        assert failing == []
        # Fig 16b's 4 designs x 2 workloads, read again by Table 2; Fig
        # 13's 3 distinct capped swap points (2K, 4K, 8K) per memory.
        assert counted_real_measurements == {"header": 8, "swap": 6}

    def test_table2_alone_runs_figure16b_once(self, counted_measurements):
        results = run_all(["table2"], quick=True)
        assert list(results) == ["table2"]
        assert counted_measurements["header"] == 8

    def test_echo_model_measures_each_capped_point_once(self, counted_measurements):
        model = EchoModel(memory="ddr4")
        rates = [model.rate(flows) for flows in (256, 2048, 4096, 16384, 65536, 2048)]
        assert counted_measurements["swap"] == 3
        assert rates[-1] == rates[1]
        # The memo is the instance's: a new model measures afresh.
        EchoModel(memory="ddr4").rate(16384)
        assert counted_measurements["swap"] == 4


class TestTable2ReadsFigure16b:
    def test_full_report_quotes_one_figure16b_run(self, counted_measurements):
        results = run_all(["figure16b", "table2"])
        figure16b, table2 = results["figure16b"], results["table2"]
        assert {name: check.measured for name, check in table2.checks.items()} == \
            {name: check.measured for name, check in figure16b.checks.items()}
        rows = {row[0]: row for row in figure16b.rows}
        evidence = [row[2] for row in table2.rows]
        assert f"1FPC = {rows['1FPC'][3]}x bulk / {rows['1FPC'][4]}x rr" in evidence[0]
        assert f"1FPC-C = {rows['1FPC-C'][3]}x bulk" in evidence[1]
        assert f"F4T = {rows['F4T'][4]}x rr" in evidence[2]
        assert counted_measurements["header"] == 8
