"""Latency-vs-load sweeps: curve shape and knee detection.

A sweep is the ``traffic-load`` grid run in-process — the rows
``python -m repro traffic sweep`` tabulates and ``lab run`` persists.
"""

import pytest

from repro.__main__ import main
from repro.lab.grids import get_grid, traffic_load_grid
from repro.traffic import detect_knee


def monotone_latency(rows, tolerance=0.10):
    """True when p99 never *drops* by more than ``tolerance``: open-loop
    percentiles wobble at low load, so "monotone" is non-decreasing up
    to a fractional tolerance, not strict inequality."""
    p99s = [row["p99_us"] for row in rows]
    return all(b >= a * (1.0 - tolerance) for a, b in zip(p99s, p99s[1:]))


class TestDetectKnee:
    def test_finds_hockey_stick_elbow(self):
        xs = [1, 2, 3, 4, 5, 6, 7, 8]
        ys = [1, 1, 1.1, 1.2, 2, 8, 30, 100]
        knee = detect_knee(xs, ys)
        assert knee in (4, 5)  # where the wall starts

    def test_flat_curve_has_no_knee(self):
        xs = [1, 2, 3, 4, 5]
        assert detect_knee(xs, [4.0, 4.1, 4.0, 4.2, 4.1]) is None

    def test_linear_curve_has_no_knee(self):
        xs = [1, 2, 3, 4, 5]
        assert detect_knee(xs, [10, 20, 30, 40, 50]) is None

    def test_degenerate_inputs(self):
        assert detect_knee([1, 2], [1, 2]) is None
        assert detect_knee([1, 1, 1], [1, 2, 3]) is None
        with pytest.raises(ValueError):
            detect_knee([1, 2, 3], [1, 2])


class TestModelSweep:
    """The default ``traffic-load`` sweep, on the engines.  (It ran the
    calibrated traffic model until that was deleted; the name stays.)"""

    LOADS = [0.5, 1, 2, 4, 8, 12, 16, 24]

    @pytest.fixture(scope="class")
    def rows(self):
        return traffic_load_grid(scenario="rpc", loads=self.LOADS).records()

    def test_curve_is_monotone_with_a_knee(self, rows):
        assert monotone_latency(rows)
        knee = detect_knee(
            [row["offered_rps"] for row in rows],
            [row["p99_us"] for row in rows],
        )
        assert knee is not None
        # Before the knee the system keeps up; past it, it saturates.
        assert rows[knee]["load_scale"] >= 4
        last = rows[-1]
        assert last["achieved_rps"] < 0.5 * last["offered_rps"]

    def test_points_sorted_by_load(self):
        rows = traffic_load_grid(loads=[12, 1, 4]).expand()
        assert [point.params["load_scale"] for point in rows] == [1, 4, 12]

    def test_rendering(self, capsys):
        assert main(["traffic", "sweep", "rpc"]) == 0
        out = capsys.readouterr().out
        assert "knee" in out.splitlines()[1]  # the table's column header
        assert "knee at load" in out

    def test_csv_cells_parse_back_to_the_run_exactly(self, rows, capsys):
        assert main(["traffic", "sweep", "rpc", "--csv", "-"]) == 0
        out = capsys.readouterr().out
        lines = out[out.index("load_scale,"):].splitlines()
        header = lines[0].split(",")
        for line, row in zip(lines[1:], rows):
            cells = dict(zip(header, line.split(",")))
            assert float(cells["p99_us"]) == row["p99_us"]
            assert float(cells["offered_rps"]) == row["offered_rps"]

    def test_verb_grid_is_the_registered_grid(self):
        """Twins are one: the verb's defaults and ``lab run
        traffic-load`` expand to the same content-hash run ids."""
        verb = traffic_load_grid(scenario="rpc", loads=self.LOADS, seed=None)
        assert [p.run_id for p in verb.expand()] == [
            p.run_id for p in get_grid("traffic-load").expand()
        ]
        quick = traffic_load_grid(loads=[1, 4, 12])
        assert [p.run_id for p in quick.expand()] == [
            p.run_id for p in get_grid("traffic-load", quick=True).expand()
        ]


class TestFunctionalSweep:
    def test_small_functional_sweep_runs(self):
        rows = traffic_load_grid(loads=[0.5, 1, 2]).records()
        assert len(rows) == 3
        assert monotone_latency(rows)
        for row in rows:
            assert row["finished"]

    def test_unknown_backend_rejected(self):
        from repro.lab.drivers import traffic_scenario_point

        with pytest.raises(KeyError):
            traffic_scenario_point("rpc", backend="quantum")
