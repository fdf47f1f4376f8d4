"""Backend head-to-head sweeps: the acceptance-criteria surface.

A sweep is the ``fabric-backends`` grid run in-process — the same rows
``python -m repro fabric sweep`` tabulates and ``lab run`` persists.
"""

from repro.__main__ import main
from repro.lab.grids import fabric_backends_grid, get_grid


def sweep_csv(capsys, *flags):
    assert main(["fabric", "sweep", "incast", *flags, "--csv", "-"]) == 0
    out = capsys.readouterr().out
    return out[out.index("scenario,num_hosts,"):]


class TestSweep:
    def test_incast_eight_hosts_all_backends(self):
        """The PR's acceptance run: incast at N=8 across every backend,
        every backend finishing, goodput ordered by offload depth."""
        rows = fabric_backends_grid(num_hosts=8, seed=42).records()
        assert len(rows) == 4
        assert all(row["finished"] for row in rows)
        by_name = {row["backend"]: row for row in rows}
        assert (
            by_name["f4t"]["goodput_gbps"]
            > by_name["pno"]["goodput_gbps"]
            > by_name["linux_stack"]["goodput_gbps"]
        )

    def test_same_seed_same_csv(self, capsys):
        flags = ("--backends", "f4t,flextoe", "--hosts", "4", "--seed", "7")
        assert sweep_csv(capsys, *flags) == sweep_csv(capsys, *flags)

    def test_table_carries_provenance(self, capsys):
        assert main(
            ["fabric", "sweep", "incast", "--backends", "f4t,linux_stack",
             "--hosts", "4"]
        ) == 0
        table = capsys.readouterr().out
        assert "paper-backed" in table
        assert "calibrated" in table

    def test_csv_header_shape(self, capsys):
        header = sweep_csv(
            capsys, "--backends", "flextoe", "--hosts", "4"
        ).splitlines()[0]
        assert header.startswith("scenario,num_hosts,seed,load_scale,backend")
        for column in ("goodput_gbps", "p99_us", "retransmits", "switch_drops"):
            assert column in header

    def test_csv_cells_parse_back_to_the_run_exactly(self, capsys):
        """Cells are ``repr`` floats, not the 2-decimal display format."""
        flags = ("--backends", "flextoe", "--hosts", "4")
        cells = dict(zip(*(
            line.split(",") for line in sweep_csv(capsys, *flags).splitlines()
        )))
        (row,) = fabric_backends_grid(backends=["flextoe"], num_hosts=4).records()
        assert float(cells["p99_us"]) == row["p99_us"]
        assert float(cells["goodput_gbps"]) == row["goodput_gbps"]
        assert cells["p99_us"] != f"{row['p99_us']:.2f}"

    def test_verb_grid_is_the_registered_grid(self):
        """Twins are one: the verb's defaults and ``lab run
        fabric-backends`` expand to the same content-hash run ids."""
        verb = fabric_backends_grid(
            scenario="incast", backends=None, num_hosts=8, seed=None,
            load_scale=1.0,
        )
        assert [p.run_id for p in verb.expand()] == [
            p.run_id for p in get_grid("fabric-backends").expand()
        ]
        quick = fabric_backends_grid(num_hosts=4)
        assert [p.run_id for p in quick.expand()] == [
            p.run_id for p in get_grid("fabric-backends", quick=True).expand()
        ]
