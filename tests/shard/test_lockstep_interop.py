"""Interop: ``Simulator.run_lockstep`` epochs drive a shard churn run.

The shard runner slices time into fixed lockstep epochs with a
hand-rolled barrier loop; the kernel offers the same slicing through
``Simulator.run_lockstep``, walking the compiled 250/322 MHz schedule
table with a cursor.  This test closes the loop between the two layers:
the kernel's epoch boundaries — produced by ``run_until_time_ps`` over
the table — feed the shard barrier protocol, and the merged churn
fingerprint must land on the pinned golden bit-for-bit, with the
``LockstepSanitizer`` clean throughout.  If the slicing drifted by even
one edge or one picosecond, the barrier would run at a different
boundary and the fingerprint would move.
"""

from repro.check.lockstep import LockstepSanitizer
from repro.obs.trace import StreamingFingerprint, merge_fingerprints
from repro.shard import get_shard_scenario
from repro.shard.cell import CellSim
from repro.sim.kernel import Simulator

from .test_determinism import GOLDEN_CHURN


class _Finished(Exception):
    """Raised by the barrier when every cell is idle and drained."""


class TestRunLockstepShardInterop:
    def test_lockstep_epochs_reproduce_churn_golden(self):
        scenario = get_shard_scenario("churn")
        san = LockstepSanitizer()
        sims = [
            CellSim(scenario, cell, StreamingFingerprint(), san=san)
            for cell in range(scenario.num_cells)
        ]

        # The kernel that supplies the epoch boundaries: the F4T clock
        # pair, so every boundary is produced by the compiled table's
        # cursor walk.
        kernel = Simulator()
        kernel.add_domain("engine", 250e6)
        kernel.add_domain("eth", 322e6)

        progress = {"epochs": 0, "exchanged": 0}

        def barrier(epoch: int, boundary_ps: int) -> None:
            # The shard runner's sequential barrier protocol, verbatim,
            # with the boundary handed down by the kernel.
            assert boundary_ps == (epoch + 1) * scenario.epoch_ps
            san.on_epoch(epoch, boundary_ps)
            exchanged = 0
            for sim in sims:
                sim.run_epoch(boundary_ps)
            for sim in sims:
                for dst, entries in sim.take_outboxes().items():
                    sims[dst].receive(entries)
                    exchanged += len(entries)
            progress["epochs"] = epoch + 1
            progress["exchanged"] += exchanged
            if exchanged == 0 and all(sim.idle() for sim in sims):
                raise _Finished

        try:
            kernel.run_lockstep(
                scenario.epoch_ps, barrier, scenario.max_epochs
            )
        except _Finished:
            pass
        else:
            raise AssertionError("churn run did not settle in max_epochs")

        assert san.ok, san.report()
        assert san.checks_run > 0
        assert progress["exchanged"] > 0  # cross-cell traffic happened
        merged = merge_fingerprints(
            [sim.trace.hexdigest() for sim in sims]
        )
        assert merged == GOLDEN_CHURN
        # The kernel really simulated up to the last barrier: its time
        # sits on the final edge before that boundary.
        assert progress["epochs"] > 0
        boundary = progress["epochs"] * scenario.epoch_ps
        assert 0 < kernel.time_ps < boundary
        assert boundary - kernel.time_ps <= 4000  # within one slow edge
