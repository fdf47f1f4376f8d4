"""ECN echoes close the loop: marks -> halved windows -> fewer drops.

The incast fabric run is the forcing function: N-1 synchronized block
responses collide at one egress port.  With a deliberately small switch
buffer the un-marked run tail-drops heavily; turning the switch's CE
threshold on must shift loss into marks — the soft stacks echo the
marks, halve their congestion windows (seeded recovery holdoff, one
halving per hold window), and the same workload completes with
measurably fewer drops.
"""

from dataclasses import replace

import pytest

from repro.fabric import get_fabric_scenario, run_fabric
from repro.fabric.switch import SwitchFabric

#: Small enough that a 7-into-1 incast of 128 KiB blocks overflows.
_TIGHT_BUFFER = 128 * 1024


@pytest.fixture(autouse=True)
def _tight_buffer(monkeypatch):
    monkeypatch.setattr(SwitchFabric, "buffer_bytes", _TIGHT_BUFFER)


def _tight_incast(ecn_threshold_bytes: int):
    scenario = get_fabric_scenario("incast", num_hosts=8, seed=3)
    return replace(scenario, ecn_threshold_bytes=ecn_threshold_bytes)


class TestEcnCongestionResponse:
    def test_marks_cut_incast_drops(self):
        blind = run_fabric(_tight_incast(0), backend="f4t")
        marked = run_fabric(_tight_incast(48 * 1024), backend="f4t")
        assert blind.switch_drops > 0, "tight buffer must tail-drop"
        assert blind.ecn_marks == 0
        assert marked.ecn_marks > 0, "threshold crossed -> CE marks"
        assert marked.switch_drops < blind.switch_drops, (
            f"ECN response should cut drops: "
            f"{marked.switch_drops} !< {blind.switch_drops}"
        )

    def test_ecn_run_still_completes_work(self):
        marked = run_fabric(_tight_incast(48 * 1024), backend="f4t")
        assert marked.completed > 0
        assert marked.bytes_delivered > 0

    def test_seeded_recovery_is_deterministic(self):
        """The recovery holdoff draws from a derived per-stack RNG, so
        two same-seed runs land on identical counters."""
        a = run_fabric(_tight_incast(48 * 1024), backend="f4t")
        b = run_fabric(_tight_incast(48 * 1024), backend="f4t")
        assert a.switch_drops == b.switch_drops
        assert a.ecn_marks == b.ecn_marks
        assert a.retransmits == b.retransmits
        assert a.completed == b.completed

    def test_different_seed_changes_holdoff_jitter(self):
        """Seed reaches the ECN recovery RNG: another seed may move the
        counters, but the loop must stay effective (drops still below
        the blind run's)."""
        blind = run_fabric(_tight_incast(0), backend="f4t")
        other = run_fabric(
            replace(_tight_incast(48 * 1024), seed=11), backend="f4t"
        )
        assert other.ecn_marks > 0
        assert other.switch_drops < blind.switch_drops
