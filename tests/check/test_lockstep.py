"""Lockstep sanitizer: injected contract violations are caught, clean
runs stay clean.

The fault-injection fixtures break the conservative-PDES contract the
way a buggy runner or exchange would — a cross-cell segment delivered
late (arrival in the receiving cell's past) and an exchange batch fed
to the switch in raw batch order instead of key order — then check the
sanitizer names both the check id and the hook's ``file:line``.
"""

from repro.check.lockstep import LockstepSanitizer, run_lockstep_check
from repro.fabric.softstack import FabricPacket
from repro.fabric.switch import CellSwitch
from repro.shard.cell import CellSim
from repro.shard.scenarios import get_shard_scenario
from repro.tcp.segment import FlowKey, ip_from_string

_HOST0_IP = ip_from_string("10.0.0.1")


def make_packet(dst_ip=_HOST0_IP, payload=100):
    key = FlowKey(_HOST0_IP + 1, 40000, dst_ip, 80)
    return FabricPacket("data", key, payload_bytes=payload)


class TestDelayedCrossCellSegment:
    def test_straggler_detected_with_site(self):
        """A segment exchanged after the receiving cell already passed
        its arrival instant is a causality violation: the epoch bound
        failed to hold it back."""
        scenario = get_shard_scenario("churn")
        san = LockstepSanitizer()
        sim = CellSim(scenario, 0, san=san)
        assert san.ok  # construction passes the epoch-bound check
        sim.now_ps = scenario.epoch_ps  # the cell landed on a barrier
        late = (scenario.epoch_ps - 1_000, 99, 1, make_packet())
        sim.receive([late])
        assert not san.ok
        finding = san.findings[0]
        assert finding.kind == "straggler"
        assert "repro/shard/cell.py:" in finding.site
        assert "src=99" in finding.message
        assert finding.cell == 0

    def test_on_time_segment_is_clean(self):
        scenario = get_shard_scenario("churn")
        san = LockstepSanitizer()
        sim = CellSim(scenario, 0, san=san)
        sim.now_ps = scenario.epoch_ps
        on_time = (scenario.epoch_ps + 1_000, 99, 1, make_packet())
        sim.receive([on_time])
        assert san.ok, san.report()

    def test_duplicate_exchange_key_detected(self):
        """The same (arrival_ps, src, seq) key delivered twice — a
        runner bug double-shipping an outbox."""
        scenario = get_shard_scenario("churn")
        san = LockstepSanitizer()
        sim = CellSim(scenario, 0, san=san)
        entry = (scenario.epoch_ps + 1_000, 99, 1, make_packet())
        sim.receive([entry])
        sim.receive([entry])
        dups = [f for f in san.findings if f.kind == "duplicate-key"]
        assert dups, san.report()
        assert "enqueued twice" in dups[0].message


class TestReorderedExchangeBatch:
    def test_raw_batch_order_detected_at_switch(self):
        """A batch fed straight to CellSwitch.admit in arrival-reversed
        order (skipping the pending heap) breaks the nondecreasing-feed
        contract lazy depth retirement depends on."""
        san = LockstepSanitizer().for_cell(0)
        switch = CellSwitch([0, 1], num_hosts=4)
        switch.san = san
        switch.admit(make_packet(), 1, 2_000_000)
        switch.admit(make_packet(), 1, 1_000_000)  # out of order
        assert not san.ok
        finding = san.findings[0]
        assert finding.kind == "admission-order"
        assert "repro/fabric/switch.py:" in finding.site
        assert "nondecreasing" in finding.message

    def test_sorted_batch_is_clean(self):
        san = LockstepSanitizer().for_cell(0)
        switch = CellSwitch([0, 1], num_hosts=4)
        switch.san = san
        switch.admit(make_packet(), 1, 1_000_000)
        switch.admit(make_packet(), 1, 1_000_000)  # ties are fine
        switch.admit(make_packet(), 1, 2_000_000)
        assert san.ok, san.report()

    def test_settle_loop_pop_order_checked(self):
        """The cell-side admission hook catches a heap that yields keys
        out of order (e.g. after in-place key mutation)."""
        san = LockstepSanitizer().for_cell(0)
        san.on_admit((1_000, 0, 1), 1_000)
        san.on_admit((500, 0, 2), 1_000)
        assert [f.kind for f in san.findings] == ["admission-order"]
        assert "repro/check/lockstep" not in san.findings[0].site


class TestStructuralChecks:
    def test_epoch_exceeding_propagation_bound_detected(self):
        san = LockstepSanitizer().for_cell(0)
        san.on_configure(epoch_ps=2_000_000, prop_ps=1_000_000)
        assert [f.kind for f in san.findings] == ["epoch-bound"]

    def test_broken_heap_invariant_detected(self):
        san = LockstepSanitizer().for_cell(0)
        broken = [(100, 0, 1, None), (50, 0, 2, None)]  # child < parent
        san.on_epoch_open(broken, 0)
        kinds = [f.kind for f in san.findings]
        assert kinds == ["heap-order"]

    def test_out_of_order_merge_detected(self):
        san = LockstepSanitizer()
        san.on_merge([1, 0], num_cells=2)
        assert [f.kind for f in san.findings] == ["merge-order"]

    def test_incomplete_merge_detected(self):
        san = LockstepSanitizer()
        san.on_merge([0], num_cells=2)
        assert [f.kind for f in san.findings] == ["merge-order"]

    def test_ordered_merge_is_clean(self):
        san = LockstepSanitizer()
        san.on_merge([0, 1, 2], num_cells=3)
        assert san.ok

    def test_findings_capped(self):
        san = LockstepSanitizer(max_findings=2).for_cell(0)
        for n in range(5):
            san.on_configure(epoch_ps=10, prop_ps=1)
        assert len(san.findings) == 2
        assert san.dropped == 3
        assert "dropped at cap" in san.report()


class TestViews:
    def test_cell_views_share_state(self):
        root = LockstepSanitizer()
        view_a, view_b = root.for_cell(0), root.for_cell(1)
        assert view_a.findings is root.findings
        assert view_b._counts is root._counts
        view_a.on_configure(epoch_ps=10, prop_ps=1)
        assert root.findings[0].cell == 0


class TestCleanRun:
    def test_sanitized_churn_run_is_clean(self):
        """The CI gate: the shipped shard runner passes its own
        sanitizer, and the hooks observe without perturbing the run."""
        san, result = run_lockstep_check("churn")
        assert san.ok, san.report()
        assert san.checks_run > 0
        assert result.finished
