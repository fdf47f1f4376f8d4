"""Invariant monitors: audited end-to-end runs."""

import pytest

from repro.engine.ftengine import FtEngineConfig
from repro.engine.testbed import Testbed
from repro.engine.verification import InvariantMonitor, Violation, audited_run
from repro.net.wire import LossPattern, Wire


class TestMonitorMechanics:
    def test_clean_engine_audits_clean(self):
        testbed = Testbed()
        monitor = InvariantMonitor(testbed.engine_a)
        testbed.establish()
        assert monitor.check() == []
        monitor.assert_clean()
        assert monitor.checks_run == 1

    def test_detects_pointer_regression(self):
        testbed = Testbed()
        a_flow, _ = testbed.establish()
        monitor = InvariantMonitor(testbed.engine_a)
        monitor.check()  # record the shadow
        tcb = testbed.engine_a.tcb_of(a_flow)
        tcb.snd_una -= 100  # corrupt: una must never regress
        found = monitor.check()
        assert any(v.invariant in ("monotonicity", "pointer-order") for v in found)
        with pytest.raises(AssertionError, match="invariant violations"):
            monitor.assert_clean()

    def test_detects_lut_desync(self):
        testbed = Testbed()
        a_flow, _ = testbed.establish()
        monitor = InvariantMonitor(testbed.engine_a)
        testbed.engine_a.scheduler.lut.delete(a_flow)  # corrupt the LUT
        found = monitor.check()
        assert any(v.invariant == "location-lut" for v in found)

    def test_violation_rendering(self):
        violation = Violation(10**9, "pointer-order", 7, "una passed nxt")
        assert "flow=7" in str(violation)
        assert "pointer-order" in str(violation)


class TestAuditedRuns:
    def test_audited_bulk_transfer(self):
        testbed = Testbed()
        a_flow, b_flow = testbed.establish()
        data = bytes(i % 256 for i in range(80_000))
        sent = {"n": 0}

        def pump():
            if sent["n"] < len(data):
                sent["n"] += testbed.engine_a.send_data(
                    a_flow, data[sent["n"] : sent["n"] + 16384]
                )
            return testbed.engine_b.readable(b_flow) >= len(data)

        assert audited_run(testbed, pump, max_time_s=5.0)
        assert testbed.engine_b.recv_data(b_flow, len(data)) == data

    def test_audited_migration_under_loss(self):
        """The harshest combination — tiny FPCs, loss, migration — with
        every invariant checked throughout."""
        config = FtEngineConfig(num_fpcs=2, fpc_slots=2)
        wire = Wire(drop_a_to_b=LossPattern.probability(0.02, seed=41))
        testbed = Testbed(config_a=config, config_b=config, wire=wire)
        testbed.engine_b.listen(80)
        a_flows = [testbed.engine_a.connect(testbed.engine_b.ip, 80) for _ in range(6)]
        b_flows = []

        def accepted():
            flow = testbed.engine_b.accept(80)
            if flow is not None:
                b_flows.append(flow)
            return len(b_flows) == 6

        assert audited_run(testbed, accepted, max_time_s=30.0)
        for flow in a_flows:
            testbed.engine_a.send_data(flow, bytes(3000))

        def delivered():
            return all(testbed.engine_b.readable(f) >= 3000 for f in b_flows)

        assert audited_run(testbed, delivered, max_time_s=testbed.now_s + 30.0)

    def test_audited_churn(self):
        from repro.apps.shortconn import churn_preset
        from repro.engine.verification import InvariantMonitor
        from repro.traffic import LoadEngine

        testbed = Testbed()
        monitors = [
            InvariantMonitor(testbed.engine_a),
            InvariantMonitor(testbed.engine_b),
        ]
        result = LoadEngine(churn_preset(6, 2), testbed=testbed).run(
            run_time_s=30.0, raise_on_incomplete=True
        )
        assert result.classes["churn"].completed == 6
        for monitor in monitors:
            monitor.check()
            monitor.assert_clean()
