"""PCIe, CPU and Linux-stack models against paper-reported anchors."""

import pytest

from repro.host.cpu import CpuModel, CycleAccount
from repro.host.linux_stack import LinuxTcpStack
from repro.host.pcie import PcieModel
from repro.net.link import LINK_100G


class TestPcieModel:
    def test_fig9_anchor(self):
        """396 Mrps at 16 B requests (16 B command + 16 B payload)."""
        pcie = PcieModel()
        assert pcie.max_requests_per_s(16) / 1e6 == pytest.approx(396, rel=0.02)

    def test_header_only_ceilings(self):
        """Fig 16a: 16 B commands cap ~794 M; 8 B doubles the headroom."""
        pcie = PcieModel()
        r16 = pcie.max_requests_per_s(0, command_bytes=16)
        r8 = pcie.max_requests_per_s(0, command_bytes=8)
        assert r8 == pytest.approx(2 * r16)
        assert r16 / 1e6 == pytest.approx(794, rel=0.02)

    def test_goodput_grows_with_payload(self):
        pcie = PcieModel()
        assert pcie.max_requests_per_s(1024) * 1024 > pcie.max_requests_per_s(64) * 64

    def test_completion_accounting_optional(self):
        """Coalesced completions stay out of the per-request bytes."""
        pcie = PcieModel()
        assert pcie.bytes_per_request(16) == 32
        assert pcie.max_requests_per_s(16) == pcie.effective_bytes_per_s / 32


class TestCpuModel:
    def test_rate_for(self):
        cpu = CpuModel(cores=2)  # at HOST_CPU_FREQ_HZ = 2.3 GHz
        assert cpu.rate_for(2300) == pytest.approx(2e6)

    def test_rejects_bad_cost(self):
        with pytest.raises(ValueError):
            CpuModel().rate_for(0)

    def test_cycle_account(self):
        account = CycleAccount()
        account.charge("app", 30)
        account.charge("tcp", 70)
        account.charge("app", 10)
        assert account.total() == 110
        assert account.fraction("tcp") == pytest.approx(70 / 110)
        assert account.fractions()["app"] == pytest.approx(40 / 110)

    def test_empty_account(self):
        account = CycleAccount()
        assert account.fractions() == {}
        assert account.fraction("ghost") == 0.0

    def test_thin_library_claim(self):
        """One request costs ~52 cycles in the F4T library — versus
        ~2 270 through the Linux stack (the Fig 8a calibration anchors)."""
        from repro.host.calibration import (
            F4T_CYCLES_PER_SEND_BULK,
            LINUX_CYCLES_PER_SEND_BULK,
        )

        assert LINUX_CYCLES_PER_SEND_BULK / F4T_CYCLES_PER_SEND_BULK > 40


class TestLinuxStack:
    def test_fig8a_anchor(self):
        """Linux: 8.3 Gbps with 8 cores at 128 B bulk."""
        stack = LinuxTcpStack(CpuModel(cores=8))
        assert stack.bulk_goodput_gbps(128) == pytest.approx(8.3, rel=0.1)

    def test_fig8b_anchor(self):
        """Linux round-robin: 0.126 Gbps on one core at 128 B."""
        stack = LinuxTcpStack(CpuModel(cores=1))
        gbps = stack.round_robin_request_rate(128) * 128 * 8 / 1e9
        assert gbps == pytest.approx(0.126, rel=0.1)

    def test_rr_much_slower_than_bulk(self):
        stack = LinuxTcpStack(CpuModel(cores=4))
        assert stack.bulk_request_rate(128) > 5 * stack.round_robin_request_rate(128)

    def test_echo_degrades_with_flows(self):
        stack = LinuxTcpStack(CpuModel(cores=8))
        assert stack.echo_rate(65536) < stack.echo_rate(1024)
        assert stack.echo_rate(65536) > 0

    def test_nginx_tcp_share(self):
        """Fig 1a: 37% of Nginx cycles in the TCP stack."""
        from repro.apps.nginx import NginxPerformanceModel

        breakdown = NginxPerformanceModel().cycle_breakdown("linux")
        assert breakdown.fraction("tcp_stack") == pytest.approx(0.37)

    def test_rate_capped_by_link(self):
        """A thousand cores cannot push past 100 Gbps."""
        stack = LinuxTcpStack(CpuModel(cores=1000))
        assert stack.bulk_request_rate(128) <= LINK_100G.max_packets_per_second(128)

