"""The F4T host side as its calibrated costs: CPU and PCIe models,
the Linux TCP stack baseline and all calibrated constants."""

from .cpu import CpuModel, CycleAccount
from .linux_stack import LinuxTcpStack
from .pcie import PcieModel

__all__ = [
    "CpuModel",
    "CycleAccount",
    "LinuxTcpStack",
    "PcieModel",
]
