"""Hardware primitives and statistics the models are built from.

The paper prototypes FtEngine on a Xilinx U280; we substitute
cycle-level models (the paper itself uses cycle-accurate simulation for
its versatility experiments, section 5.4).  This package holds the
building blocks only: clocked components, FIFOs with backpressure,
BRAM/DRAM/HBM/CAM/LUT memory models, and counters/histograms/rate
meters.  (The FPU pipeline lives in the FPC that owns it.)

There is no clock here.  Each model owns its loop and its time base:
cycle time is ``Testbed.cycle * ENGINE_PERIOD_PS`` (``repro.engine``),
event time is the integer-picosecond clock of ``run_fabric``
(``repro.fabric``) and ``CellSim`` (``repro.shard``).
"""

from .component import Component
from .fifo import Fifo
from .memory import CAM, DRAMModel, DualPortSRAM, PartitionedLUT
from .stats import Counters, Histogram

__all__ = [
    "CAM",
    "Component",
    "Counters",
    "DRAMModel",
    "DualPortSRAM",
    "Fifo",
    "Histogram",
    "PartitionedLUT",
]
