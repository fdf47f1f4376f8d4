"""Simulation primitives the models are built from.

The paper prototypes FtEngine on a Xilinx U280; we substitute
cycle-level models (the paper itself uses cycle-accurate simulation for
its versatility experiments, section 5.4).  This package holds what
several models share: the clocked :class:`Component` base, the DRAM/HBM
channel model and latency histograms.  Each engine block owns its own
tables, queues and counts as plain containers (the FPU pipeline, for
one, lives in the FPC that owns it).

There is no clock here.  Each model owns its loop and its time base:
cycle time is ``Testbed.cycle * ENGINE_PERIOD_PS`` (``repro.engine``),
event time is the integer-picosecond clock of ``run_fabric``
(``repro.fabric``) and ``CellSim`` (``repro.shard``).
"""

from .component import Component
from .memory import DRAMModel
from .stats import Histogram

__all__ = ["Component", "DRAMModel", "Histogram"]
