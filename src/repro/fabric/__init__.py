"""``repro.fabric`` — offload backends on a data-center fabric.

Two halves, one design-space laboratory:

* **Backends** (:mod:`.backend`, :mod:`.service`): the registry of the
  designs compared — the paper's F4T FPC engine, a FlexTOE-style
  pipeline-parallel data path, a PnO-style off-path SmartNIC proxy, and
  the calibrated ``linux_stack`` baseline — each a service model under
  the :class:`~repro.fabric.softstack.SoftStack` transport every fabric
  host runs.  The real F4T engine runs point to point in
  :mod:`repro.traffic`'s LoadEngine.

* **Fabric** (:mod:`.switch`, :mod:`.engine`, :mod:`.scenarios`): N
  hosts attached through a deterministic output-queued switch with
  shared-buffer contention (dynamic-threshold admission, per-port FIFO
  queues, an ECN marking hook), driven by fabric scenario presets — ``incast``,
  ``outcast``, ``flash_crowd`` and CDN-style ``zipf_fanout`` — built on
  :mod:`repro.traffic`'s seeded arrival/size machinery.

``python -m repro fabric sweep`` runs the head-to-head comparison — the
``fabric-backends`` grid of :mod:`repro.lab`, which also persists it;
every timestamp is integer picoseconds
(simlint F4T007 covers this package), so identical seeds replay
identical runs bit for bit.
"""

from .backend import (  # noqa: F401
    BackendSpec,
    available_backends,
    get_backend,
)
from .engine import FabricLoadEngine, FabricResult, run_fabric  # noqa: F401
from .service import (  # noqa: F401
    F4TService,
    FlexToeService,
    LinuxService,
    PnoService,
    ServiceModel,
)
from .scenarios import (  # noqa: F401
    FabricScenario,
    available_fabric_scenarios,
    get_fabric_scenario,
)
from .softstack import SoftStack  # noqa: F401
from .switch import SwitchFabric  # noqa: F401
