"""``repro.fabric`` — pluggable offload backends + data-center fabrics.

Two halves, one design-space laboratory:

* **Backends** (:mod:`.backend`): the :class:`OffloadBackend` protocol
  extracted over the functional TCP stack, with four implementations —
  the paper's F4T FPC engine (the real :class:`~repro.engine.ftengine.
  FtEngine`, unchanged behind the interface), a FlexTOE-style
  pipeline-parallel data path, a PnO-style off-path SmartNIC proxy, and
  the calibrated ``linux_stack`` baseline.  Point-to-point runs of any
  backend plug straight into :mod:`repro.traffic`'s LoadEngine
  (``LoadEngine(backend=...)`` / ``run_scenario(..., backend=...)``).

* **Fabric** (:mod:`.switch`, :mod:`.engine`, :mod:`.scenarios`): N
  hosts attached through a deterministic output-queued switch with
  shared-buffer contention (static/shared/dynamic-threshold
  partitioning, per-port FIFO or deficit-round-robin fair queueing, an
  ECN marking hook), driven by fabric scenario presets — ``incast``,
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
    OffloadBackend,
    available_backends,
    build_point_to_point,
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
from .softstack import SoftStack, SoftTestbed  # noqa: F401
from .switch import SwitchConfig, SwitchFabric  # noqa: F401
