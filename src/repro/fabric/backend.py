"""The ``OffloadBackend`` protocol and the backend registry.

The protocol is the duck-typed host-facing surface that
:class:`~repro.traffic.engine.LoadEngine`, the ``repro.apps`` presets
and the fabric driver all program against.  It was *extracted* from
:class:`~repro.engine.ftengine.FtEngine` — the F4T engine already
satisfies it unchanged, which is why refactoring the apps and traffic
layers onto the interface is provably non-behavioral (the pinned trace
fingerprints in ``tests/traffic/test_kernel_equivalence.py`` cannot
move).

Four registered backends:

=============  =======  ============  =====================================
name           kind     provenance    what runs
=============  =======  ============  =====================================
``f4t``        engine   paper-backed  the real cycle-driven FtEngine pair
``flextoe``    soft     model-backed  SoftStack + FlexToeService
``pno``        soft     model-backed  SoftStack + PnoService
``linux_stack``  soft   calibrated    SoftStack + LinuxService
=============  =======  ============  =====================================

``build_point_to_point`` returns a testbed object (``engine_a``/
``engine_b``/``wire``/``run``/``now_s``/``cycle``) for any backend name.
:class:`~repro.traffic.engine.LoadEngine` calls it for the soft
backends only; for ``f4t`` it builds the engine
:class:`~repro.engine.testbed.Testbed` itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any,
    Deque,
    Dict,
    Optional,
    Protocol,
    Tuple,
    Type,
)

from .. import Registry
from ..net.wire import Wire
from ..tcp.state_machine import TcpState
from .service import (
    F4TService,
    FlexToeService,
    LinuxService,
    PnoService,
    ServiceModel,
)
from .softstack import SoftTestbed


class OffloadBackend(Protocol):
    """Host-facing surface every offload engine exposes.

    ``flow`` handles are opaque ints; ``flows`` maps them to records
    whose ``.key`` is a :class:`~repro.tcp.segment.FlowKey` (the driver
    reads ephemeral ports off it to pair accepts with connects).
    ``host_messages`` carries :class:`~repro.engine.ftengine.
    EngineMessage` notifications ('connected', 'accepted', 'acked',
    'data', 'eof', 'closed', 'reset') that drive the load engine's
    dirty-set pump.
    """

    ip: int
    flows: Dict[int, Any]
    host_messages: Dict[int, Deque[Any]]

    def listen(self, port: int) -> None: ...

    def connect(self, dst_ip: int, dst_port: int) -> int: ...

    def accept(self, port: int) -> Optional[int]: ...

    def flow_state(self, flow_id: int) -> Optional[TcpState]: ...

    def send_data(self, flow_id: int, data: bytes) -> int: ...

    def readable(self, flow_id: int) -> int: ...

    def recv_data(self, flow_id: int, nbytes: int) -> bytes: ...

    def close_flow(self, flow_id: int) -> None: ...


@dataclass(frozen=True)
class BackendSpec:
    """One registered offload backend."""

    name: str
    title: str
    #: ``engine`` = the real cycle-driven FtEngine; ``soft`` = SoftStack
    #: over a per-backend service model.
    kind: str
    #: ``paper-backed`` (the reproduced artifact), ``calibrated``
    #: (constants measured against this repo's host calibration) or
    #: ``model-backed`` (published architecture, modeled timings).
    provenance: str
    description: str
    #: The fabric-host service model (the soft backends' whole timing
    #: model; F4T's stand-in when it sits in an N-host fabric).
    service_class: Type[ServiceModel]


_REGISTRY: Registry[BackendSpec] = Registry("backend")
_REGISTRY.update(
    (spec.name, spec)
    for spec in (
        BackendSpec(
            name="f4t",
            title="F4T FPC engine",
            kind="engine",
            provenance="paper-backed",
            description=(
                "The reproduced F4T engine: parallel flow processing "
                "cores at 250 MHz, dual-memory TCBs, event coalescing. "
                "Point-to-point runs use the real cycle-driven FtEngine; "
                "N-host fabrics use its service model."
            ),
            service_class=F4TService,
        ),
        BackendSpec(
            name="flextoe",
            title="FlexTOE-style pipeline parallelism",
            kind="soft",
            provenance="model-backed",
            description=(
                "One deep data-path pipeline, no per-flow cores: segment "
                "rate independent of flow count, at pipeline-depth "
                "latency."
            ),
            service_class=FlexToeService,
        ),
        BackendSpec(
            name="pno",
            title="PnO-style off-path SmartNIC proxy",
            kind="soft",
            provenance="model-backed",
            description=(
                "TCP terminates on the SmartNIC SoC off the host's "
                "critical path; every segment pays the proxy hop."
            ),
            service_class=PnoService,
        ),
        BackendSpec(
            name="linux_stack",
            title="Linux in-kernel stack baseline",
            kind="soft",
            provenance="calibrated",
            description=(
                "The kernel-stack baseline from this repo's calibrated "
                "per-send cycle costs (host.calibration)."
            ),
            service_class=LinuxService,
        ),
    )
)

#: Aliases accepted anywhere a backend name is: the traffic layer's
#: historical default label maps to the real engine.
_ALIASES = {"functional": "f4t"}


def available_backends() -> Tuple[str, ...]:
    """Registered backend names, registration order."""
    return tuple(_REGISTRY)


def get_backend(name: str) -> BackendSpec:
    return _REGISTRY[_ALIASES.get(name, name)]


def build_point_to_point(
    backend: str = "f4t",
    drop_probability: float = 0.0,
    reorder_probability: float = 0.0,
    seed: int = 0,
):
    """Build a two-host point-to-point testbed for any backend.

    Returns :class:`~repro.engine.testbed.Testbed` for ``f4t`` (the real
    engine, byte-identical to constructing it directly) and
    :class:`~repro.fabric.softstack.SoftTestbed` for the soft backends.
    Both satisfy the same testbed surface, so callers never branch.
    """
    spec = get_backend(backend)
    if spec.kind == "engine":
        impaired = drop_probability > 0 or reorder_probability > 0
        wire = (
            Wire.impaired(
                seed,
                drop_probability=drop_probability,
                reorder_probability=reorder_probability,
            )
            if impaired
            else Wire()
        )
        from ..engine.testbed import Testbed

        return Testbed(wire=wire)
    if reorder_probability > 0:
        raise ValueError(
            f"backend {spec.name!r} does not model reordering; "
            "reorder impairments require the f4t engine backend"
        )
    return SoftTestbed(
        service_factory=spec.service_class,
        drop_probability=drop_probability,
        seed=seed,
        backend=spec.name,
    )
