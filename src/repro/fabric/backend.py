"""The backend registry: the offload designs the fabric compares.

Four registered backends, each a service model under the fabric's
:class:`~repro.fabric.softstack.SoftStack` hosts:

=============  =======  ============  =====================================
name           kind     provenance    what the service model stands for
=============  =======  ============  =====================================
``f4t``        engine   paper-backed  the cycle-driven FtEngine pair
``flextoe``    soft     model-backed  FlexTOE's data-path pipeline
``pno``        soft     model-backed  PnO's off-path SmartNIC proxy
``linux_stack``  soft   calibrated    the in-kernel stack
=============  =======  ============  =====================================

The F4T engine itself runs point to point in
:class:`~repro.engine.testbed.Testbed` (``repro traffic``); the others
exist only as service models, so they run where the fabric runs them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple, Type

from .. import Registry
from .service import (
    F4TService,
    FlexToeService,
    LinuxService,
    PnoService,
    ServiceModel,
)


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

def available_backends() -> Tuple[str, ...]:
    """Registered backend names, registration order."""
    return tuple(_REGISTRY)


def get_backend(name: str) -> BackendSpec:
    return _REGISTRY[name]
