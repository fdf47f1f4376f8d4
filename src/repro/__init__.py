"""F4T reproduction: a fast and flexible full-stack TCP acceleration
framework (Boo et al., ISCA 2023), rebuilt in Python.

Subpackages:

* :mod:`repro.sim` — hardware primitives (components, FIFOs, pipelines,
  memories) and stats; each model above keeps its own clock;
* :mod:`repro.tcp` — the TCP protocol substrate;
* :mod:`repro.engine` — FtEngine, the paper's contribution;
* :mod:`repro.host` — the host side as calibrated CPU and PCIe costs,
  and the Linux baseline;
* :mod:`repro.net` — links, frames and the fault-injecting wire;
* :mod:`repro.apps` — the evaluation workloads;
* :mod:`repro.refsim` — the independent reference TCP simulator;
* :mod:`repro.analysis` — per-exhibit experiment drivers and reporting.

Quick start (``examples/quickstart.py`` is the whole exchange)::

    from repro.engine import Testbed

    testbed = Testbed()
    client, server = testbed.engine_a, testbed.engine_b
    a_flow, b_flow = testbed.establish()  # listen(80), connect, accept
    client.send_data(a_flow, b"hello")
    testbed.run(until=lambda: server.readable(b_flow) >= 5)
    print(server.recv_data(b_flow, 5))
"""

from typing import TYPE_CHECKING, Callable, Dict, TypeVar

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from multiprocessing.context import BaseContext

__version__ = "1.1.0"
__paper__ = (
    "F4T: A Fast and Flexible FPGA-based Full-stack TCP Acceleration "
    "Framework, ISCA 2023, doi:10.1145/3579371.3589090"
)

F = TypeVar("F")


class UnknownNameError(KeyError):
    """A :class:`Registry` has no entry of that name.

    ``args[0]`` is the whole message, ending in the names that do exist.
    Nothing else raises it, so the CLI can turn it into exit code 2
    without hiding a stray ``KeyError`` from inside a run.
    """


class CorruptStoreError(Exception):
    """A lab run store that SQLite cannot read (not a database, or
    truncated).  ``args[0]`` is one line naming the file, which the CLI
    prints before exiting 2."""


class Registry(Dict[str, F]):
    """Named entries of one ``kind`` — the scenario, grid and backend
    tables the CLI verbs look names up in."""

    def __init__(self, kind: str) -> None:
        super().__init__()
        self.kind = kind

    def register(self, name: str) -> Callable[[F], F]:
        """``@registry.register("name")`` adds the decorated entry."""
        def decorate(entry: F) -> F:
            self[name] = entry
            return entry

        return decorate

    def __missing__(self, name: str) -> F:
        raise UnknownNameError(
            f"unknown {self.kind} {name!r}; available: " + ", ".join(sorted(self))
        )


def mp_context() -> "BaseContext":
    """The start method the worker pools (``repro.lab``, ``repro.shard``)
    share: fork keeps the already imported simulator modules without a
    re-import; the platform default elsewhere."""
    import multiprocessing  # ~18 ms that ``import repro`` should not pay

    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()
