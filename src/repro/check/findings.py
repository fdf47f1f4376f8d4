"""Finding records shared by the linter and the runtime sanitizers, and
the machinery both sanitizers share.

The engines report through common shapes so the CLI can render one
human listing and one JSON artifact (``dataclasses.asdict`` of each
record): a :class:`Finding` is anchored to a file and line (simlint), a
:class:`RaceFinding` to a simulated cycle and a memory location (the
race sanitizer), and a :class:`LockstepFinding` to an epoch, a cell and
the source line of the hook that observed the violation (the lockstep
sanitizer).  :class:`Sanitizer` is the base of both sanitizers: a
capped findings list, shared counters and views over shared state.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, ClassVar, Dict, Generic, List, TypeVar, Union

#: Cap on recorded sanitizer findings, so a systematically broken run
#: cannot OOM the checker; the rest are counted as dropped.
MAX_FINDINGS = 1000


@dataclass(frozen=True)
class Finding:
    """One static-analysis finding, anchored to ``path:line:col``."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


@dataclass(frozen=True)
class RaceFinding:
    """One dynamic finding from the dual-memory race sanitizer.

    ``kind`` is one of the sanitizer's check names (``dual-writer``,
    ``valid-bit``, ``lost-update``, ``stale-write``,
    ``ghost-cache-line``, ``dup-cache-line``); ``table`` names the
    memory (``fpc3.tcb``, ``fpc3.events``, ``dram``, ``tcb-cache``) and
    ``slot`` the address within it (-1 for DRAM and the cache, which
    are keyed by flow).
    """

    kind: str
    cycle: int
    flow_id: int
    table: str
    slot: int
    writer: str
    message: str

    def render(self) -> str:
        return (
            f"cycle {self.cycle}: {self.kind} on {self.table}[{self.slot}] "
            f"flow {self.flow_id} (writer {self.writer}): {self.message}"
        )


@dataclass(frozen=True)
class LockstepFinding:
    """One violation of the conservative-PDES lockstep contract.

    ``kind`` is one of the lockstep sanitizer's check ids
    (``epoch-bound``, ``straggler``, ``duplicate-key``, ``heap-order``,
    ``admission-order``, ``merge-order``); ``site`` is the
    ``file:line`` of the hook that observed the violation, so a finding
    names both the contract and the code path that broke it.
    """

    kind: str
    epoch: int
    cell: int
    t_ps: int
    site: str
    message: str

    def render(self) -> str:
        return (
            f"epoch {self.epoch} cell {self.cell} t={self.t_ps}ps: "
            f"{self.kind} at {self.site}: {self.message}"
        )


F = TypeVar("F", bound=Union[RaceFinding, LockstepFinding])
S = TypeVar("S", bound="Sanitizer[Any]")


class Sanitizer(Generic[F]):
    """What the race and lockstep sanitizers share.

    One findings list capped at :data:`MAX_FINDINGS`, and one counter
    dict: ``tally`` counts what the sanitizer checked, ``dropped`` the
    findings past the cap.  A :meth:`_view` shares every piece of state
    with the object it came from (a testbed engine's namespace, a shard
    cell), so all views land findings in one list and one report.
    """

    #: The sanitizer's name in its report line.
    name: ClassVar[str]
    #: What one ``tally`` unit is: the JSON key, and the report's noun.
    tally_key: ClassVar[str]
    tally_noun: ClassVar[str]

    def __init__(self) -> None:
        self.findings: List[F] = []
        #: Shared counters (a dict so views mutate the same ints).
        self._counts: Dict[str, int] = {"tally": 0, "dropped": 0}

    def _view(self: S, **fields: object) -> S:
        """A copy that shares every container with ``self``; only
        ``fields`` differ."""
        view = type(self).__new__(type(self))
        view.__dict__.update(self.__dict__, **fields)
        return view

    @property
    def ok(self) -> bool:
        return not self.findings

    @property
    def tally(self) -> int:
        return self._counts["tally"]

    @property
    def dropped(self) -> int:
        return self._counts["dropped"]

    def report(self) -> str:
        lines = [finding.render() for finding in self.findings]
        noun = "violation" if len(self.findings) == 1 else "violations"
        lines.append(
            f"{self.name} sanitizer: {len(self.findings)} {noun} over "
            f"{self.tally} {self.tally_noun}"
            + (f" ({self.dropped} findings dropped at cap)"
               if self.dropped else "")
        )
        return "\n".join(lines)

    def to_json(self) -> Dict[str, Any]:
        """The CLI leg's ``--json`` payload."""
        return {
            self.tally_key: self.tally,
            "findings": [asdict(finding) for finding in self.findings],
        }

    def _record(self, finding: F) -> None:
        if len(self.findings) >= MAX_FINDINGS:
            self._counts["dropped"] += 1
            return
        self.findings.append(finding)
