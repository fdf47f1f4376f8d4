"""Memory models: FPGA BRAM, on-board DRAM/HBM, CAM, partitioned LUTs.

These model the *timing and port* behaviour the paper's design depends on:

* BRAM is dual-ported, so the FPC's two tables provide four reads and four
  writes per two cycles (§4.2.3);
* DDR4 provides 38 GB/s and HBM 460 GB/s (§4.7), which is what throttles
  TCB swapping past 1024 flows (Fig 13);
* the CAM maps global flow IDs to local TCB-table indices (§4.4.2);
* the location LUT is built from logic LUTs partitioned into groups so the
  scheduler can route several events per cycle (§4.4.2).
"""

from __future__ import annotations

from typing import Any, Dict, Generic, List, Optional, TypeVar

V = TypeVar("V")

GIB = 1 << 30


class DualPortSRAM(Generic[V]):
    """A BRAM-like store allowing two accesses per port pair per cycle.

    Functionally it is an addressable array; the port discipline is
    tracked as statistics (``reads``/``writes``, the per-cycle read peak) rather
    than enforced by exceptions, because the FPC schedules its accesses
    statically (§4.2.3) and the tests assert the schedule stays within
    the port budget.
    """

    PORTS = 2

    def __init__(self, depth: int, name: str = "sram") -> None:
        if depth <= 0:
            raise ValueError(f"depth must be positive, got {depth}")
        self.depth = depth
        self.name = name
        self._data: List[Optional[V]] = [None] * depth
        self.reads = 0
        self.writes = 0
        self._cycle_accesses: Dict[int, int] = {}
        self.max_accesses_per_cycle = 0

    def _track(self, cycle: int) -> None:
        count = self._cycle_accesses.get(cycle, 0) + 1
        self._cycle_accesses = {cycle: count}
        if count > self.max_accesses_per_cycle:
            self.max_accesses_per_cycle = count

    def _out_of_range(self, addr: int) -> IndexError:
        return IndexError(
            f"{self.name}: address {addr} out of range 0..{self.depth - 1}"
        )

    # read/write sit under every event and every FPU pass: the bounds
    # check and the port accounting are inline, one call per access.
    def read(self, addr: int, cycle: Optional[int] = None) -> Optional[V]:
        if not 0 <= addr < self.depth:
            raise self._out_of_range(addr)
        self.reads += 1
        if cycle is not None:
            self._track(cycle)
        return self._data[addr]

    def write(self, addr: int, value: V) -> None:
        if not 0 <= addr < self.depth:
            raise self._out_of_range(addr)
        self.writes += 1
        self._data[addr] = value

    def clear(self, addr: int) -> None:
        if not 0 <= addr < self.depth:
            raise self._out_of_range(addr)
        self._data[addr] = None


class DRAMModel:
    """A bandwidth/latency model of an on-board memory channel.

    Transfers are serialized on the channel: a request issued at time
    ``now_ps`` completes at ``max(now, busy_until) + latency + n/bw``.
    This is the mechanism behind Fig 13's DRAM-throttled region — each
    echo request past 1024 flows costs a TCB swap-out plus swap-in.
    """

    def __init__(
        self,
        bandwidth_bytes_per_s: float,
        latency_ns: float = 100.0,
        per_request_overhead_ns: float = 0.0,
        name: str = "dram",
    ) -> None:
        if bandwidth_bytes_per_s <= 0:
            raise ValueError("bandwidth must be positive")
        self.bandwidth_bytes_per_s = bandwidth_bytes_per_s
        self.latency_ps = latency_ns * 1000.0
        # Row-activation / channel-arbitration cost charged per access;
        # this is what makes small random TCB swaps much slower than the
        # peak sequential bandwidth (Fig 13's DRAM-throttled region).
        self.per_request_overhead_ps = per_request_overhead_ns * 1000.0
        self.name = name
        self.busy_until_ps = 0.0
        self.bytes_transferred = 0
        self.requests = 0
        self._store: Dict[int, Any] = {}

    @classmethod
    def ddr4(cls) -> "DRAMModel":
        """The paper's DDR4 option: 38 GB/s peak (§4.7), single channel."""
        return cls(38 * GIB, latency_ns=100.0, per_request_overhead_ns=25.0, name="ddr4")

    @classmethod
    def hbm(cls) -> "DRAMModel":
        """The paper's HBM option: 460 GB/s across many channels (§4.7).

        HBM2's 16+ pseudo-channels hide per-access overheads for the
        engine's one-TCB-per-cycle access pattern, so the modelled
        per-request overhead is near zero.
        """
        return cls(460 * GIB, latency_ns=120.0, per_request_overhead_ns=2.0, name="hbm")

    def transfer(self, nbytes: int, now_ps: float) -> float:
        """Account a transfer of ``nbytes``; returns its completion time.

        The channel is occupied for overhead + nbytes/bandwidth; the
        returned completion additionally includes the access latency.
        """
        if nbytes < 0:
            raise ValueError("transfer size must be non-negative")
        start = max(now_ps, self.busy_until_ps)
        occupancy = (
            self.per_request_overhead_ps
            + nbytes / self.bandwidth_bytes_per_s * 1e12
        )
        self.busy_until_ps = start + occupancy
        self.bytes_transferred += nbytes
        self.requests += 1
        return start + occupancy + self.latency_ps

    # Functional backing store (the TCB home location).
    def store(self, addr: int, value: Any) -> None:
        self._store[addr] = value

    def load(self, addr: int) -> Any:
        return self._store.get(addr)

    def utilization(self, elapsed_ps: float) -> float:
        """Fraction of the channel's bandwidth consumed over ``elapsed_ps``."""
        if elapsed_ps <= 0:
            return 0.0
        used = self.bytes_transferred / self.bandwidth_bytes_per_s * 1e12
        return min(1.0, used / elapsed_ps)


class CAM(Generic[V]):
    """Content-addressable memory: key -> slot index, bounded capacity.

    The paper implements it as a comparator array plus a binary log
    module and relies on the scheduler's routing guarantee that lookups
    always hit exactly one entry (§4.4.2); :meth:`lookup` mirrors that by
    raising on a miss while :meth:`try_lookup` is the forgiving probe.
    """

    def __init__(self, capacity: int, name: str = "cam") -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.name = name
        self._slots: Dict[Any, int] = {}
        self._free: List[int] = list(range(capacity - 1, -1, -1))

    def __len__(self) -> int:
        return len(self._slots)

    def __contains__(self, key: Any) -> bool:
        return key in self._slots

    @property
    def full(self) -> bool:
        return not self._free

    def insert(self, key: Any) -> int:
        """Bind ``key`` to a free slot; returns the slot index."""
        if key in self._slots:
            raise KeyError(f"{self.name}: duplicate key {key!r}")
        if not self._free:
            raise OverflowError(f"{self.name}: CAM full ({self.capacity} entries)")
        slot = self._free.pop()
        self._slots[key] = slot
        return slot

    def lookup(self, key: Any) -> int:
        if key not in self._slots:
            raise KeyError(
                f"{self.name}: lookup miss for {key!r} — the scheduler must "
                "only route events whose TCB lives here (§4.3.2)"
            )
        return self._slots[key]

    def try_lookup(self, key: Any) -> Optional[int]:
        return self._slots.get(key)

    def remove(self, key: Any) -> int:
        slot = self.lookup(key)
        del self._slots[key]
        self._free.append(slot)
        return slot

    def keys(self) -> List[Any]:
        return list(self._slots)


def _stable_partition(key: Any) -> int:
    """PYTHONHASHSEED-free hash for partition selection.

    Matches builtin ``hash()`` for the small non-negative ints flow ids
    use — so group assignments (and the access stats benches read off
    them) are unchanged — while str/bytes/tuple keys hash identically
    across worker processes.
    """
    if isinstance(key, bool):
        return int(key)
    if isinstance(key, int):
        return key
    if isinstance(key, str):
        key = key.encode("utf-8")
    if isinstance(key, (bytes, bytearray)):
        value = 0xCBF29CE484222325
        for byte in key:
            value = ((value ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
        return value
    if isinstance(key, tuple):
        value = 0x345678
        for item in key:
            value = (value * 1000003 ^ _stable_partition(item))
            value &= 0xFFFFFFFFFFFFFFFF
        return value
    raise TypeError(
        f"no stable hash for LUT key type {type(key).__name__}; use "
        "int/str/bytes/tuple keys"
    )


class PartitionedLUT:
    """The location LUT built from logic LUTs, hash-partitioned into groups.

    Each group supports one access per cycle, so ``groups`` accesses per
    cycle in total; eight FPCs each accepting an event every two cycles
    need four partitions (§4.4.2).  Access-rate accounting is kept as
    statistics for the benches.
    """

    def __init__(self, groups: int) -> None:
        if groups <= 0:
            raise ValueError(f"groups must be positive, got {groups}")
        self.groups = groups
        self._tables: List[Dict[Any, Any]] = [{} for _ in range(groups)]
        self.accesses = 0

    def _group_of(self, key: Any) -> Dict[Any, Any]:
        return self._tables[_stable_partition(key) % self.groups]

    def __contains__(self, key: Any) -> bool:
        return key in self._group_of(key)

    # A flow id — a plain int, what the engine keys the LUT by — is its
    # own partition hash (see _stable_partition): one call per access.
    def get(self, key: Any, default: Any = None) -> Any:
        self.accesses += 1
        if type(key) is int:
            return self._tables[key % self.groups].get(key, default)
        return self._group_of(key).get(key, default)

    def set(self, key: Any, value: Any) -> None:
        self.accesses += 1
        if type(key) is int:
            self._tables[key % self.groups][key] = value
        else:
            self._group_of(key)[key] = value

    def delete(self, key: Any) -> None:
        self.accesses += 1
        if type(key) is int:
            self._tables[key % self.groups].pop(key, None)
        else:
            self._group_of(key).pop(key, None)

    def __len__(self) -> int:
        return sum(len(t) for t in self._tables)
