"""Cuckoo hash table mapping flow 4-tuples to flow IDs.

The RX parser retrieves a received packet's flow ID by looking up a
cuckoo hash table with the 4-tuple (§4.1.2, after Xilinx's HLS packet
processing library).  Cuckoo hashing gives worst-case O(1) lookups — two
bucket probes — which is what lets the parser run at line rate.

Two tables, each probed with an independent hash; inserts displace
residents along a bounded kick chain and fall back to a small stash, so
the table keeps its constant-time lookup guarantee under load.

A key's two bucket indices are a function of the key alone, so they are
computed once, when the key becomes resident, and kept beside the entry
until it is removed (the flow-table shape of Hatami et al., PAPERS.md):
looking a resident key up is two bucket probes, not two hashes.  Each
table keeps only its occupied buckets (index -> entry), so the table
costs what it holds, not what it could hold: an engine sized for 64 K
flows pays for the flows it has.
"""

from __future__ import annotations

from typing import Dict, Generic, Hashable, Iterator, List, Optional, Tuple, TypeVar

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


class CuckooFullError(OverflowError):
    """Insertion failed: both buckets, the kick chain, and the stash are
    exhausted.  The table state is unchanged (the kick chain is undone),
    so callers can shed the flow or grow the table — silent degradation
    is not an option at line rate."""


def _fnv1a(data: bytes, seed: int) -> int:
    value = _FNV_OFFSET ^ seed
    for byte in data:
        value ^= byte
        value = (value * _FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    return value


def _validate_key(key: object) -> None:
    """Reject key types whose default repr embeds the object address.

    Only a tuple printed by ``tuple.__repr__`` — its items' reprs — is
    walked; a record type with a ``__repr__`` of its own (``FlowKey``)
    answers for its fields in one check per lookup.
    """
    key_repr = type(key).__repr__
    if key_repr is tuple.__repr__:
        for item in key:
            _validate_key(item)
    elif key_repr is object.__repr__:
        raise TypeError(
            f"{type(key).__name__} has the default object repr; cuckoo "
            "keys need a stable __repr__ (or a plain field tuple) so "
            "placements match across worker processes"
        )


def _key_bytes(key: object) -> bytes:
    """Canonical bytes for seeded hashing.

    ``repr`` is stable for the int/str/(nested) tuple keys flow tables
    use; :func:`_validate_key` rejects exactly the default-object-repr
    case where the bytes would embed a process-local address.
    """
    _validate_key(key)
    return repr(key).encode()  # f4t: noqa[F4T009] default reprs rejected


class CuckooHashTable(Generic[K, V]):
    """Two-table cuckoo hash with a bounded stash.

    ``capacity`` is the total number of slots; lookups probe at most one
    slot per table plus the stash, independent of occupancy.  A slot
    absent from its table's dict is empty.
    """

    MAX_KICKS = 64
    STASH_SIZE = 8

    def __init__(self, capacity: int) -> None:
        if capacity < 2:
            raise ValueError(f"capacity must be >= 2, got {capacity}")
        self._table_size = capacity // 2
        #: The occupied buckets of each table: index -> (key, value).
        self._tables: List[Dict[int, Tuple[K, V]]] = [{}, {}]
        self._stash: Dict[K, V] = {}
        #: (type, key) -> its bucket index in each table, packed into one
        #: int (``first << 32 | second``), for resident keys only: stored
        #: when an insert succeeds, dropped by ``remove``, so
        #: ``len(_indices) == len(self)``.  The type is part of the key
        #: because equal keys of different types (``FlowKey(1, 2, 3, 4)
        #: == (1, 2, 3, 4)``) print, hence hash and place, differently.
        self._indices: Dict[Tuple[type, K], int] = {}
        self._count = 0
        self.lookups = 0
        self.kicks = 0
        self.inserts = 0
        self.failed_inserts = 0
        self.stash_inserts = 0
        self.max_kick_chain = 0

    def __len__(self) -> int:
        return self._count

    @property
    def capacity(self) -> int:
        return 2 * self._table_size

    @property
    def load_factor(self) -> float:
        return self._count / self.capacity

    def _hash(self, key: K, table: int) -> int:
        data = _key_bytes(key)
        return _fnv1a(data, seed=0x9E3779B9 * (table + 1)) % self._table_size

    def _buckets(self, key: K) -> Tuple[int, int]:
        """``key``'s bucket index in each table: kept for a resident
        key, hashed (and not kept) for any other."""
        packed = self._indices.get((type(key), key))
        if packed is None:
            return self._hash(key, 0), self._hash(key, 1)
        return packed >> 32, packed & 0xFFFFFFFF

    # ------------------------------------------------------------- queries
    def get(self, key: K) -> Optional[V]:
        """Constant-time lookup: two bucket probes plus the stash."""
        self.lookups += 1
        first, second = self._buckets(key)
        slot = self._tables[0].get(first)
        if slot is not None and slot[0] == key:
            return slot[1]
        slot = self._tables[1].get(second)
        if slot is not None and slot[0] == key:
            return slot[1]
        return self._stash.get(key)

    def __contains__(self, key: K) -> bool:
        return self.get(key) is not None

    # ------------------------------------------------------------- updates
    def insert(self, key: K, value: V) -> None:
        """Insert or update; raises :class:`CuckooFullError` when full."""
        self.inserts += 1
        buckets = self._buckets(key)
        for table in (0, 1):
            index = buckets[table]
            slot = self._tables[table].get(index)
            if slot is not None and slot[0] == key:
                self._tables[table][index] = (key, value)
                return
        if key in self._stash:
            self._stash[key] = value
            return

        # The new key is resident unless the insert fails below; every
        # key the kick chain moves already is, so nothing is hashed here.
        self._indices[(type(key), key)] = buckets[0] << 32 | buckets[1]
        entry: Tuple[K, V] = (key, value)
        table = 0
        path: List[Tuple[int, int]] = []
        chain = 0
        for _ in range(self.MAX_KICKS):
            index = self._buckets(entry[0])[table]
            resident = self._tables[table].get(index)
            self._tables[table][index] = entry
            path.append((table, index))
            if resident is None:
                self._count += 1
                if chain > self.max_kick_chain:
                    self.max_kick_chain = chain
                return
            self.kicks += 1
            chain += 1
            entry = resident
            table ^= 1
        self.max_kick_chain = max(self.max_kick_chain, chain)
        if len(self._stash) < self.STASH_SIZE:
            self._stash[entry[0]] = entry[1]
            self._count += 1
            self.stash_inserts += 1
            return
        # No room anywhere: undo the whole kick chain so every
        # previously inserted key stays findable, then refuse loudly —
        # a flow the parser cannot look up is a correctness bug, not a
        # performance wobble.  Every bucket on the path was occupied
        # (the chain ends at its first empty one), so each swap puts a
        # resident back.
        for undo_table, undo_index in reversed(path):
            entry, self._tables[undo_table][undo_index] = (
                self._tables[undo_table][undo_index],
                entry,
            )
        del self._indices[(type(key), key)]
        self.failed_inserts += 1
        raise CuckooFullError(
            f"cuckoo table full: {self._count}/{self.capacity} entries "
            f"(load factor {self.load_factor:.3f}), kick chain of "
            f"{self.MAX_KICKS} exhausted and stash at {len(self._stash)}/"
            f"{self.STASH_SIZE}"
        )

    def remove(self, key: K) -> Optional[V]:
        """Delete ``key``; returns its value or None if absent."""
        buckets = self._buckets(key)
        for table in (0, 1):
            index = buckets[table]
            slot = self._tables[table].get(index)
            if slot is not None and slot[0] == key:
                del self._tables[table][index]
                self._count -= 1
                self._indices.pop((type(slot[0]), slot[0]), None)
                return slot[1]
        for resident in self._stash:
            if resident == key:
                self._count -= 1
                self._indices.pop((type(resident), resident), None)
                return self._stash.pop(resident)
        return None

    def items(self) -> Iterator[Tuple[K, V]]:
        """Residents in bucket order (table 0, table 1), then the stash."""
        for table in self._tables:
            for index in sorted(table):
                yield table[index]
        yield from self._stash.items()

    def metrics(self) -> Dict[str, float]:
        """Flat counters for obs metrics / ``stats_report`` ingestion."""
        return {
            "entries": self._count,
            "capacity": self.capacity,
            "load_factor": round(self.load_factor, 6),
            "lookups": self.lookups,
            "inserts": self.inserts,
            "kicks": self.kicks,
            "max_kick_chain": self.max_kick_chain,
            "stash_entries": len(self._stash),
            "stash_inserts": self.stash_inserts,
            "failed_inserts": self.failed_inserts,
        }
