"""Cuckoo hash table: the RX parser's flow-lookup structure."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.tcp.cuckoo import CuckooHashTable
from repro.tcp.segment import FlowKey


class TestBasics:
    def test_insert_get(self):
        table = CuckooHashTable(64)
        table.insert("key", 7)
        assert table.get("key") == 7
        assert "key" in table

    def test_missing_returns_none(self):
        assert CuckooHashTable(64).get("ghost") is None

    def test_update_in_place(self):
        table = CuckooHashTable(64)
        table.insert("key", 1)
        table.insert("key", 2)
        assert table.get("key") == 2
        assert len(table) == 1

    def test_remove(self):
        table = CuckooHashTable(64)
        table.insert("key", 1)
        assert table.remove("key") == 1
        assert table.get("key") is None
        assert len(table) == 0

    def test_remove_missing(self):
        assert CuckooHashTable(64).remove("ghost") is None

    def test_rejects_tiny_capacity(self):
        with pytest.raises(ValueError):
            CuckooHashTable(1)

    def test_address_bearing_keys_rejected(self):
        """A default object repr embeds a process-local address; plain
        tuples (and subclasses printing as one) are walked for them, a
        record type with its own repr is one check."""

        class Bare:
            pass

        class Pair(tuple):
            pass

        table = CuckooHashTable(64)
        for bad in (Bare(), (1, Bare()), (1, (2, Bare())), Pair((1, Bare()))):
            with pytest.raises(TypeError, match="default object repr"):
                table.insert(bad, 0)
            with pytest.raises(TypeError):
                table.get(bad)
        table.insert((1, ("a", 2)), 5)
        table.insert(Pair((1, 2)), 6)
        assert table.get((1, ("a", 2))) == 5
        assert len(table) == 2

    def test_flow_key_usage(self):
        """The actual use: 4-tuple -> flow id (§4.1.2)."""
        table = CuckooHashTable(1024)
        keys = [FlowKey(10, 1000 + i, 20, 80) for i in range(500)]
        for i, key in enumerate(keys):
            table.insert(key, i)
        assert all(table.get(key) == i for i, key in enumerate(keys))

    def test_displacement_keeps_keys_findable(self):
        """Cuckoo kicks relocate residents; they must stay reachable."""
        table = CuckooHashTable(256)
        for i in range(100):
            table.insert(f"key{i}", i)
        assert table.kicks >= 0  # displacement may or may not occur
        assert all(table.get(f"key{i}") == i for i in range(100))

    def test_items_iterates_everything(self):
        table = CuckooHashTable(64)
        for i in range(20):
            table.insert(i, i * 10)
        assert dict(table.items()) == {i: i * 10 for i in range(20)}

    def test_load_factor(self):
        table = CuckooHashTable(100)
        for i in range(25):
            table.insert(i, i)
        assert table.load_factor == pytest.approx(0.25)

    def test_overflow_raises_when_truly_full(self):
        table = CuckooHashTable(4)  # 2+2 slots + stash of 8
        inserted = 0
        with pytest.raises(OverflowError):
            for i in range(1000):
                table.insert(i, i)
                inserted += 1
        # Everything accepted before the overflow stays findable.
        assert all(table.get(i) == i for i in range(inserted))


class TestModelBased:
    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["insert", "remove", "get"]),
                st.integers(min_value=0, max_value=200),
            ),
            max_size=300,
        )
    )
    def test_matches_dict_semantics(self, operations):
        """Insert/remove/get churn behaves exactly like a dict."""
        table = CuckooHashTable(2048)
        model = {}
        for op, key in operations:
            if op == "insert":
                table.insert(key, key * 3)
                model[key] = key * 3
            elif op == "remove":
                assert table.remove(key) == model.pop(key, None)
            else:
                assert table.get(key) == model.get(key)
        assert len(table) == len(model)
        for key, value in model.items():
            assert table.get(key) == value

    @settings(max_examples=25, deadline=None)
    @given(st.sets(st.integers(), min_size=1, max_size=400))
    def test_high_load_insertion(self, keys):
        table = CuckooHashTable(1024)
        for key in keys:
            table.insert(key, key)
        assert len(table) == len(keys)
        assert all(table.get(key) == key for key in keys)


class _AlwaysHashing(CuckooHashTable):
    """The table before it kept indices: every probe hashes the key."""

    def _buckets(self, key):
        return (self._hash(key, 0), self._hash(key, 1))


def _layout(table):
    return (
        [list(t) for t in table._tables], dict(table._stash), len(table),
        table.kicks, table.max_kick_chain, table.stash_inserts,
        table.inserts, table.failed_inserts,
    )


class TestKeptIndices:
    """A resident key's two bucket indices are computed once, at insert,
    and kept until ``remove``: a memo of the hash, never a second
    placement rule."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["insert", "insert", "remove", "get"]),
                st.integers(min_value=0, max_value=40),
            ),
            max_size=200,
        )
    )
    def test_index_store_is_exactly_the_residents(self, operations):
        """Through kicks, stash spills, removes and refused inserts (16
        slots + 8 stash against up to 41 keys reaches them all), and
        with the layout an always-hashing table ends up with."""
        table, reference = CuckooHashTable(16), _AlwaysHashing(16)
        for op, key in operations:
            outcomes = []
            for t in (table, reference):
                try:
                    if op == "insert":
                        outcomes.append(t.insert(key, key * 3))
                    elif op == "remove":
                        outcomes.append(t.remove(key))
                    else:
                        outcomes.append(t.get(key))
                except OverflowError as error:
                    outcomes.append(str(error))
            assert outcomes[0] == outcomes[1]
            assert _layout(table) == _layout(reference)
            residents = {(type(k), k) for k, _ in table.items()}
            assert set(table._indices) == residents
            assert len(table._indices) == len(table)
            for (_, k), kept in table._indices.items():
                assert kept == (table._hash(k, 0), table._hash(k, 1))

    def test_the_churn_reaches_kicks_stash_and_refusal(self):
        table = CuckooHashTable(16)
        with pytest.raises(OverflowError):
            for key in range(100):
                table.insert(key, key)
        assert table.kicks and table.stash_inserts == table.STASH_SIZE
        assert table.failed_inserts == 1
        # The refused key was never resident: nothing kept for it, and
        # the undo put every displaced key back where its indices say.
        assert len(table._indices) == len(table) == sum(1 for _ in table.items())
        assert all(table.get(key) == key for key, _ in list(table.items()))

    def test_a_resident_key_is_not_hashed_again(self, monkeypatch):
        table = CuckooHashTable(1024)
        keys = [FlowKey(10, 1000 + i, 20, 80) for i in range(200)]
        for i, key in enumerate(keys):
            table.insert(key, i)
        hashed = []
        hash_ = CuckooHashTable._hash
        monkeypatch.setattr(
            CuckooHashTable, "_hash",
            lambda self, key, which: hashed.append(key) or hash_(self, key, which),
        )
        assert all(table.get(key) == i for i, key in enumerate(keys))
        table.insert(keys[0], -1)  # update in place
        assert table.remove(keys[1]) == 1
        assert hashed == []
        assert table.get(keys[1]) is None  # gone: hashed, as any miss is
        assert hashed == [keys[1], keys[1]]

    def test_absent_lookups_keep_nothing(self):
        table = CuckooHashTable(256)
        for i in range(50):
            table.insert(FlowKey(10, i, 20, 80), i)
        kept = dict(table._indices)
        for i in range(10_000):
            assert table.get(FlowKey(11, i, 20, 80)) is None
        assert table._indices == kept and len(kept) == 50

    def test_an_equal_plain_tuple_does_not_borrow_a_flow_keys_placement(self):
        """``FlowKey(...) == tuple(...)`` and they hash alike as dict
        keys, but they print — so place — differently."""
        table, reference = CuckooHashTable(1024), _AlwaysHashing(1024)
        key = FlowKey(0x0A000001, 40000, 0x0A000002, 80)
        plain = tuple(key)
        assert plain == key and hash(plain) == hash(key)
        for t in (table, reference):
            t.insert(key, 7)
        assert table._buckets(plain) == reference._buckets(plain)
        assert table._buckets(plain) != table._buckets(key)
        assert table.get(plain) == reference.get(plain)
        assert list(table._indices) == [(FlowKey, key)]
        # Both resident: two entries, two kept placements.
        for t in (table, reference):
            t.insert(plain, 8)
        assert _layout(table) == _layout(reference)
        assert len(table) == 2 and set(table._indices) == {(FlowKey, key), (tuple, plain)}
        assert (table.get(key), table.get(plain)) == (7, 8)
