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
