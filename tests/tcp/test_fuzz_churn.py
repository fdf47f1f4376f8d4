"""Seeded churn fuzz: the RX parser's cuckoo flow table past 90% load.

The same seeded churn stream drives the table to past 90% load factor,
every lookup checked against a dict oracle.
"""

import random

import pytest

from repro.tcp.cuckoo import CuckooFullError, CuckooHashTable


class TestCuckooChurnFuzz:
    @pytest.mark.parametrize("seed", [1234, 7, 99])
    def test_dict_oracle_past_90_percent_load(self, seed):
        rng = random.Random(seed)
        capacity = 512
        table = CuckooHashTable(capacity)
        oracle = {}
        next_key = 0
        # Fill to >90% load with churn (inserts outnumber removes 3:1),
        # checking every lookup against the dict oracle as we go.
        while table.load_factor <= 0.9:
            op = rng.random()
            if op < 0.75 or not oracle:
                key, next_key = next_key, next_key + 1
                try:
                    table.insert(key, key * 7)
                    oracle[key] = key * 7
                except CuckooFullError:
                    break  # stash exhausted before 90%: rare, still valid
            elif op < 0.9:
                victim = rng.choice(list(oracle))
                assert table.remove(victim) == oracle.pop(victim)
            else:
                probe = rng.randrange(next_key + 10)
                assert table.get(probe) == oracle.get(probe)
        assert table.load_factor > 0.9 or table.failed_inserts > 0
        for key, value in oracle.items():
            assert table.get(key) == value
        metrics = table.metrics()
        assert metrics["entries"] == len(oracle)
        assert metrics["inserts"] == next_key
        assert metrics["max_kick_chain"] <= table.MAX_KICKS

    def test_full_error_reports_and_preserves_state(self):
        table = CuckooHashTable(8)
        inserted = {}
        with pytest.raises(CuckooFullError) as excinfo:
            for key in range(10000):
                table.insert(key, key)
                inserted[key] = key
        assert "load factor" in str(excinfo.value)
        assert table.failed_inserts == 1
        # The failed insert left every prior entry findable (undo path).
        for key, value in inserted.items():
            assert table.get(key) == value
