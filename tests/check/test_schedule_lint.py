"""simlint coverage over integer-ps table idioms (F4T007/F4T010).

Slot offsets, a window base and a sort of coincident instants are where
the integer-picosecond contract (F4T007) and the total-order-key
contract (F4T010) are most tempting to shortcut: a float slot offset or
a float-keyed slot sort is invisibly wrong until two instants tie.
These snippets are linted as if they lived in the sim layer; mutated
variants must trip the rules and the integer forms must pass.
"""

from ._lint_source import lint_source


def ids(findings):
    return [finding.rule for finding in findings]


def lint_in_sim(source):
    return lint_source(source, path="src/repro/sim/component.py")


class TestF4T007CoversScheduleIdioms:
    def test_float_slot_offset_state_flagged(self):
        # The table's offsets are integer ps by contract; a float
        # literal seeding the offset state reintroduces drift.
        bad = (
            "class Table:\n"
            "    def __init__(self):\n"
            "        self.slot_offset_ps = 0.0\n"
        )
        assert ids(lint_in_sim(bad)) == ["F4T007"]

    def test_integer_offsets_ok(self):
        good = (
            "class Table:\n"
            "    def __init__(self, offsets):\n"
            "        self.window_ps = 500_000\n"
            "        self.slot_offset_ps = list(offsets)\n"
        )
        assert ids(lint_in_sim(good)) == []


class TestF4T010CoversScheduleIdioms:
    def test_float_heap_key_flagged(self):
        # A wakeup/slot heap keyed by float time in the sim layer: ties
        # between coincident 250/322 MHz edges break unpredictably.
        bad = (
            "import heapq\n"
            "def push(heap, domain, edge_s, index):\n"
            "    t = edge_s * 1.0\n"
            "    heapq.heappush(heap, (t, index))\n"
        )
        assert "F4T010" in ids(lint_in_sim(bad))

    def test_payload_sort_key_without_shield_flagged(self):
        # Sorting slots by (offset, domain object) compares the domain
        # payloads the moment two offsets tie (coincident edges do tie,
        # every 500 ns).
        bad = (
            "class Domain:\n"
            "    def __init__(self):\n"
            "        self.cycle = 0\n\n"
            "def merge(offsets):\n"
            "    d = Domain()\n"
            "    offsets.sort(key=lambda t: (t, d))\n"
        )
        assert "F4T010" in ids(lint_in_sim(bad))

    def test_registration_index_tiebreak_ok(self):
        # The real compiler's idiom: (integer offset, registration
        # index) is a total order.
        good = (
            "def merge(edges):\n"
            "    edges.sort(key=lambda e: (e.offset_ps, e.index))\n"
        )
        assert ids(lint_in_sim(good)) == []
