"""simlint rules: known-good and known-bad snippets for every rule."""

from repro.check import layer_of
from repro.check.index import Module
from repro.check.rules import all_rules

from ._lint_source import lint_source


def ids(findings):
    return [finding.rule for finding in findings]


def lint_in_layer(source, layer="engine"):
    return lint_source(source, path=f"src/repro/{layer}/mod.py")


class TestRegistry:
    def test_rule_ids_unique_and_formatted(self):
        seen = [rule.rule_id for rule in all_rules()]
        assert len(seen) == len(set(seen))
        for rule_id in seen:
            assert rule_id.startswith("F4T") and len(rule_id) == 6

    def test_layer_of(self):
        assert Module("src/repro/engine/fpc.py", "").layer == "engine"
        assert Module("src/repro/__main__.py", "").layer == ""
        assert Module("tests/engine/test_fpc.py", "").layer is None
        assert layer_of("repro.engine", True) == "engine"
        assert layer_of("repro.cli", False) == ""

    def test_dotted_name_follows_the_init_chain(self, tmp_path):
        package = tmp_path / "outer" / "repro" / "tcp"
        package.mkdir(parents=True)
        for directory in (package, package.parent):
            (directory / "__init__.py").write_text("")
        module = Module(str(package / "seq.py"), "")
        assert (module.name, module.package, module.layer) == ("repro.tcp.seq", False, "tcp")
        init = Module(str(package / "__init__.py"), "")
        assert (init.name, init.package, init.layer) == ("repro.tcp", True, "tcp")


class TestUnseededRandom:
    def test_unseeded_random_flagged(self):
        bad = "import random\n\nx = random.Random()\n"
        assert "F4T001" in ids(lint_in_layer(bad))

    def test_module_level_random_flagged(self):
        bad = "import random\n\nx = random.randint(0, 7)\n"
        assert "F4T001" in ids(lint_in_layer(bad))

    def test_seeded_random_ok(self):
        good = "import random\n\nx = random.Random(42)\n"
        assert ids(lint_in_layer(good)) == []

    def test_outside_sim_layers_ok(self):
        bad = "import random\n\nx = random.Random()\n"
        assert lint_source(bad, path="src/repro/analysis/plots.py") == []

    def test_sibling_module_named_random_ok(self):
        # A relative import names the package's own module, not the stdlib.
        good = "from .random import Random\n\nx = Random()\n"
        assert ids(lint_in_layer(good, layer="shard")) == []

    def test_sibling_module_imported_from_package_ok(self):
        good = "from . import random\n\nx = random.random()\n"
        assert ids(lint_in_layer(good, layer="shard")) == []


class TestWallClock:
    def test_time_time_flagged(self):
        bad = "import time\n\nnow = time.time()\n"
        findings = lint_in_layer(bad)
        assert ids(findings) == ["F4T002"]
        assert findings[0].line == 3

    def test_datetime_now_flagged(self):
        bad = "import datetime\n\nnow = datetime.datetime.now()\n"
        assert "F4T002" in ids(lint_in_layer(bad))

    def test_monotonic_deadline_outside_sim_ok(self):
        ok = "import time\n\nnow = time.time()\n"
        assert lint_source(ok, path="src/repro/lab/runner.py") == []


class TestRawSeqCompare:
    def test_raw_lt_on_seq_names_flagged(self):
        bad = "def f(tcb, seg_ack):\n    return tcb.snd_una < seg_ack\n"
        findings = lint_in_layer(bad, layer="tcp")
        assert ids(findings) == ["F4T003"]
        assert "seq_lt" in findings[0].message

    def test_helper_call_ok(self):
        good = (
            "from repro.tcp.seq import seq_lt\n\n"
            "def f(tcb, seg_ack):\n"
            "    return seq_lt(tcb.snd_una, seg_ack)\n"
        )
        assert lint_in_layer(good, layer="tcp") == []

    def test_literal_comparison_ok(self):
        # Comparing against a literal (e.g. 0) is not wraparound-prone.
        good = "def f(tcb):\n    return tcb.snd_una < 0\n"
        assert lint_in_layer(good, layer="tcp") == []

    def test_seq_module_itself_exempt(self):
        impl = "def seq_lt(a, b):\n    return a < b\n"
        assert lint_source(impl, path="src/repro/tcp/seq.py") == []


class TestUnguardedTrace:
    def test_bare_emit_flagged(self):
        bad = (
            "class C:\n"
            "    def f(self):\n"
            "        self.trace.emit('x', 1)\n"
        )
        assert ids(lint_in_layer(bad)) == ["F4T004"]

    def test_if_guard_ok(self):
        good = (
            "class C:\n"
            "    def f(self):\n"
            "        if self.trace is not None:\n"
            "            self.trace.emit('x', 1)\n"
        )
        assert lint_in_layer(good) == []

    def test_early_return_guard_ok(self):
        good = (
            "class C:\n"
            "    def f(self):\n"
            "        if self.trace is None:\n"
            "            return\n"
            "        self.trace.emit('x', 1)\n"
        )
        assert lint_in_layer(good) == []


class TestFloatPsState:
    def test_float_literal_into_ps_attribute_flagged(self):
        bad = "def f(self):\n    self.time_ps = 0.0\n"
        assert ids(lint_in_layer(bad, layer="sim")) == ["F4T007"]

    def test_float_factor_in_expression_flagged(self):
        bad = "def f(self, ns):\n    self.latency_ps = ns * 1000.0\n"
        assert ids(lint_in_layer(bad, layer="engine")) == ["F4T007"]

    def test_int_literal_ok(self):
        good = "def f(self):\n    self.time_ps = 0\n"
        assert lint_in_layer(good, layer="sim") == []

    def test_local_ps_variable_ok(self):
        # Locals may hold float bounds (e.g. max_time_ps = s * 1e12);
        # only persistent instance state carries the integer contract.
        good = "def f(self, s):\n    max_time_ps = s * 1e12\n    return max_time_ps\n"
        assert lint_in_layer(good, layer="engine") == []

    def test_outside_clocked_layers_ok(self):
        good = "def f(self):\n    self.time_ps = 0.0\n"
        assert lint_source(good, path="src/repro/host/runtime.py") == []

    def test_calibrated_memory_model_exempt(self):
        impl = "def f(self):\n    self.busy_until_ps = 0.0\n"
        assert lint_source(impl, path="src/repro/sim/memory.py") == []


class TestUnorderedFlow:
    def test_dict_iteration_into_digest_flagged(self):
        bad = (
            "def f(digest):\n"
            "    table = {1: 2}\n"
            "    for key in table:\n"
            "        digest.update(key)\n"
        )
        findings = lint_in_layer(bad)
        assert ids(findings) == ["F4T008"]
        assert "line 3" in findings[0].message  # names the iteration

    def test_sorted_iteration_ok(self):
        good = (
            "def f(digest):\n"
            "    table = {1: 2}\n"
            "    for key in sorted(table):\n"
            "        digest.update(key)\n"
        )
        assert lint_in_layer(good) == []

    def test_set_iteration_into_outbox_flagged(self):
        bad = (
            "class C:\n"
            "    def f(self, flows):\n"
            "        for flow in set(flows):\n"
            "            self.outbox.append(flow)\n"
        )
        assert ids(lint_in_layer(bad, layer="shard")) == ["F4T008"]

    def test_order_invariant_reduction_ok(self):
        # sum() over an unordered view launders the order dependence.
        good = (
            "def f(digest, queues):\n"
            "    digest.update(sum(len(q) for q in queues.values()))\n"
        )
        assert lint_in_layer(good, layer="obs") == []

    def test_a_package_counter_is_no_dict_and_collections_counter_is(self):
        # ``Counter`` names a dict kind only where it is the builtin's: a
        # class of the module's own, or one imported from the package
        # (``obs/metrics.py``'s ``Counter``), is an object.
        emit = (
            "def f(bus, counter: Counter):\n"
            "    for value in counter:\n"
            "        bus.emit(value)\n"
            "\n"
            "def g(bus):\n"
            "    for value in Counter():\n"
            "        bus.emit(value)\n"
        )
        own = "class Counter:\n    pass\n\n\n" + emit
        imported = "from ..obs.metrics import Counter\n\n\n" + emit
        builtin = "from collections import Counter\n\n\n" + emit
        assert lint_in_layer(own, layer="obs") == []
        assert lint_in_layer(imported, layer="obs") == []
        assert ids(lint_in_layer(builtin, layer="obs")) == ["F4T008", "F4T008"]

    def test_outside_digest_layers_ok(self):
        bad = (
            "def f(digest):\n"
            "    table = {1: 2}\n"
            "    for key in table:\n"
            "        digest.update(key)\n"
        )
        assert lint_source(bad, path="src/repro/analysis/plots.py") == []


class TestProcessIdentity:
    def test_getpid_flagged(self):
        bad = "import os\n\ndef f():\n    return os.getpid()\n"
        assert ids(lint_in_layer(bad, layer="shard")) == ["F4T009"]

    def test_getpid_flagged_after_importing_a_submodule(self):
        # ``import os.path`` binds ``os`` itself, as Python does.
        bad = "import os.path\n\ndef f():\n    return os.getpid()\n"
        assert ids(lint_in_layer(bad, layer="shard")) == ["F4T009"]

    def test_getpid_flagged_after_importing_module_and_submodule(self):
        bad = "import os, os.path\n\ndef f():\n    return os.getpid()\n"
        assert ids(lint_in_layer(bad, layer="shard")) == ["F4T009"]

    def test_id_flagged(self):
        bad = "def f(obj):\n    return id(obj)\n"
        assert ids(lint_in_layer(bad)) == ["F4T009"]

    def test_builtin_hash_flagged_with_stable_alternative(self):
        bad = "def f(key):\n    return hash(key)\n"
        findings = lint_in_layer(bad)
        assert ids(findings) == ["F4T009"]
        assert "FNV-1a" in findings[0].message

    def test_repr_into_bytes_flagged(self):
        bad = "def f(pkt):\n    return repr(pkt).encode()\n"
        assert ids(lint_in_layer(bad)) == ["F4T009"]

    def test_field_access_ok(self):
        good = "def f(pkt):\n    return pkt.flow_id\n"
        assert lint_in_layer(good) == []


class TestHeapKeyOrder:
    PACKET = (
        "class Packet:\n"
        "    def __init__(self):\n"
        "        self.size = 0\n\n"
    )

    def test_unshielded_payload_in_heap_key_flagged(self):
        bad = (
            "import heapq\n\n" + self.PACKET +
            "def f(heap, t):\n"
            "    pkt = Packet()\n"
            "    heapq.heappush(heap, (t, pkt))\n"
        )
        findings = lint_in_layer(bad)
        assert ids(findings) == ["F4T010"]
        assert "Packet" in findings[0].message

    def test_sequence_discriminator_shields_payload(self):
        good = (
            "import heapq\n\n" + self.PACKET +
            "def f(heap, t, seq):\n"
            "    pkt = Packet()\n"
            "    heapq.heappush(heap, (t, seq, pkt))\n"
        )
        assert lint_in_layer(good) == []

    def test_comparable_payload_ok(self):
        good = (
            "import heapq\n\n"
            "class Packet:\n"
            "    def __lt__(self, other):\n"
            "        return True\n\n"
            "def f(heap, t):\n"
            "    pkt = Packet()\n"
            "    heapq.heappush(heap, (t, pkt))\n"
        )
        assert lint_in_layer(good) == []

    def test_float_key_element_flagged_in_clocked_layer(self):
        bad = (
            "import heapq\n\n"
            "def f(heap, t, pkt):\n"
            "    heapq.heappush(heap, (t * 1.5, pkt))\n"
        )
        assert ids(lint_in_layer(bad)) == ["F4T010"]

    def test_float_key_ok_in_float_time_layer(self):
        ok = (
            "import heapq\n\n"
            "def f(heap, t, pkt):\n"
            "    heapq.heappush(heap, (t * 1.5, pkt))\n"
        )
        # refsim keeps float seconds by design: it is the independent
        # reference, outside CLOCKED_LAYERS.
        assert lint_in_layer(ok, layer="refsim") == []

    def test_float_timer_key_flagged_in_tcp(self):
        # The TCP core keeps integer-ps deadlines: a float heap key in
        # repro/tcp/ (the old float TimerWheel) is flagged.
        bad = (
            "import heapq\n\n"
            "def arm(heap, deadline_s, gen, flow_id):\n"
            "    heapq.heappush(heap, (float(deadline_s), gen, flow_id))\n"
        )
        assert ids(lint_in_layer(bad, layer="tcp")) == ["F4T010"]

    def test_sort_key_lambda_checked(self):
        bad = (
            self.PACKET +
            "def f(entries, t):\n"
            "    p = Packet()\n"
            "    entries.sort(key=lambda e: (t, p))\n"
        )
        assert ids(lint_in_layer(bad)) == ["F4T010"]


class TestMutableDefault:
    def test_list_literal_default_flagged(self):
        bad = "def f(x, acc=[]):\n    acc.append(x)\n    return acc\n"
        assert ids(lint_in_layer(bad)) == ["F4T011"]

    def test_ctor_default_flagged(self):
        bad = "def f(x, table=dict()):\n    return table\n"
        assert ids(lint_in_layer(bad)) == ["F4T011"]

    def test_none_default_ok(self):
        good = (
            "def f(x, acc=None):\n"
            "    if acc is None:\n"
            "        acc = []\n"
            "    return acc\n"
        )
        assert lint_in_layer(good) == []


class TestNoqa:
    def test_noqa_suppresses_matching_rule(self):
        src = "import time\n\nnow = time.time()  # f4t: noqa[F4T002]\n"
        assert lint_in_layer(src) == []

    def test_bare_noqa_suppresses_all(self):
        src = "import time\n\nnow = time.time()  # f4t: noqa\n"
        assert lint_in_layer(src) == []

    def test_noqa_for_other_rule_does_not_suppress(self):
        src = "import time\n\nnow = time.time()  # f4t: noqa[F4T001]\n"
        assert ids(lint_in_layer(src)) == ["F4T002"]

    MULTI = (
        "def f(digest):\n"
        "    table = {1: 2}\n"
        "    for key in table:\n"
        "        digest.update(key)  # f4t: noqa[F4T003,F4T008]\n"
    )

    def test_multi_rule_noqa_suppresses_listed_rules(self):
        assert lint_in_layer(self.MULTI) == []

    def test_multi_rule_noqa_keeps_unlisted_rules(self):
        src = self.MULTI.replace("[F4T003,F4T008]", "[F4T003,F4T011]")
        assert ids(lint_in_layer(src)) == ["F4T008"]

    def test_multi_rule_noqa_tolerates_spaces(self):
        src = self.MULTI.replace("[F4T003,F4T008]", "[F4T003, F4T008]")
        assert lint_in_layer(src) == []


class TestSyntaxError:
    def test_unparsable_file_reported_not_crashed(self):
        findings = lint_in_layer("def broken(:\n")
        assert ids(findings) == ["F4T000"]
