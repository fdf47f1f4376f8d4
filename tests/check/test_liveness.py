"""Every simlint rule guards a construct the tree still has.

Each probe names a real ``src/repro`` site and one edit that breaks the
contract its rule guards there.  The edit runs in memory (``Module(path,
mutated_source)``, no copy of the tree): the rule must fire inside the
function the edit touched, no other rule may fire, and the unmutated
file must lint clean.  A rule registered without a probe fails here, and
so does an exemption that exempts nothing: a rule or exemption with no
live target is deleted, not kept.  The layer sets are probed entry by
entry: a plant appended to a real module of each ``SIM_LAYERS`` and
``CLOCKED_LAYERS`` layer fires its rule there and nowhere outside the
set, and an entry with no module under ``src/repro`` fails.  The
sanitizers' finding kinds are held the same way: each one is fired by a
test.
"""

import ast
from pathlib import Path
from typing import NamedTuple

import pytest

from repro.check.index import Module
from repro.check.lint import lint_modules
from repro.check.rules import CLOCKED_LAYERS, SIM_LAYERS, all_rules

from .conftest import REPO

SRC = REPO / "src" / "repro"
HERE = Path(__file__).parent


class Probe(NamedTuple):
    rule: str
    path: str  # under src/repro
    guards: str  # the construct the rule guards at this site
    old: str  # occurs exactly once in the file
    new: str


PROBES = [
    Probe("F4T001", "net/wire.py", "LossPattern.probability's seeded drop RNG",
          "rng = random.Random(seed)\n        return lambda frame, index: rng",
          "rng = random.Random()\n        return lambda frame, index: rng"),
    Probe("F4T002", "shard/runner.py", "run_shard's harness wall clock (noqa)",
          "time.monotonic()  # f4t: noqa[F4T002] harness wall clock\n    if fingerprint",
          "time.monotonic()\n    if fingerprint"),
    Probe("F4T003", "engine/fpu.py", "the FPU's snd_max high-water mark",
          "if seq_gt(tcb.snd_nxt, tcb.snd_max):",
          "if tcb.snd_nxt > tcb.snd_max:"),
    Probe("F4T004", "engine/fpc.py", "the event handler's 'handle' emit",
          'if self.trace is not None:\n            self.trace.emit(\n'
          '                self.cycle * CYCLE_PS, "engine.fpc", self.trace_name,\n'
          '                "handle"',
          'if True:\n            self.trace.emit(\n'
          '                self.cycle * CYCLE_PS, "engine.fpc", self.trace_name,\n'
          '                "handle"'),
    Probe("F4T007", "fabric/softstack.py", "a soft-stack transfer's ECN hold-off instant",
          "self.ecn_hold_until_ps = 0\n", "self.ecn_hold_until_ps = 0.0\n"),
    Probe("F4T008", "fabric/engine.py", "the fabric pump's dirty-conn order",
          "for index in sorted(self._dirty):", "for index in self._dirty:"),
    Probe("F4T009", "tcp/cuckoo.py", "the cuckoo key encoding (noqa)",
          "return repr(key).encode()  # f4t: noqa[F4T009] default reprs rejected",
          "return repr(key).encode()"),
    Probe("F4T010", "fabric/switch.py", "the switch ingress key's port index",
          "(done + fabric._prop_ps, _INGRESS, index, packet)",
          "(done + fabric._prop_ps, _INGRESS, packet)"),
    Probe("F4T010", "shard/cell.py", "a routed Entry's (src, seq) tie-breaker",
          "entry = (arrival_ps, src, seq, dst, packet)",
          "entry = (arrival_ps, dst, packet)"),
    Probe("F4T011", "engine/verification.py", "audited_run's monitor list",
          "monitors: Optional[List[InvariantMonitor]] = None,",
          "monitors: Optional[List[InvariantMonitor]] = [],"),
]


#: Per layer-scoped rule: its layer set and a plant it fires on.
LAYER_PLANTS = {
    "F4T002": (SIM_LAYERS, "\n\nimport time as _probe_clock\n\n\n"
                           "def _probe():\n    return _probe_clock.monotonic()\n"),
    "F4T007": (CLOCKED_LAYERS, "\n\nclass _Probe:\n    def __init__(self):\n"
                               "        self.probe_ps = 0.5\n"),
}
#: A layer in neither set, where every plant must lint clean.
OUTSIDE = "lab"


def enclosing_lines(module, line):
    """The line span of the innermost function holding ``line``."""
    spans = [
        (node.lineno, node.end_lineno)
        for node in ast.walk(module.tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.lineno <= line <= node.end_lineno
    ]
    return max(spans) if spans else (line, line)


def test_every_rule_has_a_probe():
    assert {rule.rule_id for rule in all_rules()} == {p.rule for p in PROBES}


@pytest.mark.parametrize("probe", PROBES, ids=lambda p: f"{p.rule}-{p.path}")
def test_rule_fires_at_its_site(probe, program_index, src_lint):
    path = str(SRC / probe.path)
    assert not [f for f in src_lint.findings if f.path == path]
    source = program_index[path].source
    assert source.count(probe.old) == 1, probe.old
    mutated = Module(path, source.replace(probe.old, probe.new))
    findings = lint_modules([mutated]).findings
    line = source[: source.index(probe.old)].count("\n") + 1
    first, last = enclosing_lines(mutated, line)
    assert findings, f"{probe.rule} does not guard {probe.guards}"
    assert {f.rule for f in findings} == {probe.rule}, findings
    assert all(first <= f.line <= last for f in findings), findings


@pytest.mark.parametrize(
    "rule_id, layer",
    [(rule_id, layer) for rule_id, (layers, _) in LAYER_PLANTS.items()
     for layer in [*sorted(layers), OUTSIDE]],
    ids=lambda value: value,
)
def test_a_layer_rule_fires_in_each_layer_of_its_set(rule_id, layer, program_index):
    layers, plant = LAYER_PLANTS[rule_id]
    rule = next(r for r in all_rules() if r.rule_id == rule_id)
    assert rule.layers == layers and OUTSIDE not in layers
    modules = sorted(
        (m for m in program_index.values() if m.layer == layer and m.path.startswith(str(SRC))
         and not any(m.path.endswith(s) for s in rule.exempt_suffixes)),
        key=lambda m: m.path,
    )
    assert modules, f"{layer}: no module under src/repro"
    source = modules[0].source
    mutated = Module(modules[0].path, source + plant)
    planted = [f for f in lint_modules([mutated]).findings if f.line > source.count("\n")]
    assert {f.rule for f in planted} == ({rule_id} if layer in layers else set()), planted


@pytest.mark.parametrize(
    "rule, suffix",
    [(rule, suffix) for rule in all_rules() for suffix in rule.exempt_suffixes],
    ids=lambda value: getattr(value, "rule_id", value),
)
def test_every_exemption_exempts_a_finding(rule, suffix, program_index):
    module = program_index[str(REPO / "src" / suffix)]
    assert list(rule.check(module)), f"{rule.rule_id} exempts nothing in {suffix}"


def test_every_sanitizer_kind_is_fired_by_a_test(program_index):
    """Each finding kind the sanitizers emit is named by a test that
    fires it (``test_race.py``, ``test_lockstep.py``)."""
    emitted = {
        call.args[0].value
        for name in ("race", "lockstep")
        for call in program_index[str(SRC / "check" / f"{name}.py")].nodes(ast.Call)
        if isinstance(call.func, ast.Attribute) and call.func.attr == "_emit"
    }
    named = {
        node.value
        for test in ("test_race.py", "test_lockstep.py")
        for node in ast.walk(ast.parse((HERE / test).read_text()))
        if isinstance(node, ast.Constant)
    }
    assert emitted and emitted <= named, emitted - named
