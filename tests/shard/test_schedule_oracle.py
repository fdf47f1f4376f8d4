"""Packed connect instants + index-derived framing == the retired list.

``_schedule_oracle.schedule`` is ``ShardScenario.schedule`` as it was:
one ``(connect_at_ps, req, resp)`` tuple per connection, built once by
the client driver and once by the server driver.  These tests require
the replacement — ``connect_instants`` held by the client only,
``ShardPair.framing(index)`` on both sides — to say the same thing for
every connection of every registered scenario.
"""

from types import SimpleNamespace

import pytest

from repro.shard import ShardPair, ShardScenario, get_shard_scenario
from repro.shard.host import ClientPairDriver, ServerHostDriver
from repro.shard.scenarios import available_shard_scenarios

from ._schedule_oracle import schedule

VARIANTS = {
    "registered": lambda scenario: scenario,
    "scaled16": lambda scenario: scenario.scaled(16),
    "seed9": lambda scenario: scenario.with_seed(9),
}


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("name", available_shard_scenarios())
def test_packed_schedule_equals_the_list(name, variant):
    scenario = VARIANTS[variant](get_shard_scenario(name))
    for pair in scenario.pairs:
        oracle = schedule(scenario, pair)
        instants = scenario.connect_instants(pair)
        assert len(instants) == len(oracle) == pair.conns
        assert list(instants) == [at for at, _req, _resp in oracle]
        assert [pair.framing(i) for i in range(pair.conns)] == [
            (req, resp) for _at, req, resp in oracle
        ]


def test_more_conns_than_picoseconds_packs_the_same():
    """Slot width 1: the list drew no jitter, the packed form draws 0."""
    scenario = ShardScenario(
        name="dense", num_hosts=2, num_cells=1, connect_window_ps=16,
        pairs=(ShardPair(0, 1, conns=40, transact_every=3),),
    )
    (pair,) = scenario.pairs
    assert list(scenario.connect_instants(pair)) == [
        at for at, _req, _resp in schedule(scenario, pair)
    ] == list(range(40))


class _ScriptedStack:
    """Just enough host API for one driver: connects are numbered,
    accepts come from a prepared queue, nothing reaches a wire."""

    def __init__(self, accepts=()):
        self.keys = {}
        self.connected = []
        self._accepts = list(accepts)

    def listen(self, port):
        return self._accepts  # the accept queue the driver watches

    def connect(self, dst_ip, dst_port):
        self.connected.append((dst_ip, dst_port))
        return len(self.connected) - 1

    def accept(self, port):
        if not self._accepts:
            return None
        flow_id, client_ip = self._accepts.pop(0)
        self.keys[flow_id] = SimpleNamespace(dst_ip=client_ip)
        return flow_id

    def flow_key(self, flow_id):
        return self.keys.get(flow_id)


@pytest.mark.parametrize("name", available_shard_scenarios())
def test_both_drivers_derive_the_oracle_framing(name):
    """The client arms ``resp`` and the server ``(req, resp)`` for the
    same index from the pair alone; both must be the list's entry."""
    scenario = get_shard_scenario(name).scaled(64)
    far_future = scenario.connect_window_ps
    for pair in scenario.pairs:
        oracle = schedule(scenario, pair)

        client_stack = _ScriptedStack()
        client = ClientPairDriver(scenario, pair, client_stack, server_ip=7)
        assert client.next_action_ps() == oracle[0][0]
        client.tick(far_future)
        assert client.next_action_ps() is None
        assert client.opened == pair.conns == len(client_stack.connected)
        assert [
            client.conns[flow_id].resp_remaining
            for flow_id in range(pair.conns)
        ] == [resp for _at, _req, resp in oracle]

        server_stack = _ScriptedStack(
            accepts=[(100 + i, pair.client) for i in range(pair.conns)]
        )
        server = ServerHostDriver(
            scenario, pair.server, server_stack, [pair],
            host_of_ip=lambda ip: ip,
        )
        server.tick(0)
        assert server.accepted == pair.conns
        for index, (_at, req, resp) in enumerate(oracle):
            conn = server.conns.get(100 + index)
            if req == 0:
                assert conn is None  # hold-only: no state kept
            else:
                assert (conn.expect_remaining, conn.resp_bytes) == (req, resp)
