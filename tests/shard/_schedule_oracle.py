"""The retired per-connection schedule list, kept as the test oracle.

Until connect schedules were packed, ``ShardScenario.schedule(pair)``
built one ``(connect_at_ps, req, resp)`` tuple per connection and both
the client driver and the server driver held the whole list.  The body
lives on here unchanged — same RNG derivation, same draw per index —
so the tests can require that the packed ``connect_instants`` plus the
index-derived ``ShardPair.framing`` are that list, element for element.
"""

import random
from typing import List, Tuple

from repro.net.wire import derive_seed
from repro.shard.scenarios import ShardPair, ShardScenario


def schedule(
    scenario: ShardScenario, pair: ShardPair
) -> List[Tuple[int, int, int]]:
    """The pair's per-connection ``(connect_at_ps, req, resp)`` list."""
    rng = random.Random(
        derive_seed(
            scenario.seed,
            f"shard/{scenario.name}/{pair.client}->{pair.server}",
        )
    )
    spacing = max(1, scenario.connect_window_ps // pair.conns)
    every = pair.transact_every
    out: List[Tuple[int, int, int]] = []
    for index in range(pair.conns):
        jitter = rng.randrange(spacing) if spacing > 1 else 0
        transacts = bool(every) and index % every == 0
        out.append(
            (
                index * spacing + jitter,
                pair.req_bytes if transacts else 0,
                pair.resp_bytes if transacts else 0,
            )
        )
    return out
