"""Every end keeps its record, kept as parking's test oracle.

Before idle ends parked, a soft stack held one ``_SoftFlow`` per
connection end for the end's whole life, whether or not it ever moved
a byte.  :func:`never_park` puts that back on the same tree: parking is
a change of representation, so a run under it must be the same run —
same trace, same counters, same loop and timer-heap traffic.
"""

from repro.fabric.softstack import SoftStack


def never_park(monkeypatch) -> None:
    """No end parks: every ``flows``/``_by_key`` entry stays a record."""
    monkeypatch.setattr(SoftStack, "_park", lambda stack, flow: None)
