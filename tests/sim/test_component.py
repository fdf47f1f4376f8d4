"""Component base-class contract."""

from repro.sim.component import Component, OwnersCycle


class TestComponent:
    def test_tick_advances_cycle(self):
        component = Component("c")
        component.tick()
        component.tick()
        assert component.cycle == 2

    def test_an_owned_component_reads_its_owners_cycle(self):
        """Built with a clock, a component keeps no count of its own:
        its ``cycle`` is the owner's, and only the owner moves it."""
        class Block(Component):
            cycle = OwnersCycle()

        owner = Component("engine")
        block = Block("block", clock=owner)
        owner.tick()
        block.tick()
        assert (owner.cycle, block.cycle) == (1, 1)
        assert "cycle" not in vars(block)

    def test_name(self):
        assert Component("scheduler").name == "scheduler"
