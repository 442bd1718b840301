"""Test helpers shared across the suite."""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.kernel import Simulation


def run(sim: Simulation, generator, name: str = "test"):
    """Run *generator* as a process to completion; return its value."""
    return sim.run(sim.process(generator, name=name))


def run_all(sim: Simulation, *generators):
    """Start all generators, run to quiescence, return process values."""
    processes = [sim.process(g) for g in generators]
    sim.run()
    return [p.value for p in processes]


@dataclass
class StubNode:
    """The placement node interface ``select_node`` reads, plus a
    slot-claiming ``assign``."""

    node_id: int
    capacity: int = 16
    active: int = 0

    @property
    def has_room(self) -> bool:
        return self.active < self.capacity

    def assign(self, function: str) -> None:
        self.active += 1
