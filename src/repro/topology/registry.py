"""Name-based topology factory.

A scenario names a communication graph ("ring", "erdos-renyi", ...)
plus keyword arguments, and the registry builds the unbound
:class:`~repro.topology.base.Topology`.

Unlike the attack and delay registries there is no ``None`` arm: every
decentralized cell has *some* graph, and the ``"complete"`` default is
the degenerate cell the server path realizes bit for bit.
"""

from __future__ import annotations

from repro.topology.base import Topology
from repro.utils.registry import Registry

__all__ = [
    "TOPOLOGIES",
    "register_topology",
    "available_topologies",
    "topology_factory",
    "make_topology",
]

TOPOLOGIES: Registry[Topology] = Registry("topology")

register_topology = TOPOLOGIES.register
available_topologies = TOPOLOGIES.names
topology_factory = TOPOLOGIES.factory
make_topology = TOPOLOGIES.make


def _register_builtins() -> None:
    from repro.topology.base import (
        CompleteTopology,
        ErdosRenyiTopology,
        KRegularTopology,
        RingTopology,
        TimeVaryingTopology,
    )

    register_topology("complete", CompleteTopology)
    register_topology("ring", RingTopology)
    register_topology("k-regular", KRegularTopology)
    register_topology("erdos-renyi", ErdosRenyiTopology)
    register_topology("time-varying", TimeVaryingTopology)


_register_builtins()
