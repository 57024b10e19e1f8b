"""The ``uses_in_channel = False`` declaration, checked rather than trusted.

The route cache collapses every arrival channel of a router into one key
for such algorithms, and the exact dependency-graph builder closes them
from their first-hop table alone.  Both are only sound when the
relation really ignores its arrival channel: ``route(c, n, d)`` must
equal ``route(None, n, d)`` for every channel ``c`` entering ``n``.
"""

import pytest

from repro.resilience.controller import DegradedRouting
from repro.routing.registry import available_algorithms, make_routing
from repro.routing.virtual_channels import DatelineTorusRouting
from repro.topology.faults import random_channel_faults
from repro.topology.spec import parse_topology
from repro.topology.torus import Torus
from repro.topology.virtual import VirtualChannelTopology
from repro.verify.suite import REGISTRY_TOPOLOGIES


def assert_ignores_in_channel(topology, routing):
    arrivals = {}
    for channel in topology.channels():
        arrivals.setdefault(channel.dst, []).append(channel)
    for node in topology.nodes():
        for dest in topology.nodes():
            if node == dest:
                continue
            injected = tuple(routing.route(None, node, dest))
            for in_channel in arrivals.get(node, ()):
                assert tuple(routing.route(in_channel, node, dest)) == injected, (
                    f"{routing.name}: route({in_channel}, {node}, {dest}) "
                    f"differs from the injection decision {injected}"
                )


def _declared_free():
    for spec in REGISTRY_TOPOLOGIES:
        topology = parse_topology(spec)
        for name in available_algorithms(topology):
            if not make_routing(name, topology).uses_in_channel:
                yield pytest.param(spec, name, id=f"{spec}/{name}")


DECLARED_FREE = list(_declared_free())


def test_contract_covers_every_topology_family():
    # The torus routers all read their arrival channel; every other
    # registry topology has algorithms declaring that they do not.
    specs = {param.values[0] for param in DECLARED_FREE}
    assert specs == set(REGISTRY_TOPOLOGIES) - {"torus:4x2"}


@pytest.mark.parametrize("spec,name", DECLARED_FREE)
def test_registry_algorithm_ignores_in_channel(spec, name):
    topology = parse_topology(spec)
    assert_ignores_in_channel(topology, make_routing(name, topology))


@pytest.mark.parametrize("spec,name", DECLARED_FREE)
def test_degraded_wrapper_ignores_in_channel(spec, name):
    topology = parse_topology(spec)
    routing = make_routing(name, topology)
    faulty = random_channel_faults(topology, 3, seed=11)
    degraded = DegradedRouting(routing, faulty.failed, faulty)
    assert degraded.uses_in_channel is False
    assert_ignores_in_channel(faulty, degraded)


def test_dateline_lane_choice_ignores_in_channel():
    topology = VirtualChannelTopology(Torus(4, 2), lanes=2)
    routing = DatelineTorusRouting(topology)
    assert routing.uses_in_channel is False
    assert_ignores_in_channel(topology, routing)
