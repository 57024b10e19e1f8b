"""Property: the dependency-graph builder matches its oracle under faults.

Random fault sets on a 5x5 mesh, served both ways the resilience layer
serves them: minimal algorithms filtered by :class:`DegradedRouting`
(which ignores the arrival channel, so the builder closes it from the
first-hop table alone) and nonminimal turn tables rebuilt on the
:class:`FaultyTopology` (expanded per channel and destination).  Random
relations with many candidates per node then make successor sets large
enough that their iteration order depends on insertion order.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.resilience.controller import DegradedRouting
from repro.routing import make_routing
from repro.topology import FaultyTopology, Hypercube, Mesh2D, VirtualChannelTopology
from tests.core.test_channel_graph import assert_same_cdg

MESH = Mesh2D(5, 5)
WIDE = {
    "cube:5": Hypercube(5),
    "mesh:3x3+2vc": VirtualChannelTopology(Mesh2D(3, 3), lanes=2),
}
fault_sets = st.lists(st.sampled_from(MESH.channels()), max_size=6, unique=True)


@given(
    name=st.sampled_from(["xy", "west-first", "north-last", "negative-first", "abonf"]),
    failed=fault_sets,
)
@settings(max_examples=40, deadline=None)
def test_degraded_wrapper_matches_oracle(name, failed):
    faulty = FaultyTopology(MESH, failed)
    routing = DegradedRouting(make_routing(name, MESH), faulty.failed, faulty)
    assert_same_cdg(faulty, routing)


@given(
    name=st.sampled_from(
        ["west-first-nonminimal", "north-last-nonminimal", "negative-first-nonminimal"]
    ),
    failed=fault_sets,
)
@settings(max_examples=25, deadline=None)
def test_nonminimal_rebuild_matches_oracle(name, failed):
    faulty = FaultyTopology(MESH, failed)
    assert_same_cdg(faulty, make_routing(name, faulty))


class ShuffledRelation:
    """A seeded relation offering a shuffled subset of a node's channels.

    Deterministic per ``(node, dest)``, or per ``(in_channel, node,
    dest)`` when it declares that it reads the arrival channel.
    """

    def __init__(self, topology, seed, uses_in_channel):
        self.topology = topology
        self.seed = seed
        self.uses_in_channel = uses_in_channel

    def __call__(self, in_channel, node, dest):
        key = (in_channel, node, dest) if self.uses_in_channel else (node, dest)
        rng = random.Random(f"{self.seed}/{key}")
        outs = list(self.topology.out_channels(node))
        rng.shuffle(outs)
        return tuple(outs[: rng.randint(1, len(outs))])


@given(
    spec=st.sampled_from(sorted(WIDE)),
    seed=st.integers(0, 10**6),
    uses_in_channel=st.booleans(),
)
@settings(max_examples=12, deadline=None)
def test_random_relation_matches_oracle(spec, seed, uses_in_channel):
    topology = WIDE[spec]
    assert_same_cdg(topology, ShuffledRelation(topology, seed, uses_in_channel))
