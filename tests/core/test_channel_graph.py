"""Tests for channel dependency graphs and the Dally-Seitz deadlock test."""

from collections import deque

import pytest

from repro.core.channel_graph import (
    find_dependency_cycle,
    is_deadlock_free,
    restriction_is_deadlock_free,
    routing_cdg,
    turn_cdg,
)
from repro.core.digraph import Digraph
from repro.core.restrictions import (
    figure4_restriction,
    fully_adaptive,
    negative_first_restriction,
    north_last_restriction,
    west_first_restriction,
    xy_restriction,
)
from repro.routing import make_routing
from repro.routing.registry import available_algorithms
from repro.routing.virtual_channels import DatelineTorusRouting, o1turn_routing
from repro.sim.deadlock import figure4_routing, unrestricted_adaptive_routing
from repro.synth.certify import candidate_target
from repro.synth.enumeration import enumerate_candidates
from repro.topology import Mesh, Mesh2D, Torus
from repro.topology.channels import Channel
from repro.topology.faults import FaultyTopology
from repro.topology.spec import parse_topology
from repro.topology.virtual import VirtualChannelTopology


class TestTurnCDG:
    def test_safe_restrictions_acyclic_on_meshes(self, mesh54):
        for restriction in (
            xy_restriction(),
            west_first_restriction(),
            north_last_restriction(),
            negative_first_restriction(2),
        ):
            assert restriction_is_deadlock_free(mesh54, restriction), restriction.name

    def test_fully_adaptive_cyclic(self, mesh44):
        assert not restriction_is_deadlock_free(mesh44, fully_adaptive(2))

    def test_figure4_cyclic(self, mesh44):
        # Figure 4: one prohibited turn per cycle, deadlock still possible.
        assert not restriction_is_deadlock_free(mesh44, figure4_restriction())

    def test_3d_negative_first_acyclic(self, mesh3d):
        assert restriction_is_deadlock_free(mesh3d, negative_first_restriction(3))

    def test_virtual_direction_classification_breaks_torus_rings(self, torus42):
        # Section 4.2 classifies the wraparound leaving the east edge as a
        # channel *to the west*, so continuing "straight" around a ring is
        # a 180-degree reversal, which safe restrictions prohibit — the
        # classification itself breaks the ring cycles at the turn level.
        assert restriction_is_deadlock_free(torus42, negative_first_restriction(2))
        assert restriction_is_deadlock_free(torus42, xy_restriction())

    def test_torus_still_cyclic_without_restriction(self, torus42):
        assert not restriction_is_deadlock_free(torus42, fully_adaptive(2))

    def test_vertex_count_matches_channels(self, mesh44):
        graph = turn_cdg(mesh44, xy_restriction())
        assert graph.num_vertices == mesh44.num_channels

    def test_xy_dependencies_never_leave_y(self, mesh44):
        graph = turn_cdg(mesh44, xy_restriction())
        for a, b in graph.edges():
            # Once in dimension 1, xy routing stays in dimension 1.
            if a.direction.dim == 1:
                assert b.direction.dim == 1


class TestRoutingCDG:
    @pytest.mark.parametrize(
        "name",
        ["xy", "west-first", "north-last", "negative-first", "abonf", "abopl"],
    )
    def test_mesh_algorithms_deadlock_free(self, mesh54, name):
        assert is_deadlock_free(mesh54, make_routing(name, mesh54))

    @pytest.mark.parametrize(
        "name",
        [
            "west-first-nonminimal",
            "north-last-nonminimal",
            "negative-first-nonminimal",
        ],
    )
    def test_nonminimal_mesh_algorithms_deadlock_free(self, mesh44, name):
        assert is_deadlock_free(mesh44, make_routing(name, mesh44))

    @pytest.mark.parametrize("name", ["e-cube", "p-cube", "p-cube-nonminimal"])
    def test_hypercube_algorithms_deadlock_free(self, cube4, name):
        assert is_deadlock_free(cube4, make_routing(name, cube4))

    @pytest.mark.parametrize(
        "name",
        ["negative-first-torus", "xy+first-hop-wrap", "negative-first+first-hop-wrap"],
    )
    def test_torus_algorithms_deadlock_free(self, torus42, name):
        assert is_deadlock_free(torus42, make_routing(name, torus42))

    def test_torus_algorithms_deadlock_free_k5(self):
        torus = Torus(5, 2)
        for name in ("negative-first-torus", "xy+first-hop-wrap"):
            assert is_deadlock_free(torus, make_routing(name, torus))

    def test_3d_mesh_algorithms_deadlock_free(self, mesh3d):
        for name in ("dimension-order", "negative-first", "abonf", "abopl"):
            assert is_deadlock_free(mesh3d, make_routing(name, mesh3d))

    def test_cycle_witness_for_unsafe_routing(self, mesh44):
        from repro.sim.deadlock import unrestricted_adaptive_routing

        cycle = find_dependency_cycle(mesh44, unrestricted_adaptive_routing(mesh44))
        assert cycle is not None
        # The witness must be a genuine chain of adjacent channels.
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            assert a.dst == b.src

    def test_routing_cdg_subset_of_turn_cdg(self, mesh44):
        # The exact dependency graph of a minimal algorithm is contained
        # in the turn-level over-approximation of its restriction.
        algorithm = make_routing("west-first", mesh44)
        exact = routing_cdg(mesh44, algorithm)
        loose = turn_cdg(mesh44, west_first_restriction())
        for a, b in exact.edges():
            assert loose.has_edge(a, b)

    def test_xy_routing_cdg_edge_count_positive(self, mesh44):
        graph = routing_cdg(mesh44, make_routing("xy", mesh44))
        assert graph.num_edges > 0


def reference_cdg(topology, route_fn, edge_dests=None):
    """The per-destination breadth-first builder, kept as the oracle.

    One forward closure per destination over ``Channel`` objects, edges
    added as they are found: the definition :func:`routing_cdg` must
    reproduce exactly, down to vertex and successor iteration order.
    """
    graph = Digraph()
    for channel in topology.channels():
        graph.add_vertex(channel)
    for dest in topology.nodes():
        frontier = deque()
        reached = set()
        for source in topology.nodes():
            if source == dest:
                continue
            for first in route_fn(None, source, dest):
                if first not in reached:
                    reached.add(first)
                    frontier.append(first)
        while frontier:
            in_channel = frontier.popleft()
            node = in_channel.dst
            if node == dest:
                continue
            for out_channel in route_fn(in_channel, node, dest):
                graph.add_edge(in_channel, out_channel)
                if edge_dests is not None:
                    edge_dests.setdefault((in_channel, out_channel), dest)
                if out_channel not in reached:
                    reached.add(out_channel)
                    frontier.append(out_channel)
    return graph


def assert_same_cdg(topology, route_fn):
    """``routing_cdg`` and the oracle agree on everything callers read."""
    fast_dests, slow_dests = {}, {}
    fast = routing_cdg(topology, route_fn, edge_dests=fast_dests)
    slow = reference_cdg(topology, route_fn, edge_dests=slow_dests)
    assert fast.vertices() == slow.vertices()
    # edges() walks each vertex's successor set in iteration order.
    assert list(fast.edges()) == list(slow.edges())
    assert fast_dests == slow_dests
    assert fast.find_cycle() == slow.find_cycle()
    assert fast.shortest_cycle() == slow.shortest_cycle()
    if slow.is_acyclic():
        assert fast.topological_order() == slow.topological_order()


def _registry_cases():
    for spec in ("mesh:4x4", "mesh:8x8", "cube:4", "torus:4x2"):
        for name in available_algorithms(parse_topology(spec)):
            yield pytest.param(spec, name, id=f"{spec}/{name}")


def _extra_cases():
    mesh4, mesh5 = Mesh2D(4, 4), Mesh2D(5, 5)
    vc_mesh = VirtualChannelTopology(Mesh2D(4, 4), lanes=2)
    vc_torus = VirtualChannelTopology(Torus(4, 2), lanes=2)
    yield pytest.param(lambda: (vc_mesh, o1turn_routing(vc_mesh)), id="mesh:4x4+2vc/o1turn")
    yield pytest.param(
        lambda: (vc_torus, DatelineTorusRouting(vc_torus)), id="torus:4x2+2vc/dateline-dor"
    )
    yield pytest.param(
        lambda: (mesh4, unrestricted_adaptive_routing(mesh4)), id="figure1/unrestricted"
    )
    yield pytest.param(lambda: (mesh5, figure4_routing(mesh5)), id="figure4/faulty")
    candidates, _ = enumerate_candidates(2)
    for index, prohibited in enumerate(candidates):
        yield pytest.param(
            lambda p=prohibited: (mesh4, candidate_target(mesh4, "mesh:4x4", p).routing),
            id=f"synth2-census-{index}",
        )


class TestBuilderIdentity:
    """The all-destinations closure is the per-destination BFS, bit for bit."""

    @pytest.mark.parametrize("spec,name", list(_registry_cases()))
    def test_registry_algorithm(self, spec, name):
        topology = parse_topology(spec)
        assert_same_cdg(topology, make_routing(name, topology))

    @pytest.mark.parametrize("build", list(_extra_cases()))
    def test_fixture(self, build):
        topology, routing = build()
        assert_same_cdg(topology, routing)

    def test_plain_function_relation(self, mesh44):
        # A bare callable has no uses_in_channel and takes the lazy path.
        xy = make_routing("xy", mesh44)
        assert_same_cdg(mesh44, lambda c, n, d: list(xy.route(c, n, d)))


class TestMismatchedRoutes:
    """A relation offering a channel the topology lacks is an error."""

    def test_dead_channel_on_faulty_topology(self, mesh44):
        healthy = make_routing("xy", mesh44)  # declares uses_in_channel=False
        dead = healthy.route(None, (1, 1), (3, 1))[0]
        faulty = FaultyTopology(mesh44, [dead])
        with pytest.raises(ValueError, match=r"\(1, 1\)->\(2, 1\).*not a channel"):
            routing_cdg(faulty, healthy)

    def test_foreign_lane_named_with_node_and_dest(self, mesh44):
        # Offered only after an arrival, so the lazy expansion meets it.
        xy = make_routing("xy", mesh44)

        def leaky(in_channel, node, dest):
            outs = list(xy.route(in_channel, node, dest))
            if in_channel is not None and node == (2, 0) and dest == (3, 0):
                outs.append(Channel(outs[0].src, outs[0].dst, outs[0].direction, lane=1))
            return outs

        with pytest.raises(ValueError) as info:
            routing_cdg(mesh44, leaky)
        message = str(info.value)
        assert "(2, 0)->(3, 0)#1" in message
        assert "at node (2, 0)" in message
        assert "toward (3, 0)" in message
