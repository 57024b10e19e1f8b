"""Channel dependency graphs and the Dally-Seitz deadlock test.

Dally and Seitz showed that a wormhole routing algorithm is deadlock free
if and only if its *channel dependency graph* — channels as vertices, with
an edge from channel ``a`` to channel ``b`` whenever the algorithm can
route a packet that holds ``a`` and next requests ``b`` — is acyclic.  The
turn model's Step 4 chooses prohibited turns precisely so this graph has no
cycles.

Two builders are provided:

* :func:`turn_cdg` builds the dependency graph induced by a
  :class:`~repro.core.restrictions.TurnRestriction` alone: every permitted
  turn (and straight continuation) between physically adjacent channels is
  an edge.  This over-approximates any routing algorithm obeying the
  restriction, so acyclicity here certifies *every* such algorithm,
  minimal or nonminimal.

* :func:`routing_cdg` builds the exact dependency graph of a concrete
  routing relation, tracking which (channel, destination) pairs are
  actually realizable from some source.  This is what the torus algorithms
  need, since their deadlock freedom depends on *how* wraparound channels
  are used, not just on which turns exist.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple, Union, overload

from repro.core.digraph import Digraph
from repro.core.restrictions import TurnRestriction
from repro.core.turns import Turn
from repro.topology.base import Topology
from repro.topology.channels import Channel, NodeId

__all__ = [
    "RouteFn",
    "CycleWitness",
    "turn_cdg",
    "routing_cdg",
    "find_dependency_cycle",
    "is_deadlock_free",
    "restriction_is_deadlock_free",
]

#: A routing relation: given the channel a packet arrived on (``None`` when
#: the packet is at its source), the node it now occupies, and its
#: destination, return the output channels the algorithm permits.
RouteFn = Callable[[Optional[Channel], NodeId, NodeId], Iterable[Channel]]

#: One dependency edge of the exact channel dependency graph.
_Edge = Tuple[Channel, Channel]

#: A dependency as first realized, on integer ids: (destination, position
#: of the requested channel in the relation's offer for it, requested
#: channel).  Sorting one channel's dependencies by it replays the order
#: a per-destination search would first add them in.
_FirstUse = Tuple[int, int, int]


@dataclass(frozen=True)
class CycleWitness:
    """A realizable dependency cycle, rendered as channels and turns.

    Refuting deadlock freedom needs more than "the graph has a cycle": a
    human (or a certificate checker) wants the channel sequence, the turn
    each hop takes, and for each dependency an example destination whose
    packets realize it.  The witness behaves like the plain channel list
    :func:`find_dependency_cycle` used to return (``len``, indexing,
    slicing, and iteration all see the channels), so existing callers
    keep working, while the verifier renders the full certificate.

    Attributes:
        channels: the channels of the cycle, in order; the cycle closes
            from the last channel back to the first.
        turns: ``turns[i]`` is the turn from ``channels[i]`` into
            ``channels[(i + 1) % len]`` (``None`` for a 0-degree straight
            continuation, which the paper does not count as a turn).
        dests: ``dests[i]`` is a destination for which a packet holding
            ``channels[i]`` may request ``channels[(i + 1) % len]``, when
            the builder recorded one (``None`` for turn-level witnesses,
            which over-approximate every destination at once).
    """

    channels: Tuple[Channel, ...]
    turns: Tuple[Optional[Turn], ...]
    dests: Tuple[Optional[NodeId], ...]

    def __post_init__(self) -> None:
        if not (len(self.channels) == len(self.turns) == len(self.dests)):
            raise ValueError("witness fields must be parallel sequences")

    def __len__(self) -> int:
        return len(self.channels)

    def __iter__(self) -> Iterator[Channel]:
        return iter(self.channels)

    @overload
    def __getitem__(self, index: int) -> Channel: ...

    @overload
    def __getitem__(self, index: slice) -> List[Channel]: ...

    def __getitem__(self, index: Union[int, slice]) -> Union[Channel, List[Channel]]:
        if isinstance(index, slice):
            return list(self.channels[index])
        return self.channels[index]

    def turn_names(self) -> List[str]:
        """The cycle's turns as compass strings (``"straight"`` for none)."""
        return [str(turn) if turn is not None else "straight" for turn in self.turns]

    def render(self) -> str:
        """A multi-line, human-readable account of the circular wait."""
        lines = [f"dependency cycle of {len(self.channels)} channels:"]
        count = len(self.channels)
        for i, channel in enumerate(self.channels):
            turn = self.turns[i]
            dest = self.dests[i]
            step = str(turn) if turn is not None else "straight"
            realized = f"  [packet bound for {dest}]" if dest is not None else ""
            nxt = self.channels[(i + 1) % count]
            lines.append(f"  {channel}  --{step}-->  {nxt}{realized}")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()

    @classmethod
    def from_channels(
        cls,
        channels: Iterable[Channel],
        edge_dests: Optional[Dict[_Edge, NodeId]] = None,
    ) -> "CycleWitness":
        """Build a witness from a channel cycle, deriving the turns.

        Args:
            channels: the cycle's channels in order (first not repeated).
            edge_dests: optional map from dependency edge to an example
                destination realizing it, as collected by
                :func:`routing_cdg`.
        """
        chans = tuple(channels)
        turns: List[Optional[Turn]] = []
        dests: List[Optional[NodeId]] = []
        for i, channel in enumerate(chans):
            nxt = chans[(i + 1) % len(chans)]
            if channel.direction == nxt.direction:
                turns.append(None)
            else:
                turns.append(Turn(channel.direction, nxt.direction))
            dests.append(
                edge_dests.get((channel, nxt)) if edge_dests is not None else None
            )
        return cls(chans, tuple(turns), tuple(dests))


def turn_cdg(topology: Topology, restriction: TurnRestriction) -> Digraph[Channel]:
    """Dependency graph induced by a turn restriction alone.

    An edge joins channel ``a`` to channel ``b`` whenever ``b`` leaves the
    node ``a`` enters and the restriction permits the transition from
    ``a``'s direction to ``b``'s direction (straight continuations and
    permitted reversals included).
    """
    graph: Digraph[Channel] = Digraph()
    for channel in topology.channels():
        graph.add_vertex(channel)
    for in_channel in topology.channels():
        for out_channel in topology.out_channels(in_channel.dst):
            if restriction.permits(in_channel.direction, out_channel.direction):
                graph.add_edge(in_channel, out_channel)
    return graph


def routing_cdg(
    topology: Topology,
    route_fn: RouteFn,
    edge_dests: Optional[Dict[_Edge, NodeId]] = None,
) -> Digraph[Channel]:
    """Exact dependency graph of a routing relation.

    Only realizable dependencies are included: channel ``a`` depends on
    channel ``b`` when, for some destination ``d``, a packet bound for
    ``d`` can hold ``a`` (it is reachable by forward closure from every
    source) and the relation offers ``b`` at ``a``'s head.

    The closure runs on integer ids for all destinations at once:
    ``held[c]`` is the bitmask of destinations whose packets can hold
    channel ``c``, seeded from the ``N**2`` first hops
    ``route_fn(None, s, d)``.  When ``route_fn`` declares
    ``uses_in_channel = False`` no further calls are needed: the
    fixpoint ``held[b] |= held[a] & offer[dst(a)][b]`` finishes the
    closure, where ``offer[n][b]`` masks the destinations for which the
    relation offers ``b`` at node ``n``.  Any other relation is expanded
    lazily, once per reachable (channel, destination) pair.

    The graph's vertex order, each channel's successor order and the
    recorded example destinations are those of a per-destination
    breadth-first search in ``topology.nodes()`` order, so numberings and
    cycle witnesses derived from the graph do not depend on the closure
    strategy.

    Args:
        topology: the network.
        route_fn: the routing relation.
        edge_dests: when given, filled with one example destination per
            dependency edge (the first destination, in node order, that
            realizes it), so cycle witnesses can show which packets
            realize each dependency.

    Raises:
        ValueError: if ``route_fn`` offers a channel that is not one of
            ``topology.channels()`` (a dead channel, a foreign lane): the
            graph would then describe a different network.
    """
    channels = topology.channels()
    nodes = list(topology.nodes())
    lookup = {channel: i for i, channel in enumerate(channels)}.get
    node_ids = {node: i for i, node in enumerate(nodes)}
    heads = [node_ids[channel.dst] for channel in channels]

    def offered(in_channel: Optional[Channel], node: NodeId, dest: NodeId) -> Tuple[int, ...]:
        outs = tuple(route_fn(in_channel, node, dest))
        ids = tuple([lookup(channel, -1) for channel in outs])
        if -1 in ids:
            raise ValueError(
                f"routing relation offers {outs[ids.index(-1)]} at node {node} "
                f"toward {dest} (arrived on {in_channel}), but it is not a "
                f"channel of {topology!r}"
            )
        return ids

    # routes[n] maps each distinct first-hop offer at node n to the mask
    # of destinations it is offered for.
    routes: List[Dict[Tuple[int, ...], int]] = [{} for _ in nodes]
    for d, dest in enumerate(nodes):
        bit = 1 << d
        for s, source in enumerate(nodes):
            if s != d:
                row = routes[s]
                ids = offered(None, source, dest)
                row[ids] = row.get(ids, 0) | bit
    held = [0] * len(channels)
    for row in routes:
        for ids, mask in row.items():
            for b in ids:
                held[b] |= mask

    if getattr(route_fn, "uses_in_channel", True):
        firsts = _expand_lazily(channels, nodes, heads, held, offered)
    else:
        firsts = _close_in_channel_free(routes, heads, held)

    successors: Dict[Channel, List[Channel]] = {}
    for a, channel in enumerate(channels):
        found = sorted(firsts[a])
        successors[channel] = [channels[b] for _, _, b in found]
        if edge_dests is not None:
            for d, _, b in found:
                edge_dests.setdefault((channel, channels[b]), nodes[d])
    return Digraph.from_successors(successors)


def _close_in_channel_free(
    routes: List[Dict[Tuple[int, ...], int]],
    heads: List[int],
    held: List[int],
) -> List[List[_FirstUse]]:
    """Destination-mask fixpoint for relations that ignore ``in_channel``.

    No ``route_fn`` calls beyond the first-hop table: a packet's offer
    at a node depends only on the node and its destination.
    """
    offer: List[Dict[int, int]] = []
    for row in routes:
        masks: Dict[int, int] = {}
        for ids, mask in row.items():
            for b in ids:
                masks[b] = masks.get(b, 0) | mask
        offer.append(masks)
    pending = deque(a for a, mask in enumerate(held) if mask)
    queued = [bool(mask) for mask in held]
    while pending:
        a = pending.popleft()
        queued[a] = False
        mask = held[a]
        for b, dests in offer[heads[a]].items():
            new = mask & dests & ~held[b]
            if new:
                held[b] |= new
                if not queued[b]:
                    queued[b] = True
                    pending.append(b)
    firsts: List[List[_FirstUse]] = []
    for a, mask in enumerate(held):
        node = heads[a]
        row = routes[node]
        found: List[_FirstUse] = []
        for b, dests in offer[node].items():
            realized = mask & dests
            if realized:
                low = realized & -realized
                ids = next(ids for ids, m in row.items() if m & low)
                found.append((low.bit_length() - 1, ids.index(b), b))
        firsts.append(found)
    return firsts


def _expand_lazily(
    channels: List[Channel],
    nodes: List[NodeId],
    heads: List[int],
    held: List[int],
    offered: Callable[[Optional[Channel], NodeId, NodeId], Tuple[int, ...]],
) -> List[List[_FirstUse]]:
    """Closure for relations that read ``in_channel``.

    Each reachable (channel, destination) pair is expanded by exactly
    one ``route_fn`` call, whatever order the worklist reaches it in.
    """
    done = [1 << node for node in heads]  # packets at their destination stop
    first_use: List[Dict[int, Tuple[int, int]]] = [{} for _ in channels]
    pending = deque(a for a, mask in enumerate(held) if mask)
    queued = [bool(mask) for mask in held]
    while pending:
        a = pending.popleft()
        queued[a] = False
        todo = held[a] & ~done[a]
        done[a] |= todo
        channel, node, uses = channels[a], nodes[heads[a]], first_use[a]
        while todo:
            bit = todo & -todo
            todo ^= bit
            d = bit.bit_length() - 1
            for pos, b in enumerate(offered(channel, node, nodes[d])):
                if b not in uses or (d, pos) < uses[b]:
                    uses[b] = (d, pos)
                if not held[b] & bit:
                    held[b] |= bit
                    if not queued[b]:
                        queued[b] = True
                        pending.append(b)
    return [[(d, pos, b) for b, (d, pos) in uses.items()] for uses in first_use]


def find_dependency_cycle(
    topology: Topology, route_fn: RouteFn
) -> Optional[CycleWitness]:
    """A realizable dependency cycle of the routing relation, or ``None``.

    The witness is a *shortest* cycle of the exact channel dependency
    graph, annotated with the turns taken and an example destination per
    dependency — on the Figure 1 fixture it renders as the paper's
    four-channel circular wait.  It still behaves as the plain channel
    list earlier revisions returned (iteration, ``len``, indexing).
    """
    edge_dests: Dict[_Edge, NodeId] = {}
    graph = routing_cdg(topology, route_fn, edge_dests=edge_dests)
    if graph.is_acyclic():
        return None
    cycle = graph.shortest_cycle()
    assert cycle is not None  # is_acyclic() said otherwise
    return CycleWitness.from_channels(cycle, edge_dests)


def is_deadlock_free(topology: Topology, route_fn: RouteFn) -> bool:
    """Dally-Seitz test: whether the routing relation cannot deadlock."""
    return find_dependency_cycle(topology, route_fn) is None


def restriction_is_deadlock_free(
    topology: Topology, restriction: TurnRestriction
) -> bool:
    """Whether *every* routing algorithm obeying ``restriction`` is safe.

    Checks acyclicity of the turn-induced dependency graph.  On topologies
    with wraparound channels this is usually false even for safe
    restrictions (rings cycle without turning); use :func:`is_deadlock_free`
    with the concrete algorithm there.
    """
    return turn_cdg(topology, restriction).is_acyclic()
