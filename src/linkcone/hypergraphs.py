"""Rank-k hypergraph min-cut entropy model, and the cut network graphs share.

A hyperedge contributes its weight to a cut exactly when the chosen
vertex set splits its members.  Each entropy is one integer max-flow
(`flow.Network`) on a cut network built by `_cut_entropy`.  A hyperedge
of two members is an undirected arc pair of its weight, which makes a
weighted graph the rank-2 case: `graphs` feeds its edges to the same
builder.  A hyperedge of three or more members gets Lawler's gadget
(E. L. Lawler, *Cutsets and partitions of hypergraphs*, Networks 3,
1973): an arc of its weight from an entry node to an exit node, with
every member feeding the entry and fed by the exit through uncuttable
arcs, so a finite cut severs exactly the hyperedges a vertex set splits.
Weights are scaled by the least common multiple of their denominators
and the flow divided back, so the result is the exact rational.  Models
are immutable by convention and queries have no shared state, so
concurrent use is safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import Subsystem, _check_external, _check_subsystem, entropy_vector, scale_of, scaled
from .flow import Network


def _cut_entropy(vertices, external: dict[int, str], edges, subsystem: Subsystem) -> Fraction:
    """Minimum weight of `edges` split by a vertex set holding exactly the subsystem's externals.

    `edges` is a sequence of (members, weight) pairs with at least two
    members each.  The subsystem's externals merge into the source and
    the other externals into the sink.  A two-member edge is one
    undirected arc pair, skipped when both ends merge into the same node;
    a larger edge is Lawler's gadget.
    """
    subsystem = _check_subsystem(subsystem, len(external) - 1)
    node = {v: i for i, v in enumerate(vertices)}
    source, sink = len(node), len(node) + 1
    for party, v in external.items():
        node[v] = source if party in subsystem else sink
    scale = scale_of(w for _, w in edges)
    caps = [scaled(w, scale) for _, w in edges]
    big = sum(caps) + 1
    network = Network(sink + 1 + 2 * sum(len(members) > 2 for members, _ in edges))
    gadget = sink + 1
    for (members, _), c in zip(edges, caps):
        if len(members) == 2:
            u, v = members
            if node[u] != node[v]:
                network.add(node[u], node[v], c, c)
            continue
        network.add(gadget, gadget + 1, c)
        for v in members:
            network.add(node[v], gadget, big)
            network.add(gadget + 1, node[v], big)
        gadget += 2
    return Fraction(network.max_flow(source, sink), scale)


@dataclass
class Hypergraph:
    """Vertices plus weighted hyperedges of two or more distinct members.

    Hyperedges with identical member sets are kept as separate entries;
    the cut weight is unchanged either way.
    """

    vertices: tuple[str, ...]
    external: dict[int, str]
    hyperedges: tuple[tuple[frozenset[str], Fraction], ...]

    def __post_init__(self) -> None:
        self.vertices = tuple(self.vertices)
        self.external = dict(self.external)
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("duplicate vertex names")
        vertex_set = set(self.vertices)
        _check_external(self.external, vertex_set, "vertices")
        edges = []
        for members, w in self.hyperedges:
            members = frozenset(members)
            if len(members) < 2:
                raise ValueError("hyperedges need at least two distinct members")
            if not members <= vertex_set:
                raise ValueError(f"hyperedge {sorted(members)} references unknown vertices")
            w = Fraction(w)
            if w < 0:
                raise ValueError("hyperedge weights must be nonnegative")
            edges.append((members, w))
        self.hyperedges = tuple(edges)

    @property
    def n(self) -> int:
        return len(self.external) - 1

    @property
    def rank(self) -> int:
        return max((len(members) for members, _ in self.hyperedges), default=0)

    # `hypergraph`, not `self`: this method is also the public `hypergraph_entropy`
    def entropy(hypergraph: Hypergraph, subsystem: Subsystem) -> Fraction:
        """Minimum cut weight over vertex sets containing exactly the subsystem's externals."""
        return _cut_entropy(hypergraph.vertices, hypergraph.external, hypergraph.hyperedges, subsystem)


def hypergraph_cut_weight(hypergraph: Hypergraph, inside: set[str] | frozenset[str]) -> Fraction:
    """Total weight of hyperedges split by the vertex set `inside`."""
    inside = set(inside)
    total = Fraction(0)
    for members, w in hypergraph.hyperedges:
        if members & inside and members - inside:
            total += w
    return total


hypergraph_entropy = Hypergraph.entropy
hypergraph_entropy_vector = entropy_vector
