"""Rank-k hypergraph min-cut entropy model, and the cut network graphs share.

A hyperedge contributes its weight to a cut exactly when the chosen
vertex set splits its members.  Each entropy is one exact integer
max-flow on a cut network (`flow.CutNetwork`, which scales the weights)
that `_cut_entropy` builds once per model; a subsystem only opens its
external vertices' terminal slots.  A hyperedge of two members is an
undirected arc pair of its weight, which makes a weighted graph the
rank-2 case: `graphs` feeds its edges to the same builder.  A hyperedge
of three or more members gets Lawler's gadget (E. L. Lawler, *Cutsets
and partitions of hypergraphs*, Networks 3, 1973): an arc of its weight
from an entry node to an exit node, with every member feeding the entry
and fed by the exit through uncuttable arcs, so a finite cut severs
exactly the hyperedges a vertex set splits.  Models are frozen (as are
`WeightedGraph` and `LinkModel`), so the network never goes stale; a race
at first use only builds it twice.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction

from .core import Subsystem, _check_subsystem, _declared, _distinct, _reduce, _store, entropy_vector
from .flow import CutNetwork


def _cut_entropy(model, edges, subsystem: Subsystem) -> Fraction:
    """Minimum weight of `edges` split by a vertex set holding exactly the subsystem's externals.

    `model` is a `Hypergraph` or `WeightedGraph`; its (members, weight)
    `edges` are read only to build `model._network` on the first query.
    Each external vertex is a terminal: the subsystem's are fed by the
    source, the others drain into the sink.
    """
    subsystem = _check_subsystem(subsystem, model.n)
    network = model._network
    if network is None:
        edges = list(edges)
        node = {v: i for i, v in enumerate(model.vertices)}
        gadget = len(node)
        network = CutNetwork(gadget + 2 * sum(len(members) > 2 for members, _ in edges), [w for _, w in edges])
        for (members, _), c in zip(edges, network.capacities):
            if len(members) == 2:
                u, v = members
                network.add(node[u], node[v], c, c)
                continue
            network.add(gadget, gadget + 1, c)
            for v in members:
                network.add(node[v], gadget, network.big)
                network.add(gadget + 1, node[v], network.big)
            gadget += 2
        for party, v in model.external.items():
            network.slot(party, node[v], node[v])
        object.__setattr__(model, "_network", network)
    flow, _ = network.solve(subsystem, model.external.keys() - subsystem)
    return Fraction(flow, network.scale)


@dataclass(frozen=True)
class Hypergraph:
    """Vertices plus weighted hyperedges of two or more distinct members.

    Hyperedges with identical member sets are kept as separate entries;
    the cut weight is unchanged either way.
    """

    vertices: tuple[str, ...]
    external: Mapping[int, str]
    hyperedges: tuple[tuple[frozenset[str], Fraction], ...]
    _network: CutNetwork | None = field(default=None, init=False, repr=False, compare=False)

    __reduce__ = _reduce

    def __post_init__(self) -> None:
        vertices, external, vertex_set = _declared(self.vertices, self.external, "vertex", "vertices")
        edges = []
        for members, w in self.hyperedges:
            members = _distinct(members, "hyperedge members")
            if len(members) < 2:
                raise ValueError("hyperedges need at least two distinct members")
            if not members <= vertex_set:
                raise ValueError(f"hyperedge {sorted(members)} references unknown vertices")
            w = Fraction(w)
            if w < 0:
                raise ValueError("hyperedge weights must be nonnegative")
            edges.append((members, w))
        _store(self, vertices=vertices, external=external, hyperedges=tuple(edges))

    @property
    def n(self) -> int:
        return len(self.external) - 1

    # `hypergraph`, not `self`: this method is also the public `hypergraph_entropy`
    def entropy(hypergraph: Hypergraph, subsystem: Subsystem) -> Fraction:
        """Minimum cut weight over vertex sets containing exactly the subsystem's externals."""
        return _cut_entropy(hypergraph, hypergraph.hyperedges, subsystem)


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
