"""Weighted-graph min-cut entropy model.

Subsystem entropy is the minimum total weight of edges separating the
subsystem's external vertices from all other external vertices.  A graph
is the rank-2 hypergraph: each edge is a two-member hyperedge, so the
entropy is one exact integer max-flow on the cut network `hypergraphs`
builds once per model, where every edge is one undirected arc pair and a
subsystem only opens its terminal slots.  Mutating a graph after its
first query is unsupported; a race at first use only builds the network
twice.  The test suite cross-checks the flow against exhaustive
bipartition enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .core import Subsystem, _check_external, entropy_vector
from .flow import CutNetwork
from .hypergraphs import _cut_entropy


@dataclass
class WeightedGraph:
    """Undirected graph with nonnegative rational edge weights.

    `external` maps party indices 1..n+1 (purifier last) to vertex names;
    the mapping must be injective.  Parallel edges are allowed and sum;
    self-loops are rejected because they can never cross a cut.
    """

    vertices: tuple[str, ...]
    external: dict[int, str]
    edges: tuple[tuple[str, str, Fraction], ...]
    _network: CutNetwork | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.vertices = tuple(self.vertices)
        self.external = dict(self.external)
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("duplicate vertex names")
        vertex_set = set(self.vertices)
        _check_external(self.external, vertex_set, "vertices")
        edges = []
        for u, v, w in self.edges:
            if u == v:
                raise ValueError(f"self-loop on {u!r} rejected")
            if u not in vertex_set or v not in vertex_set:
                raise ValueError(f"edge ({u!r}, {v!r}) references unknown vertices")
            w = Fraction(w)
            if w < 0:
                raise ValueError("edge weights must be nonnegative")
            edges.append((u, v, w))
        self.edges = tuple(edges)

    @property
    def n(self) -> int:
        return len(self.external) - 1

    # `graph`, not `self`: this method is also the public `graph_entropy`
    def entropy(graph: WeightedGraph, subsystem: Subsystem) -> Fraction:
        """Min-cut weight separating the subsystem's externals from all others."""
        return _cut_entropy(graph, (((u, v), w) for u, v, w in graph.edges), subsystem)


graph_entropy = WeightedGraph.entropy
graph_entropy_vector = entropy_vector
