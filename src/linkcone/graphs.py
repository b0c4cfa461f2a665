"""Weighted-graph min-cut entropy model.

Subsystem entropy is the minimum total weight of edges separating the
subsystem's external vertices from all other external vertices.  A graph
is the rank-2 hypergraph: each edge is a two-member hyperedge, so the
entropy is one exact integer max-flow on the cut network `hypergraphs`
builds once per model, where every edge is one undirected arc pair and a
subsystem only opens its terminal slots.  Graphs are frozen, so the
network never goes stale; a race at first use only builds it twice.  The
test suite cross-checks the flow against exhaustive bipartition
enumeration.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction

from .core import Subsystem, _declared, _reduce, _store, entropy_vector
from .flow import CutNetwork
from .hypergraphs import _cut_entropy


@dataclass(frozen=True)
class WeightedGraph:
    """Undirected graph with nonnegative rational edge weights.

    `external` maps party indices 1..n+1 (purifier last) to vertex names;
    the mapping must be injective.  Parallel edges are allowed and sum;
    self-loops are rejected because they can never cross a cut.
    """

    vertices: tuple[str, ...]
    external: Mapping[int, str]
    edges: tuple[tuple[str, str, Fraction], ...]
    _network: CutNetwork | None = field(default=None, init=False, repr=False, compare=False)

    __reduce__ = _reduce

    def __post_init__(self) -> None:
        vertices, external, vertex_set = _declared(self.vertices, self.external, "vertex", "vertices")
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
        _store(self, vertices=vertices, external=external, edges=tuple(edges))

    @property
    def n(self) -> int:
        return len(self.external) - 1

    # `graph`, not `self`: this method is also the public `graph_entropy`
    def entropy(graph: WeightedGraph, subsystem: Subsystem) -> Fraction:
        """Min-cut weight separating the subsystem's externals from all others."""
        return _cut_entropy(graph, (((u, v), w) for u, v, w in graph.edges), subsystem)


graph_entropy = WeightedGraph.entropy
graph_entropy_vector = entropy_vector
