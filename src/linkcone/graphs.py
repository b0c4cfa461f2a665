"""Weighted-graph min-cut entropy model.

Subsystem entropy is the minimum total weight of edges separating the
subsystem's external vertices from all other external vertices.  It is
one integer max-flow (`flow.Network`) per subsystem, with the weights
scaled by the least common multiple of their denominators and the flow
divided back, so the result is the exact rational; the test suite
cross-checks it against exhaustive bipartition enumeration.
Graphs are treated as immutable once built and every query is pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import EntropyVector, Subsystem, all_subsystems
from .flow import Network, scale_of, scaled


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

    def __post_init__(self) -> None:
        self.vertices = tuple(self.vertices)
        self.external = dict(self.external)
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("duplicate vertex names")
        vertex_set = set(self.vertices)
        parties = sorted(self.external)
        if parties != list(range(1, len(parties) + 1)) or len(parties) < 2:
            raise ValueError("external mapping must cover parties 1..n+1 with n >= 1")
        if len(set(self.external.values())) != len(self.external):
            raise ValueError("external mapping must be injective")
        if not set(self.external.values()) <= vertex_set:
            raise ValueError("external mapping references unknown vertices")
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


def graph_entropy(graph: WeightedGraph, subsystem: Subsystem) -> Fraction:
    """Min-cut weight separating the subsystem's externals from all others."""
    subsystem = frozenset(subsystem)
    if not subsystem or not subsystem <= set(range(1, graph.n + 1)):
        raise ValueError(f"subsystem must be a nonempty subset of [{graph.n}]")
    # the subsystem's externals merge into the source, the others into the sink
    node = {v: i for i, v in enumerate(graph.vertices)}
    source, sink = len(node), len(node) + 1
    for party, v in graph.external.items():
        node[v] = source if party in subsystem else sink
    scale = scale_of(w for _, _, w in graph.edges)
    network = Network(len(node) + 2)
    for u, v, w in graph.edges:
        if node[u] != node[v]:
            c = scaled(w, scale)
            network.add(node[u], node[v], c, c)
    return Fraction(network.max_flow(source, sink), scale)


def graph_entropy_vector(graph: WeightedGraph) -> EntropyVector:
    return EntropyVector(graph.n, tuple(graph_entropy(graph, sub) for sub in all_subsystems(graph.n)))
