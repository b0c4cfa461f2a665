"""Rank-k hypergraph min-cut entropy model.

A hyperedge contributes its weight to a cut exactly when the chosen
vertex set splits its members.  Each entropy is one integer max-flow
(`flow.Network`) on Lawler's hypergraph-cut network (E. L. Lawler,
*Cutsets and partitions of hypergraphs*, Networks 3, 1973): a hyperedge
becomes an arc of its weight from an entry node to an exit node, every
member feeds the entry and is fed by the exit through uncuttable arcs,
so a finite cut severs exactly the hyperedges a vertex set splits.
Weights are scaled by the least common multiple of their denominators
and the flow divided back, so the result is the exact rational.  Models
are immutable by convention and queries have no shared state, so
concurrent use is safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import EntropyVector, Subsystem, all_subsystems
from .flow import Network, scale_of, scaled


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
        parties = sorted(self.external)
        if parties != list(range(1, len(parties) + 1)) or len(parties) < 2:
            raise ValueError("external mapping must cover parties 1..n+1 with n >= 1")
        if len(set(self.external.values())) != len(self.external):
            raise ValueError("external mapping must be injective")
        if not set(self.external.values()) <= vertex_set:
            raise ValueError("external mapping references unknown vertices")
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


def hypergraph_cut_weight(hypergraph: Hypergraph, inside: set[str] | frozenset[str]) -> Fraction:
    """Total weight of hyperedges split by the vertex set `inside`."""
    inside = set(inside)
    total = Fraction(0)
    for members, w in hypergraph.hyperedges:
        if members & inside and members - inside:
            total += w
    return total


def hypergraph_entropy(hypergraph: Hypergraph, subsystem: Subsystem) -> Fraction:
    """Minimum cut weight over vertex sets containing exactly the subsystem's externals."""
    subsystem = frozenset(subsystem)
    if not subsystem or not subsystem <= set(range(1, hypergraph.n + 1)):
        raise ValueError(f"subsystem must be a nonempty subset of [{hypergraph.n}]")
    # Lawler's network: hyperedge k is an arc in(k) -> out(k) of its weight,
    # and every member v has uncuttable arcs v -> in(k) and out(k) -> v
    node = {v: i for i, v in enumerate(hypergraph.vertices)}
    base = len(node)
    sink = base + 2 * len(hypergraph.hyperedges) + 1
    source = sink - 1
    for party, v in hypergraph.external.items():
        node[v] = source if party in subsystem else sink
    scale = scale_of(w for _, w in hypergraph.hyperedges)
    caps = [scaled(w, scale) for _, w in hypergraph.hyperedges]
    big = sum(caps) + 1
    network = Network(sink + 1)
    for k, ((members, _), c) in enumerate(zip(hypergraph.hyperedges, caps)):
        e_in, e_out = base + 2 * k, base + 2 * k + 1
        network.add(e_in, e_out, c)
        for v in members:
            network.add(node[v], e_in, big)
            network.add(e_out, node[v], big)
    return Fraction(network.max_flow(source, sink), scale)


def hypergraph_entropy_vector(hypergraph: Hypergraph) -> EntropyVector:
    return EntropyVector(
        hypergraph.n,
        tuple(hypergraph_entropy(hypergraph, sub) for sub in all_subsystems(hypergraph.n)),
    )
