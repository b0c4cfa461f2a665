"""Independent brute-force oracles used to cross-check the library's solvers.

These deliberately avoid the library's algorithmic paths: graph cuts by
bipartition enumeration instead of flow, hypergraph cuts by plain
exhaustive enumeration without pruning, and link connectivity by BFS
over pairwise adjacency between loop names instead of the library's
block growth over atom bitmasks.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from linkcone.core import Subsystem
from linkcone.graphs import WeightedGraph
from linkcone.hypergraphs import Hypergraph
from linkcone.links import AtomicLinkages, LinkModel


def bipartition_graph_mincut(graph: WeightedGraph, subsystem: Subsystem) -> Fraction:
    """Minimum cut weight by enumerating every internal-vertex bipartition."""
    inside = {graph.external[i] for i in subsystem}
    outside = {v for i, v in graph.external.items() if i not in subsystem}
    internal = [v for v in graph.vertices if v not in inside and v not in outside]
    best = None
    for bits in itertools.product((False, True), repeat=len(internal)):
        chosen = inside | {v for v, b in zip(internal, bits) if b}
        weight = sum(
            (w for u, v, w in graph.edges if (u in chosen) != (v in chosen)), Fraction(0)
        )
        best = weight if best is None else min(best, weight)
    assert best is not None
    return best


def exhaustive_hypergraph_entropy(hypergraph: Hypergraph, subsystem: Subsystem) -> Fraction:
    """Minimum split weight by plain enumeration, no pruning."""
    inside = {hypergraph.external[i] for i in subsystem}
    outside = {v for i, v in hypergraph.external.items() if i not in subsystem}
    internal = [v for v in hypergraph.vertices if v not in inside and v not in outside]
    best = None
    for bits in itertools.product((False, True), repeat=len(internal)):
        chosen = inside | {v for v, b in zip(internal, bits) if b}
        weight = Fraction(0)
        for members, w in hypergraph.hyperedges:
            if members & chosen and members - chosen:
                weight += w
        best = weight if best is None else min(best, weight)
    assert best is not None
    return best


def _bfs_blocks(model: LinkModel, present: frozenset[str]) -> list[frozenset[str]]:
    """Connected sublinks of `present` via BFS over pairwise atom adjacency."""
    assert isinstance(model.structure, AtomicLinkages)
    alive = [a for a in model.structure.atoms if a <= present]
    neighbours: dict[str, set[str]] = {name: set() for name in present}
    for atom in alive:
        for a, b in itertools.combinations(sorted(atom), 2):
            neighbours[a].add(b)
            neighbours[b].add(a)
    blocks = []
    seen: set[str] = set()
    for start in sorted(present):
        if start in seen:
            continue
        queue = [start]
        component = set()
        while queue:
            node = queue.pop()
            if node in component:
                continue
            component.add(node)
            queue.extend(neighbours[node] - component)
        seen |= component
        blocks.append(frozenset(component))
    return blocks


def bruteforce_link_mincut(model: LinkModel, subsystem: Subsystem):
    """Minimum-weight valid loop cut by enumerating every internal finite subset.

    Returns (weight, cut) with ties broken by the sorted loop-index list,
    matching the library's declared tie-break but computed independently.
    """
    inside = frozenset(model.external[i] for i in subsystem)
    outside = frozenset(v for i, v in model.external.items() if i not in subsystem)
    candidates = [
        name
        for name in model.loops
        if name not in model.external_loops and model.is_finite(name)
    ]
    universe = frozenset(model.loops)

    def valid(cut: frozenset[str]) -> bool:
        for block in _bfs_blocks(model, universe - cut):
            if block & inside and block & outside:
                return False
        return True

    best = None
    for r in range(len(candidates) + 1):
        for combo in itertools.combinations(candidates, r):
            cut = frozenset(combo)
            if not valid(cut):
                continue
            weight = sum((Fraction(model.weights[x]) for x in combo), Fraction(0))
            key = (weight, tuple(sorted(model.loop_index(x) for x in combo)))
            if best is None or key < best[0]:
                best = (key, cut)
    assert best is not None, "no valid cut exists"
    return best[0][0], best[1]
