"""Independent brute-force oracles used to cross-check the library's solvers.

These deliberately avoid the library's algorithmic paths: graph cuts by
bipartition enumeration instead of flow, hypergraph cuts by plain
exhaustive enumeration without pruning, and link connectivity by BFS
over pairwise adjacency between loop names instead of the library's
block growth over atom bitmasks.  Contraction maps are checked and
searched with `Fraction` sums over bit tuples instead of the library's
integer-scaled weight tables over bitmasks.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from itertools import combinations_with_replacement, product

from linkcone.contraction import BUDGET_EXCEEDED, FOUND, NOT_FOUND, ContractionReport, SearchResult
from linkcone.core import (
    Bits,
    LinearInequality,
    Subsystem,
    mixed_indicator,
    occurrence_bitstrings,
    weighted_hamming_norm,
)
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


# ---------------------------------------------------------------------------
# contraction maps: the Fraction-arithmetic checkers and backtracking search
# the library used before its integer-mask kernel, kept unchanged as the
# reference that node counts, first maps and violation reports must match


def _all_bitstrings(length: int) -> list[Bits]:
    """All bitstrings ordered by Hamming weight, then lexicographically."""
    return sorted(product((0, 1), repeat=length), key=lambda b: (sum(b), b))


def _fixed_points(ineq: LinearInequality) -> dict[Bits, Bits] | None:
    """Occurrence-string constraints on any candidate map; None when contradictory."""
    xs, ys = occurrence_bitstrings(ineq)
    fixed: dict[Bits, Bits] = {}
    for x, y in zip(xs, ys):
        if fixed.get(x, y) != y:
            return None
        fixed[x] = y
    return fixed


def _check_totality(mapping: dict[Bits, Bits], ineq: LinearInequality) -> None:
    length = len(ineq.lhs)
    width = len(ineq.rhs)
    expected = set(product((0, 1), repeat=length))
    extra = set(mapping) - expected
    if extra:
        raise ValueError(f"map defined on strings outside {{0,1}}^{length}: {sorted(extra)[:3]}")
    for x in expected:
        image = mapping.get(x)
        if image is None:
            raise ValueError(f"map is not total: no image for {''.join(map(str, x))}")
        if len(image) != width or not all(b in (0, 1) for b in image):
            raise ValueError(f"image of {''.join(map(str, x))} is not a {width}-bit string")


def reference_graph_check(mapping: dict[Bits, Bits], ineq: LinearInequality) -> ContractionReport:
    """Pairwise weighted-Hamming contraction plus the occurrence fixed points."""
    _check_totality(mapping, ineq)
    fixed = _fixed_points(ineq)
    if fixed is None:
        return ContractionReport(False, reason="occurrence bitstrings are contradictory")
    for x, y in fixed.items():
        if mapping[x] != y:
            return ContractionReport(
                False, violation=(x,), reason=f"occurrence fixed point broken at {''.join(map(str, x))}"
            )
    alphas = ineq.lhs_coeffs
    betas = ineq.rhs_coeffs
    strings = list(mapping)
    for i, x in enumerate(strings):
        for x2 in strings[i + 1 :]:
            diff = tuple(a - b for a, b in zip(x, x2))
            image_diff = tuple(a - b for a, b in zip(mapping[x], mapping[x2]))
            if weighted_hamming_norm(diff, alphas) < weighted_hamming_norm(image_diff, betas):
                return ContractionReport(False, violation=(x, x2), reason="norm contraction violated")
    return ContractionReport(True)


def _indicator_sum(rows: tuple[Bits, ...], coeffs) -> Fraction:
    total = Fraction(0)
    for coeff, column in zip(coeffs, zip(*rows)):
        total += coeff * mixed_indicator(column)
    return total


def reference_hypergraph_check(
    mapping: dict[Bits, Bits], ineq: LinearInequality, k: int
) -> ContractionReport:
    """Indicator contraction over all k-tuples with repetition, plus fixed points.

    Repeated arguments reduce the rank-k indicator to every lower rank,
    so a single pass covers ranks 2..k.
    """
    if k < 2:
        raise ValueError("rank must be at least 2")
    _check_totality(mapping, ineq)
    fixed = _fixed_points(ineq)
    if fixed is None:
        return ContractionReport(False, reason="occurrence bitstrings are contradictory")
    for x, y in fixed.items():
        if mapping[x] != y:
            return ContractionReport(
                False, violation=(x,), reason=f"occurrence fixed point broken at {''.join(map(str, x))}"
            )
    alphas = ineq.lhs_coeffs
    betas = ineq.rhs_coeffs
    for rows in combinations_with_replacement(sorted(mapping), k):
        images = tuple(mapping[x] for x in rows)
        if _indicator_sum(rows, alphas) < _indicator_sum(images, betas):
            return ContractionReport(False, violation=rows, reason="indicator contraction violated")
    return ContractionReport(True)


def _pair_ok(x: Bits, y: Bits, x2: Bits, y2: Bits, alphas, betas) -> bool:
    diff = tuple(a - b for a, b in zip(x, x2))
    image_diff = tuple(a - b for a, b in zip(y, y2))
    return weighted_hamming_norm(diff, alphas) >= weighted_hamming_norm(image_diff, betas)


def reference_search(
    ineq: LinearInequality,
    mode: str = "graph",
    rank: int | None = None,
    budget: int | None = None,
) -> SearchResult:
    """Backtracking search for a contraction map.

    Domain strings are assigned in Hamming-weight-then-lex order with the
    occurrence fixed points pre-seeded; candidate images are tried in lex
    order and pruned against every already-assigned string.  Returns the
    first verified map, an exhaustion certificate, or a budget failure
    (each attempted assignment counts as one node).
    """
    if mode not in ("graph", "hypergraph"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "hypergraph":
        if rank is None or rank < 2:
            raise ValueError("hypergraph mode needs a rank of at least 2")
    if budget is not None and budget <= 0:
        raise ValueError("budget must be positive")

    length = len(ineq.lhs)
    width = len(ineq.rhs)
    alphas = ineq.lhs_coeffs
    betas = ineq.rhs_coeffs
    fixed = _fixed_points(ineq)
    if fixed is None:
        return SearchResult(NOT_FOUND, note="occurrence bitstrings are contradictory")

    def consistent_with(assigned: dict[Bits, Bits], x: Bits, y: Bits) -> bool:
        if mode == "graph":
            return all(_pair_ok(x, y, x2, y2, alphas, betas) for x2, y2 in assigned.items())
        others = list(assigned)
        for repeat in range(1, rank + 1):
            for rest in combinations_with_replacement(others, rank - repeat):
                rows = rest + (x,) * repeat
                images = tuple(assigned[s] for s in rest) + (y,) * repeat
                if _indicator_sum(rows, alphas) < _indicator_sum(images, betas):
                    return False
        return True

    # the pre-seeded fixed points must already be mutually consistent
    seeded: dict[Bits, Bits] = {}
    for x in sorted(fixed, key=lambda b: (sum(b), b)):
        if not consistent_with(seeded, x, fixed[x]):
            return SearchResult(NOT_FOUND, note="occurrence fixed points are not a contraction")
        seeded[x] = fixed[x]

    free = [x for x in _all_bitstrings(length) if x not in fixed]
    images = list(product((0, 1), repeat=width))
    nodes = 0
    deepest = 0

    def descend(pos: int, assigned: dict[Bits, Bits]) -> dict[Bits, Bits] | None:
        nonlocal nodes, deepest
        deepest = max(deepest, pos)
        if pos == len(free):
            return dict(assigned)
        x = free[pos]
        for y in images:
            nodes += 1
            if budget is not None and nodes > budget:
                raise _BudgetExceeded
            if consistent_with(assigned, x, y):
                assigned[x] = y
                found = descend(pos + 1, assigned)
                if found is not None:
                    return found
                del assigned[x]
        return None

    try:
        found = descend(0, dict(seeded))
    except _BudgetExceeded:
        return SearchResult(BUDGET_EXCEEDED, nodes=nodes, depth=deepest)
    if found is None:
        return SearchResult(NOT_FOUND, nodes=nodes, depth=deepest)
    if mode == "graph":
        report = reference_graph_check(found, ineq)
    else:
        report = reference_hypergraph_check(found, ineq, rank)
    if not report.ok:
        raise RuntimeError("search returned a map that fails verification")
    return SearchResult(FOUND, mapping=found, nodes=nodes, depth=len(free))


class _BudgetExceeded(Exception):
    pass
