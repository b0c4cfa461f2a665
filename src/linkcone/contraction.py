"""Contraction-map verification and search for entropy inequalities.

A bitstring map f: {0,1}^L -> {0,1}^R certifies an inequality on graphs
when it fixes every party's occurrence strings and contracts the
weighted Hamming norm on all pairs.  On rank-k hypergraphs the pairwise
norm condition generalizes to a per-coordinate mixed-bits indicator over
all k-tuples; checking tuples with repetition subsumes every lower rank.

The searcher runs exhaustive backtracking with pruning, so an exhausted
search certifies that no map exists.  A node budget guards instances
whose search space is astronomically large.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement, product

from .core import Bits, LinearInequality, mixed_indicator, occurrence_bitstrings, weighted_hamming_norm

FOUND = "found"
NOT_FOUND = "not_found"
BUDGET_EXCEEDED = "budget_exceeded"


@dataclass(frozen=True)
class ContractionReport:
    """Verdict of a contraction check, with the first violating input."""

    ok: bool
    violation: tuple | None = None
    reason: str | None = None


@dataclass(frozen=True)
class SearchResult:
    status: str
    mapping: dict[Bits, Bits] | None = None
    nodes: int = 0
    depth: int = 0
    note: str | None = None


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


def check_graph_contraction(mapping: dict[Bits, Bits], ineq: LinearInequality) -> ContractionReport:
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


def check_hypergraph_contraction(
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


def search_contraction_map(
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
        report = check_graph_contraction(found, ineq)
    else:
        report = check_hypergraph_contraction(found, ineq, rank)
    if not report.ok:
        raise RuntimeError("search returned a map that fails verification")
    return SearchResult(FOUND, mapping=found, nodes=nodes, depth=len(free))


class _BudgetExceeded(Exception):
    pass
