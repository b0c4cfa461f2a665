"""Contraction-map verification and search for entropy inequalities.

A bitstring map f: {0,1}^L -> {0,1}^R certifies an inequality on graphs
when it fixes every party's occurrence strings and contracts the
weighted Hamming norm on all pairs.  On rank-k hypergraphs the pairwise
norm condition generalizes to a per-coordinate mixed-bits indicator over
all k-tuples; checking tuples with repetition subsumes every lower rank,
and the pairwise norm is rank 2, so graph mode is the rank-2 case.

Strings are ints (bit j = coordinate j) and both sides' coefficients are
scaled by one common denominator, so a tuple's condition is the exact
integer comparison ``W_lhs[OR ^ AND of its rows] >= W_rhs[OR ^ AND of
their images]`` over tables of weights on every mask.  OR and AND ignore
repeated rows, so a new string x meets the rank-k condition exactly when
x with every set of 1..k-1 distinct assigned strings does.

The searcher runs exhaustive backtracking with pruning, so an exhausted
search certifies that no map exists.  A node budget guards instances
whose search space is astronomically large.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import combinations, combinations_with_replacement, product
from operator import and_, or_

from .core import Bits, LinearInequality, occurrence_bitstrings, scale_of, scaled

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


def _mask(bits: Bits) -> int:
    return sum(b << j for j, b in enumerate(bits))


def _weight_tables(ineq: LinearInequality) -> tuple[list[int], list[int]]:
    """Integer-scaled coefficient sums over every LHS mask and every RHS mask."""
    scale = scale_of(ineq.lhs_coeffs + ineq.rhs_coeffs)

    def table(coeffs) -> list[int]:
        weights = [0]
        for c in coeffs:
            c = scaled(c, scale)
            weights += [w + c for w in weights]
        return weights

    return table(ineq.lhs_coeffs), table(ineq.rhs_coeffs)


def _mixed(masks: list[int]) -> int:
    """Mask of the coordinates on which the given strings disagree."""
    return reduce(or_, masks) ^ reduce(and_, masks)


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


def _check(mapping: dict[Bits, Bits], ineq: LinearInequality, tuples, reason: str) -> ContractionReport:
    """Totality, the occurrence fixed points, then the first violating tuple from `tuples()`."""
    _check_totality(mapping, ineq)
    fixed = _fixed_points(ineq)
    if fixed is None:
        return ContractionReport(False, reason="occurrence bitstrings are contradictory")
    for x, y in fixed.items():
        if mapping[x] != y:
            return ContractionReport(
                False, violation=(x,), reason=f"occurrence fixed point broken at {''.join(map(str, x))}"
            )
    w_lhs, w_rhs = _weight_tables(ineq)
    masks = {x: (_mask(x), _mask(y)) for x, y in mapping.items()}
    for rows in tuples():
        if w_lhs[_mixed([masks[x][0] for x in rows])] < w_rhs[_mixed([masks[x][1] for x in rows])]:
            return ContractionReport(False, violation=rows, reason=reason)
    return ContractionReport(True)


def check_graph_contraction(mapping: dict[Bits, Bits], ineq: LinearInequality) -> ContractionReport:
    """Pairwise weighted-Hamming contraction plus the occurrence fixed points."""
    return _check(mapping, ineq, lambda: combinations(mapping, 2), "norm contraction violated")


def check_hypergraph_contraction(
    mapping: dict[Bits, Bits], ineq: LinearInequality, k: int
) -> ContractionReport:
    """Indicator contraction over all k-tuples with repetition, plus fixed points.

    Repeated arguments reduce the rank-k indicator to every lower rank,
    so a single pass covers ranks 2..k.
    """
    if k < 2:
        raise ValueError("rank must be at least 2")
    return _check(
        mapping, ineq, lambda: combinations_with_replacement(sorted(mapping), k), "indicator contraction violated"
    )


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
    (each attempted assignment counts as one node).  Graph mode is the
    rank-2 search.
    """
    if mode not in ("graph", "hypergraph"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "hypergraph" and (rank is None or rank < 2):
        raise ValueError("hypergraph mode needs a rank of at least 2")
    if budget is not None and budget <= 0:
        raise ValueError("budget must be positive")

    fixed = _fixed_points(ineq)
    if fixed is None:
        return SearchResult(NOT_FOUND, note="occurrence bitstrings are contradictory")
    w_lhs, w_rhs = _weight_tables(ineq)
    k = 2 if mode == "graph" else rank
    assigned: list[tuple[int, int]] = []  # (string mask, image mask) in assignment order

    def tuples_ok(start: int, x_or: int, x_and: int, y_or: int, y_and: int, more: int) -> bool:
        # the folded rows joined to every set of 1..more+1 strings from assigned[start:]
        for x2, y2 in assigned[start:]:
            start += 1
            o, a, p, q = x_or | x2, x_and & x2, y_or | y2, y_and & y2
            if w_lhs[o ^ a] < w_rhs[p ^ q] or (more and not tuples_ok(start, o, a, p, q, more - 1)):
                return False
        return True

    # strings by Hamming weight, then lexicographically; the pre-seeded
    # fixed points must already be mutually consistent
    order = sorted(product((0, 1), repeat=len(ineq.lhs)), key=lambda b: (sum(b), b))
    found: dict[Bits, Bits] = {}
    for x in [x for x in order if x in fixed]:
        xm, ym = _mask(x), _mask(fixed[x])
        if not tuples_ok(0, xm, xm, ym, ym, k - 2):
            return SearchResult(NOT_FOUND, note="occurrence fixed points are not a contraction")
        assigned.append((xm, ym))
        found[x] = fixed[x]

    free = [(x, _mask(x)) for x in order if x not in fixed]
    images = [(y, _mask(y)) for y in product((0, 1), repeat=len(ineq.rhs))]
    nodes = 0
    deepest = 0

    def descend(pos: int) -> bool:
        nonlocal nodes, deepest
        deepest = max(deepest, pos)
        if pos == len(free):
            return True
        x, xm = free[pos]
        for y, ym in images:
            nodes += 1
            if budget is not None and nodes > budget:
                raise _BudgetExceeded
            if tuples_ok(0, xm, xm, ym, ym, k - 2):
                assigned.append((xm, ym))
                found[x] = y
                if descend(pos + 1):
                    return True
                assigned.pop()
                del found[x]
        return False

    try:
        complete = descend(0)
    except _BudgetExceeded:
        return SearchResult(BUDGET_EXCEEDED, nodes=nodes, depth=deepest)
    if not complete:
        return SearchResult(NOT_FOUND, nodes=nodes, depth=deepest)
    if not check_hypergraph_contraction(found, ineq, k).ok:
        raise RuntimeError("search returned a map that fails verification")
    return SearchResult(FOUND, mapping=found, nodes=nodes, depth=len(free))


class _BudgetExceeded(Exception):
    pass
