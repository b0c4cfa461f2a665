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
their images]`` over tables of weights on every mask.  One walk decides
it everywhere: it folds rows into OR/AND accumulators, one per level in
lexicographic index order, and stops at the first failing join.  The
search walks increasing indices to depth k - 1 from a new string; OR and
AND ignore repeated rows, so that covers every k-tuple it completes.
The checkers walk nondecreasing indices to depth k, so they stop at the
first failing k-tuple in ``combinations_with_replacement`` order: one
row never fails (its mixed mask is 0), so a failing join (i1, ..., ij)
with j < k has unequal indices and comes after the k-tuple (i1, ..., i1,
i2, ..., ij), which has the same OR and AND.

The searcher runs exhaustive backtracking with pruning, so an exhausted
search certifies that no map exists.  A node budget guards instances
whose search space is astronomically large.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

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


def _walker(rows: list[tuple[int, int]], w_lhs: list[int], w_rhs: list[int], repeat: bool):
    """`walk(start, x_or, x_and, y_or, y_and, depth)`: index path of the first failing join, or None.

    Folds one (string mask, image mask) row of `rows` (which may grow) per
    level, up to `depth` levels, with nondecreasing indices from `start` when
    `repeat`, increasing otherwise; ``w_lhs[x_or ^ x_and] < w_rhs[y_or ^ y_and]`` fails.
    """
    step = 0 if repeat else 1

    def walk(start: int, x_or: int, x_and: int, y_or: int, y_and: int, depth: int) -> tuple[int, ...] | None:
        for i in range(start, len(rows)):
            x, y = rows[i]
            o, a, p, q = x_or | x, x_and & x, y_or | y, y_and & y
            if w_lhs[o ^ a] < w_rhs[p ^ q]:
                return (i,)
            if depth > 1:
                path = walk(i + step, o, a, p, q, depth - 1)
                if path is not None:
                    return (i, *path)
        return None

    return walk


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


def _check(mapping: dict[Bits, Bits], ineq: LinearInequality, keys: list, k: int, reason: str) -> ContractionReport:
    """Totality, the occurrence fixed points, then the first violating k-tuple of `keys`."""
    _check_totality(mapping, ineq)
    fixed = _fixed_points(ineq)
    if fixed is None:
        return ContractionReport(False, reason="occurrence bitstrings are contradictory")
    for x, y in fixed.items():
        if mapping[x] != y:
            return ContractionReport(
                False, violation=(x,), reason=f"occurrence fixed point broken at {''.join(map(str, x))}"
            )
    rows = [(_mask(x), _mask(mapping[x])) for x in keys]
    # -1 (all bits set) is the identity of AND
    path = _walker(rows, *_weight_tables(ineq), repeat=True)(0, 0, -1, 0, -1, k)
    if path is not None:
        return ContractionReport(False, violation=tuple(keys[i] for i in path), reason=reason)
    return ContractionReport(True)


def check_graph_contraction(mapping: dict[Bits, Bits], ineq: LinearInequality) -> ContractionReport:
    """Pairwise weighted-Hamming contraction plus the occurrence fixed points."""
    return _check(mapping, ineq, list(mapping), 2, "norm contraction violated")


def check_hypergraph_contraction(
    mapping: dict[Bits, Bits], ineq: LinearInequality, k: int
) -> ContractionReport:
    """Indicator contraction over all k-tuples with repetition, plus fixed points.

    Repeated arguments reduce the rank-k indicator to every lower rank,
    so a single pass covers ranks 2..k.
    """
    if k < 2:
        raise ValueError("rank must be at least 2")
    return _check(mapping, ineq, sorted(mapping), k, "indicator contraction violated")


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
    k = 2 if mode == "graph" else rank
    assigned: list[tuple[int, int]] = []  # (string mask, image mask) in assignment order
    walk = _walker(assigned, *_weight_tables(ineq), repeat=False)

    # strings by Hamming weight, then lexicographically; the pre-seeded
    # fixed points must already be mutually consistent
    order = sorted(product((0, 1), repeat=len(ineq.lhs)), key=lambda b: (sum(b), b))
    found: dict[Bits, Bits] = {}
    for x in [x for x in order if x in fixed]:
        xm, ym = _mask(x), _mask(fixed[x])
        if walk(0, xm, xm, ym, ym, k - 1) is not None:
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
            if walk(0, xm, xm, ym, ym, k - 1) is None:
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
