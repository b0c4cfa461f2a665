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
It decides pairs, the whole condition in graph mode, per position
rather than per image: the images an assigned row admits form one
bitset, the images within RHS weight d of 0 (the S_d table) translated
by that row's image, so one AND per assigned row leaves the
pair-compatible images, and the walk covers joins of three or more rows
on those alone.  The checkers walk nondecreasing indices to depth k, so
they stop at the first failing k-tuple in ``combinations_with_replacement``
order: one row never fails (its mixed mask is 0), so a failing join
(i1, ..., ij) with j < k has unequal indices and comes after the k-tuple
(i1, ..., i1, i2, ..., ij), which has the same OR and AND.

The searcher runs exhaustive backtracking with pruning, so an exhausted
search certifies that no map exists.  A node budget guards instances
whose search space is astronomically large.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
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


@cache
def _image_tables(width: int) -> tuple[tuple[Bits, ...], tuple[int, ...], dict[int, int], tuple[int, ...]]:
    """Every `width`-bit image in lex order, its mask, the lex index of each mask, and the block patterns.

    Lex order reads the first coordinate as the highest bit, so an image's
    lex index is its mask bit-reversed, and XOR of two images' indices is
    the index of the XOR of their masks.  Over bitsets of lex indices,
    `blocks[b]` selects the indices with bit b clear; swapping those with
    their partners 2**b above translates the set by XOR with 2**b.
    """
    images = tuple(product((0, 1), repeat=width))
    masks = tuple(_mask(y) for y in images)
    blocks = tuple(sum(1 << j for j in range(len(images)) if not j >> b & 1) for b in range(width))
    return images, masks, {m: j for j, m in enumerate(masks)}, blocks


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

    Pairs are decided per position, not per image: an assigned row (x', y')
    admits exactly the images y with ``w_rhs[y ^ y'] <= w_lhs[x ^ x']``,
    the set S_d (images within RHS weight d of 0) translated by y'.  The
    AND of those bitsets over the assigned rows leaves the pair-compatible
    images; for k > 2 the walk then decides the joins of three or more
    rows on those alone.  The images in between still count as one node
    each, in lex order, so node counts, depths, maps and budget stops are
    those of trying every image in turn.
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
    w_lhs, w_rhs = _weight_tables(ineq)
    assigned: list[tuple[int, int]] = []  # (string mask, image mask) in assignment order
    walk = _walker(assigned, w_lhs, w_rhs, repeat=False)

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
    width = len(ineq.rhs)
    images, masks, lex_of, blocks = _image_tables(width)
    size = len(images)
    within: dict[int, int] = {}  # d -> S_d as a bitset of lex indices
    allowed_by: dict[int, int] = {}  # d << width | y' -> S_d translated by y'
    nodes = 0
    deepest = 0

    def admitted(d: int, ym: int) -> int:
        allowed = within.get(d)
        if allowed is None:
            allowed = within[d] = sum(1 << j for j in range(size) if w_rhs[masks[j]] <= d)
        j = lex_of[ym]
        for b, low in enumerate(blocks):
            if j >> b & 1:
                allowed = (allowed & low) << (1 << b) | allowed >> (1 << b) & low
        allowed_by[d << width | ym] = allowed
        return allowed

    def descend(pos: int) -> bool:
        nonlocal nodes, deepest
        deepest = max(deepest, pos)
        if pos == len(free):
            return True
        x, xm = free[pos]
        allowed = (1 << size) - 1
        for x2, y2 in assigned:
            d = w_lhs[xm ^ x2]
            # never 0 when cached: S_d holds image 0, and a translation only permutes
            allowed &= allowed_by.get(d << width | y2) or admitted(d, y2)
            if not allowed:
                break
        tried = 0  # images before lex index `tried` have counted as nodes
        while allowed:
            j = (allowed & -allowed).bit_length() - 1
            allowed &= allowed - 1
            nodes += j + 1 - tried
            tried = j + 1
            if budget is not None and nodes > budget:
                raise _BudgetExceeded
            ym = masks[j]
            if k > 2 and walk(0, xm, xm, ym, ym, k - 1) is not None:
                continue
            assigned.append((xm, ym))
            found[x] = images[j]
            if descend(pos + 1):
                return True
            assigned.pop()
            del found[x]
        nodes += size - tried
        if budget is not None and nodes > budget:
            raise _BudgetExceeded
        return False

    try:
        complete = descend(0)
    except _BudgetExceeded:
        # nodes count one at a time, so the first to exceed the budget is budget + 1
        return SearchResult(BUDGET_EXCEEDED, nodes=budget + 1, depth=deepest)
    if not complete:
        return SearchResult(NOT_FOUND, nodes=nodes, depth=deepest)
    if not check_hypergraph_contraction(found, ineq, k).ok:
        raise RuntimeError("search returned a map that fails verification")
    return SearchResult(FOUND, mapping=found, nodes=nodes, depth=len(free))


class _BudgetExceeded(Exception):
    pass
