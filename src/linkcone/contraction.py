"""Contraction-map verification and search for entropy inequalities.

A bitstring map f: {0,1}^L -> {0,1}^R certifies an inequality on graphs
when it fixes every party's occurrence strings and contracts the
weighted Hamming norm on all pairs.  On rank-k hypergraphs the pairwise
norm condition generalizes to a per-coordinate mixed-bits indicator over
all k-tuples; checking tuples with repetition subsumes every lower rank,
and the pairwise norm is rank 2, so graph mode is the rank-2 case.

Strings are int masks inside, read with the first coordinate as the
highest bit, so a string's mask is its lexicographic index; `Bits`
tuples appear only in the maps that come in or go out and in violation
reports.  Everything that depends only on a string length (each
string's tuple, the mask of each tuple, the Hamming-weight-then-lex
order, the block patterns) is tabulated once per process by `_strings`.
Both sides' coefficients are scaled by one common denominator, so a
tuple's condition is the exact integer comparison ``W_lhs[OR ^ AND of its
rows] >= W_rhs[OR ^ AND of their images]`` over tables of weights on
every mask.  One walk decides it everywhere: it folds rows into OR/AND
accumulators, one per level in index order, and stops at the first
failing join.  The search walks increasing indices to depth k - 1 from a
new string; OR and AND ignore repeated rows, so that covers every k-tuple
it completes.  It decides pairs, the whole condition in graph mode, per
position rather than per image: the images an assigned row admits form
one bitset, the images within RHS weight d of 0 (the S_d table, a prefix
of the images sorted by weight) translated by that row's image, so one
AND per assigned row leaves the pair-compatible images, and the walk
covers joins of three or more rows on those alone.  The checkers walk
nondecreasing indices to depth k, so they stop at the first failing
k-tuple in ``combinations_with_replacement`` order: one row never fails
(its mixed mask is 0), so a failing join (i1, ..., ij) with j < k has
unequal indices and comes after the k-tuple (i1, ..., i1, i2, ..., ij),
which has the same OR and AND.

The searcher runs exhaustive backtracking with pruning, so an exhausted
search certifies that no map exists.  A node budget guards instances
whose search space is astronomically large.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cache
from itertools import accumulate, product
from operator import or_
from typing import NamedTuple

from .core import Bits, LinearInequality, scale_of, scaled

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


class _Strings(NamedTuple):
    bits: tuple[Bits, ...]  # the tuple of each mask, in lex order
    mask_of: dict[Bits, int]
    order: tuple[int, ...]  # masks by Hamming weight, then lex
    unordered: frozenset[Bits]  # its iteration order picks the string a totality error names
    blocks: tuple[int, ...]


@cache
def _strings(length: int) -> _Strings:
    """The tables of every `length`-bit string.

    Over bitsets of masks, `blocks[b]` selects the masks with bit b clear;
    swapping those with their partners 2**b above translates the set by
    XOR with 2**b.
    """
    bits = tuple(product((0, 1), repeat=length))
    order = sorted(range(len(bits)), key=lambda m: (m.bit_count(), m))
    blocks = tuple(sum(1 << m for m in range(len(bits)) if not m >> b & 1) for b in range(length))
    return _Strings(bits, {x: m for m, x in enumerate(bits)}, tuple(order), frozenset(bits), blocks)


def _weight_tables(ineq: LinearInequality) -> tuple[list[int], list[int]]:
    """Integer-scaled coefficient sums over every LHS mask and every RHS mask."""
    scale = scale_of(c for _, c in ineq.lhs + ineq.rhs)

    def table(terms) -> list[int]:
        weights = [0]
        for _, c in reversed(terms):  # the last coordinate is bit 0
            c = scaled(c, scale)
            weights += [w + c for w in weights]
        return weights

    return table(ineq.lhs), table(ineq.rhs)


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


def _fixed_points(ineq: LinearInequality) -> dict[int, int] | None:
    """Occurrence-string constraints, string mask -> image mask in party order; None when contradictory."""
    sides = []
    for terms in (ineq.lhs, ineq.rhs):
        masks = [0] * (ineq.n + 1)  # parties 1..n+1; the purifier occurs nowhere
        for j, (subsystem, _) in enumerate(terms):
            for party in subsystem:
                masks[party - 1] |= 1 << (len(terms) - 1 - j)
        sides.append(masks)
    fixed: dict[int, int] = {}
    for x, y in zip(*sides):
        if fixed.setdefault(x, y) != y:
            return None
    return fixed


def _setup(ineq: LinearInequality) -> tuple[list[int], list[int], dict[int, int] | None]:
    return (*_weight_tables(ineq), _fixed_points(ineq))


def _image_masks(mapping: dict[Bits, Bits], length: int, width: int) -> list[int]:
    """Each string mask's image mask, once `mapping` is checked total from {0,1}^length into {0,1}^width."""
    strings, images = _strings(length), _strings(width)
    extra = set(mapping) - strings.unordered
    if extra:
        raise ValueError(f"map defined on strings outside {{0,1}}^{length}: {sorted(extra)[:3]}")
    ys = [0] * len(strings.bits)
    for x in strings.unordered:
        image = mapping.get(x)
        if image is None:
            raise ValueError(f"map is not total: no image for {''.join(map(str, x))}")
        ym = None
        if len(image) == width:
            try:
                ym = images.mask_of.get(tuple(image))
            except TypeError:  # an unhashable bit is neither 0 nor 1
                pass
        if ym is None:
            raise ValueError(f"image of {''.join(map(str, x))} is not a {width}-bit string")
        ys[strings.mask_of[x]] = ym
    return ys


def _check(mapping: dict[Bits, Bits], ineq: LinearInequality, k: int, setup, graph: bool) -> ContractionReport:
    """Totality, the occurrence fixed points, then the first violating k-tuple.

    Rows follow the map's own order in the graph check and lex order
    otherwise.  `setup` is ``_setup(ineq)``.
    """
    w_lhs, w_rhs, fixed = setup
    length, width = len(ineq.lhs), len(ineq.rhs)
    ys = _image_masks(mapping, length, width)
    strings, images = _strings(length), _strings(width)
    if fixed is None:
        return ContractionReport(False, reason="occurrence bitstrings are contradictory")
    for xm, ym in fixed.items():
        x = strings.bits[xm]
        if mapping[x] != images.bits[ym]:
            return ContractionReport(
                False, violation=(x,), reason=f"occurrence fixed point broken at {''.join(map(str, x))}"
            )
    xs = [strings.mask_of[x] for x in mapping] if graph else range(len(ys))
    rows = [(xm, ys[xm]) for xm in xs]
    # -1 (all bits set) is the identity of AND
    path = _walker(rows, w_lhs, w_rhs, repeat=True)(0, 0, -1, 0, -1, k)
    if path is not None:
        keys = list(mapping) if graph else sorted(mapping)  # the map's own keys, in row order
        reason = "norm contraction violated" if graph else "indicator contraction violated"
        return ContractionReport(False, violation=tuple(keys[i] for i in path), reason=reason)
    return ContractionReport(True)


def check_graph_contraction(mapping: dict[Bits, Bits], ineq: LinearInequality) -> ContractionReport:
    """Pairwise weighted-Hamming contraction plus the occurrence fixed points."""
    return _check(mapping, ineq, 2, _setup(ineq), graph=True)


def check_hypergraph_contraction(
    mapping: dict[Bits, Bits], ineq: LinearInequality, k: int
) -> ContractionReport:
    """Indicator contraction over all k-tuples with repetition, plus fixed points.

    Repeated arguments reduce the rank-k indicator to every lower rank,
    so a single pass covers ranks 2..k.
    """
    if k < 2:
        raise ValueError("rank must be at least 2")
    return _check(mapping, ineq, k, _setup(ineq), graph=False)


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

    setup = w_lhs, w_rhs, fixed = _setup(ineq)
    if fixed is None:
        return SearchResult(NOT_FOUND, note="occurrence bitstrings are contradictory")
    k = 2 if mode == "graph" else rank
    assigned: list[tuple[int, int]] = []  # (string mask, image mask) in assignment order
    walk = _walker(assigned, w_lhs, w_rhs, repeat=False)

    # the pre-seeded fixed points must already be mutually consistent
    strings = _strings(len(ineq.lhs))
    for xm in [xm for xm in strings.order if xm in fixed]:
        ym = fixed[xm]
        if walk(0, xm, xm, ym, ym, k - 1) is not None:
            return SearchResult(NOT_FOUND, note="occurrence fixed points are not a contraction")
        assigned.append((xm, ym))

    free = [xm for xm in strings.order if xm not in fixed]
    width = len(ineq.rhs)
    images = _strings(width)
    size = len(images.bits)
    # S_d is the prefix of the images sorted by RHS weight that ends at the last weight <= d
    by_weight = sorted(range(size), key=w_rhs.__getitem__)
    weights = [w_rhs[ym] for ym in by_weight]
    within = list(accumulate((1 << ym for ym in by_weight), or_))
    allowed_by: dict[int, int] = {}  # d << width | y' -> S_d translated by y'
    nodes = 0
    deepest = 0

    def admitted(d: int, ym: int) -> int:
        allowed = within[bisect_right(weights, d) - 1]
        for b, low in enumerate(images.blocks):
            if ym >> b & 1:
                allowed = (allowed & low) << (1 << b) | allowed >> (1 << b) & low
        allowed_by[d << width | ym] = allowed
        return allowed

    def descend(pos: int) -> bool:
        nonlocal nodes, deepest
        deepest = max(deepest, pos)
        if pos == len(free):
            return True
        xm = free[pos]
        allowed = (1 << size) - 1
        for x2, y2 in assigned:
            d = w_lhs[xm ^ x2]
            # never 0 when cached: S_d holds image 0, and a translation only permutes
            allowed &= allowed_by.get(d << width | y2) or admitted(d, y2)
            if not allowed:
                break
        tried = 0  # images below mask `tried` have counted as nodes
        while allowed:
            ym = (allowed & -allowed).bit_length() - 1
            allowed &= allowed - 1
            nodes += ym + 1 - tried
            tried = ym + 1
            if budget is not None and nodes > budget:
                raise _BudgetExceeded
            if k > 2 and walk(0, xm, xm, ym, ym, k - 1) is not None:
                continue
            assigned.append((xm, ym))
            if descend(pos + 1):
                return True
            assigned.pop()
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
    found = {strings.bits[xm]: images.bits[ym] for xm, ym in assigned}
    if not _check(found, ineq, k, setup, graph=False).ok:
        raise RuntimeError("search returned a map that fails verification")
    return SearchResult(FOUND, mapping=found, nodes=nodes, depth=len(free))


class _BudgetExceeded(Exception):
    pass
