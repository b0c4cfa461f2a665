"""Independent brute-force oracles used to cross-check the library's solvers.

These deliberately avoid the library's algorithmic paths: graph cuts by
bipartition enumeration instead of flow, hypergraph cuts by plain
exhaustive enumeration without pruning, and link connectivity by BFS
over pairwise adjacency between loop names instead of the library's
block growth over atom bitmasks; irreducible sublinks and minimal
bridges by that BFS over every loop subset instead of atom unions.
Contraction maps are checked and searched with `Fraction` sums over bit
tuples instead of the library's integer-scaled weight tables over
bitmasks.  The link-model generator and the certificate check are kept
as the library had them before their speed-ups, as references that
generated models and check reports must match; the certificate check and
the derivation of a map from its zero cells keep their own copies of the
trit partition and the bridge crediting on loop names, and of the RHS cut
split, which classifies every cell against the interior and exterior.  So is the link min-cut's subset search, on its own copy of
the block growth and cut sides the library had then: the pair-atom
max-flow and the witness branching must match it cut for cut, and a
change to the library's connectivity kernel leaves it as it is.  It
reads only a model's public fields, rebuilding the atom masks, the
table on masks and the candidate loops, so it checks the candidate rule
rather than inheriting the library's.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from itertools import combinations_with_replacement, product

from linkcone.certificates import (
    CertificateCheck,
    CertificateError,
    InconsistentAssignment,
    IndicatorEntry,
    OracularIndicatorTable,
    TritContractionMap,
    TritPartition,
    Trits,
)
from linkcone.contraction import BUDGET_EXCEEDED, FOUND, NOT_FOUND, ContractionReport, SearchResult
from linkcone.core import (
    Bits,
    LinearInequality,
    Subsystem,
    mixed_indicator,
    occurrence_bitstrings,
    party_letter,
    subsystem_label,
    weighted_hamming_norm,
)
from linkcone.graphs import WeightedGraph
from linkcone.hypergraphs import Hypergraph
from linkcone.links import (
    INFINITE,
    AtomicLinkages,
    LinkModel,
    LoopCutResult,
    StratificationError,
    UncuttableSubsystemError,
    link_entropy,
    link_min_cut,
    minimal_bridges,
    validate_connectivity_table,
)


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
    computed independently of the library.  The candidates differ on atom
    structures: this enumerates every finite internal loop, while the
    library draws cuts from the finite internal loops that lie in some
    atom.  A zero-weight loop in no atom can therefore join this oracle's
    cut (it sorts first at no cost) but never the library's; the weights
    always agree.
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


def bruteforce_irreducible_family(model: LinkModel) -> list[int]:
    """Masks of every loop subset that BFS finds to be one block of size >= 2.

    Ordered by size, then by the ascending list of loop indices.
    """
    family = []
    for size in range(2, len(model.loops) + 1):
        for combo in itertools.combinations(range(len(model.loops)), size):
            if len(_bfs_blocks(model, frozenset(model.loops[i] for i in combo))) == 1:
                family.append(sum(1 << i for i in combo))
    return family


def bruteforce_minimal_bridges(model: LinkModel, family: list[int], cut) -> list[frozenset[str]]:
    """Irreducible sets crossing `cut` (a link_min_cut result) with no crossing proper subset.

    `family` is `bruteforce_irreducible_family(model)`; every pair of
    crossing sets is compared, and the result keeps the family's order.
    """
    def mask(names) -> int:
        return sum(1 << model.loop_index(x) for x in names)

    interior, exterior, removed = mask(cut.interior), mask(cut.exterior), mask(cut.cut)
    crossing = [b for b in family if b & interior and b & exterior and b & removed]
    minimal = [b for b in crossing if not any(o != b and o & b == o for o in crossing)]
    return [frozenset(x for i, x in enumerate(model.loops) if b >> i & 1) for b in minimal]


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


# ---------------------------------------------------------------------------
# link-model generation and certificate checking as the library did them
# before the index-tuple atom population and the tabulated per-tuple sides


def reference_generate_link_model(
    parties: int,
    loops: int,
    atoms: int,
    max_arity: int,
    seed: int,
    weight_choices: tuple[int, ...] = (1, 2, 3, 4),
) -> LinkModel:
    """`generate_link_model` sampling from a population of name frozensets."""
    if loops < parties + 1:
        raise ValueError("need at least one loop per party plus the purifier")
    if atoms < 0:
        raise ValueError("atom count must be nonnegative")
    if not 2 <= max_arity <= loops:
        raise ValueError("max arity must lie between 2 and the loop count")
    rng = random.Random(seed)
    externals = [party_letter(i) for i in range(1, parties + 2)]
    internals = [f"u{i}" for i in range(loops - len(externals))]
    names = externals + internals
    population = [
        frozenset(combo)
        for size in range(2, max_arity + 1)
        for combo in itertools.combinations(names, size)
        if sum(member in externals for member in combo) <= 1
    ]
    if atoms > len(population):
        raise ValueError(f"cannot sample {atoms} distinct atoms from {len(population)} candidates")
    chosen = rng.sample(population, atoms)
    weights: dict[str, Fraction] = {name: Fraction(1) for name in externals}
    for name in internals:
        weights[name] = Fraction(rng.choice(weight_choices))
    return LinkModel(
        loops=tuple(names),
        weights=weights,
        external={i + 1: name for i, name in enumerate(externals)},
        structure=AtomicLinkages(tuple(chosen)),
    )


def reference_build_trit_partition(model: LinkModel, ineq: LinearInequality) -> TritPartition:
    """`build_trit_partition` on loop names: trits by membership in each cut's name sets."""
    if ineq.n != model.n:
        raise ValueError(f"party-count mismatch: inequality n={ineq.n}, model n={model.n}")
    cuts = tuple(link_min_cut(model, sub) for sub in ineq.lhs_subsystems)
    loop_trits: dict[str, Trits] = {}
    for loop in model.loops:
        loop_trits[loop] = tuple(1 if loop in cut.interior else 0 if loop in cut.cut else -1 for cut in cuts)
    cells: dict[Trits, set[str]] = {}
    for loop, trits in loop_trits.items():
        cells.setdefault(trits, set()).add(loop)
    return TritPartition(
        length=len(ineq.lhs),
        cells={trits: frozenset(members) for trits, members in cells.items()},
        loop_trits=loop_trits,
        cuts=cuts,
    )


def reference_credit_bridges(
    model: LinkModel, ineq: LinearInequality, partition: TritPartition
) -> OracularIndicatorTable:
    """The crediting scan of `compute_oracular_indicator`, on loop names."""
    entries: list[IndicatorEntry] = []
    coloring: dict[int, dict[str, str]] = {}
    for l, subsystem in enumerate(ineq.lhs_subsystems):
        cut = partition.cuts[l]
        gray = set(cut.cut)
        colors = {loop: "gray" for loop in cut.cut}
        scheduled = []
        for bridge in minimal_bridges(model, subsystem):
            hit = bridge & cut.cut
            if len(hit) != 1:
                raise StratificationError(
                    f"minimal bridge {sorted(bridge)} meets the min-cut of "
                    f"{subsystem_label(subsystem)} in {len(hit)} loops"
                )
            loop = next(iter(hit))
            head = partition.loop_trits[loop]
            cells = (head, *sorted({partition.loop_trits[x] for x in bridge} - {head}))
            order_key = (len(bridge), len(cells), cells, tuple(sorted(model.loop_index(x) for x in bridge)))
            scheduled.append((order_key, bridge, loop, cells))
        credited_weight = Fraction(0)
        for _, bridge, loop, cells in sorted(scheduled):
            if loop not in gray:
                continue
            gray.remove(loop)
            colors[loop] = "green"
            credited_weight += Fraction(model.weights[loop])
            entries.append(IndicatorEntry(l, len(cells), len(bridge), cells, loop, bridge))
        if gray:
            raise StratificationError(
                f"min-cut loops {sorted(gray)} of {subsystem_label(subsystem)} "
                "were never credited by any minimal bridge"
            )
        if credited_weight != cut.weight:
            raise RuntimeError("credited loop weights must add up to the cut weight")
        coloring[l] = colors
    support = frozenset((e.term_index, e.cover_size, e.bridge_size, e.cells) for e in entries)
    return OracularIndicatorTable(entries=tuple(entries), support=support, coloring=coloring, partition=partition)


def _rhs_cut_split(
    model: LinkModel,
    subsystem: Subsystem,
    zero_cells: list[Trits],
    partition: TritPartition,
    term_name: str,
):
    """Cut, interior and exterior induced for one RHS term by its zero cells."""
    cut_loops = frozenset().union(*(partition.cells[c] for c in zero_cells)) if zero_cells else frozenset()
    bad = [name for name in cut_loops if name in model.external_loops or not model.is_finite(name)]
    if bad:
        raise InconsistentAssignment(
            f"cut for {term_name} is unusable: cut contains external or infinite-weight loops: {sorted(bad)}"
        )
    inside = frozenset(model.external[i] for i in subsystem)
    interior, exterior = reference_cut_sides(model, subsystem, cut_loops)
    if interior & (model.external_loops - inside):
        raise InconsistentAssignment(f"zero cells of {term_name} do not form a valid cut")
    if interior & model.external_loops != inside:
        raise InconsistentAssignment(
            f"interior externals for {term_name} differ from the term's parties"
        )
    return cut_loops, interior, exterior


def reference_derive_rhs_assignment(
    model: LinkModel,
    ineq: LinearInequality,
    zeros,
    partition: TritPartition | None = None,
) -> TritContractionMap:
    """`derive_rhs_assignment` as it was, classifying every cell against the interior and exterior."""
    if partition is None:
        partition = reference_build_trit_partition(model, ineq)
    zeros = {tuple(cell): frozenset(rs) for cell, rs in zeros.items()}
    for cell, rs in zeros.items():
        if cell not in partition.cells:
            raise CertificateError(f"zeros reference the empty cell {cell}")
        if not rs <= set(range(len(ineq.rhs))):
            raise CertificateError(f"zeros for cell {cell} reference RHS terms out of range")
    images: dict[Trits, list[int]] = {cell: [0] * len(ineq.rhs) for cell in partition.cells}
    for r, subsystem in enumerate(ineq.rhs_subsystems):
        term_name = f"RHS term {r} ({subsystem_label(subsystem)})"
        zero_cells = [cell for cell in partition.cells if r in zeros.get(cell, frozenset())]
        _, interior, exterior = _rhs_cut_split(model, subsystem, zero_cells, partition, term_name)
        for cell, members in partition.cells.items():
            if cell in zero_cells:
                images[cell][r] = 0
            elif members <= interior:
                images[cell][r] = 1
            elif members <= exterior:
                images[cell][r] = -1
            else:
                raise InconsistentAssignment(
                    f"cell {cell} straddles the interior and exterior of {term_name}"
                )
    return TritContractionMap(
        images={cell: tuple(img) for cell, img in images.items()},
        length=partition.length,
        width=len(ineq.rhs),
    )


def reference_check_cut_contraction_certificate(
    model: LinkModel,
    ineq: LinearInequality,
    cmap: TritContractionMap,
    exhaustive: bool = False,
    sample_seed: int = 0,
) -> CertificateCheck:
    """`check_cut_contraction_certificate` summing both sides afresh for every tuple."""
    partition = reference_build_trit_partition(model, ineq)
    undefined = [cell for cell in partition.cells if cell not in cmap.images]
    if undefined:
        raise CertificateError(f"map undefined on nonempty cells: {sorted(undefined)}")
    if cmap.length != partition.length or cmap.width != len(ineq.rhs):
        raise CertificateError("map dimensions do not match the inequality")

    rhs_cuts: list[frozenset[str]] = []
    for r, subsystem in enumerate(ineq.rhs_subsystems):
        term_name = f"RHS term {r} ({subsystem_label(subsystem)})"
        zero_cells = [cell for cell in partition.cells if cmap.images[cell][r] == 0]
        try:
            cut_loops, interior, exterior = _rhs_cut_split(
                model, subsystem, zero_cells, partition, term_name
            )
        except InconsistentAssignment as exc:
            return CertificateCheck(ok=False, reason=str(exc))
        for cell, members in partition.cells.items():
            value = cmap.images[cell][r]
            if value == 0:
                continue
            if members <= interior:
                expected = 1
            elif members <= exterior:
                expected = -1
            else:
                return CertificateCheck(
                    ok=False,
                    reason=f"cell {cell} straddles the interior and exterior of {term_name}",
                )
            if value != expected:
                return CertificateCheck(
                    ok=False,
                    reason=(
                        f"cell {cell} is assigned {value} for {term_name} "
                        f"but lies in the {'interior' if expected == 1 else 'exterior'}"
                    ),
                )
        rhs_cuts.append(cut_loops)

    table = reference_credit_bridges(model, ineq, partition)
    alphas = ineq.lhs_coeffs
    betas = ineq.rhs_coeffs
    by_tuple: dict[tuple, set[int]] = {}
    for l, cover, size, cells in table.support:
        by_tuple.setdefault((cover, size, cells), set()).add(l)

    def tuple_sides(cover, size, cells):
        terms = by_tuple.get((cover, size, cells), set())
        total = len(terms)
        lhs_value = sum((alphas[l] for l in terms), Fraction(0))
        head_image = cmap.images[cells[0]]
        rhs_value = sum(
            (betas[r] for r in range(len(betas)) if head_image[r] == 0), Fraction(0)
        ) * total
        return lhs_value, rhs_value

    for (cover, size, cells) in by_tuple:
        lhs_value, rhs_value = tuple_sides(cover, size, cells)
        if lhs_value < rhs_value:
            return CertificateCheck(
                ok=False,
                reason="contraction condition violated on a covering tuple",
                violation=(cover, size, cells),
                diagnostics={"lhs": lhs_value, "rhs": rhs_value},
            )

    nonempty_cells = sorted(partition.cells)
    if exhaustive:
        for cover in range(3, len(nonempty_cells) + 1):
            for head in nonempty_cells:
                for rest in itertools.combinations([c for c in nonempty_cells if c != head], cover - 1):
                    cells = (head, *sorted(rest))
                    for size in range(cover, len(model.loops) + 1):
                        lhs_value, rhs_value = tuple_sides(cover, size, cells)
                        if lhs_value < rhs_value:
                            return CertificateCheck(
                                ok=False,
                                reason="contraction condition violated on a covering tuple",
                                violation=(cover, size, cells),
                                diagnostics={"lhs": lhs_value, "rhs": rhs_value},
                            )
    elif len(nonempty_cells) >= 3:
        rng = random.Random(sample_seed)
        for _ in range(50):
            cover = rng.randint(3, len(nonempty_cells))
            head = rng.choice(nonempty_cells)
            rest = rng.sample([c for c in nonempty_cells if c != head], cover - 1)
            cells = (head, *sorted(rest))
            size = rng.randint(cover, max(cover, len(model.loops)))
            if (cover, size, cells) in by_tuple:
                continue
            lhs_value, rhs_value = tuple_sides(cover, size, cells)
            if lhs_value != 0 or rhs_value != 0:
                raise RuntimeError("zero-support tuples must be trivial")

    lhs_total = sum(
        (alpha * cut.weight for alpha, cut in zip(alphas, partition.cuts)), Fraction(0)
    )
    rhs_cut_total = Fraction(0)
    rhs_entropy_total = Fraction(0)
    for r, (subsystem, beta) in enumerate(ineq.rhs):
        cut_weight = sum((Fraction(model.weights[x]) for x in rhs_cuts[r]), Fraction(0))
        entropy = link_entropy(model, subsystem)
        if cut_weight < entropy:
            raise RuntimeError("a valid cut can never undercut the min-cut")
        rhs_cut_total += beta * cut_weight
        rhs_entropy_total += beta * entropy
    diagnostics = {
        "lhs_cut_weight": lhs_total,
        "rhs_cut_weight": rhs_cut_total,
        "rhs_entropy": rhs_entropy_total,
    }
    if lhs_total < rhs_cut_total:
        return CertificateCheck(
            ok=False,
            reason="weight accounting failed: LHS min-cut weight below assembled RHS cut weight",
            diagnostics=diagnostics,
        )
    return CertificateCheck(ok=True, diagnostics=diagnostics)


# ---------------------------------------------------------------------------
# link min-cut as the library computed it before the pair-atom max-flow and
# the witness branching, with its own copy of the block growth it ran on


def _reference_mask(model: LinkModel, names) -> int:
    return sum(1 << i for i, x in enumerate(model.loops) if x in names)


def _reference_structure(model: LinkModel) -> tuple[list[int] | None, dict[int, list[int]] | None]:
    """Atom masks, or the table on loop masks, read off the model's public `structure`."""
    if isinstance(model.structure, AtomicLinkages):
        return [_reference_mask(model, atom) for atom in model.structure.atoms], None
    return None, validate_connectivity_table(model.loops, model.structure)


def _reference_blocks(structure, present: int) -> list[int]:
    """Blocks of the loop mask `present`, ordered by lowest bit: each grows from its lowest loop."""
    atoms, table = structure
    if table is not None:
        return table[present]
    live = [atom for atom in atoms if not atom & ~present]
    blocks = []
    while present:
        block = present & -present
        touching = True
        while touching:
            touching = [atom for atom in live if atom & block]
            live = [atom for atom in live if not atom & block]
            for atom in touching:
                block |= atom
        blocks.append(block)
        present &= ~block
    return blocks


def _reference_separates(model: LinkModel, structure, inside: int, outside: int, cut: int) -> bool:
    rest = ((1 << len(model.loops)) - 1) & ~cut
    return not any(b & inside and b & outside for b in _reference_blocks(structure, rest))


def _reference_names(model: LinkModel, mask: int) -> frozenset[str]:
    return frozenset(x for i, x in enumerate(model.loops) if mask >> i & 1)


def _reference_sides(model: LinkModel, subsystem: Subsystem) -> tuple[int, int]:
    """Masks of the subsystem's external loops and of every other external loop."""
    inside = _reference_mask(model, {model.external[i] for i in subsystem})
    return inside, _reference_mask(model, set(model.external.values())) & ~inside


def reference_cut_sides(model: LinkModel, subsystem: Subsystem, cut) -> tuple[frozenset[str], frozenset[str]]:
    """Interior and exterior left by removing the loop names `cut`, as `_cut_sides` returns them."""
    inside, _ = _reference_sides(model, subsystem)
    rest = ((1 << len(model.loops)) - 1) & ~_reference_mask(model, cut)
    interior = sum(b for b in _reference_blocks(_reference_structure(model), rest) if b & inside)
    return _reference_names(model, interior), _reference_names(model, rest & ~interior)


def reference_link_min_cut(model: LinkModel, subsystem: Subsystem) -> LoopCutResult:
    """`link_min_cut` by the pruned subset search, for every structure.

    The search is the library's before witness branching, on `Fraction`
    weights and its own copy of the block growth.  Atom masks, the table
    and the candidate loops (finite internal loops in some atom, or every
    finite internal loop of a table) are rebuilt from the model's public
    fields, and the per-model result cache is left out, so the reference
    never answers from (or fills) the state the library reads.
    """
    subsystem = frozenset(subsystem)
    structure = _reference_structure(model)
    inside, outside = _reference_sides(model, subsystem)
    linked = set(model.loops) if structure[1] is not None else set().union(*model.structure.atoms)
    cuttable = {x for x in linked if x not in model.external.values() and model.weights[x] is not INFINITE}
    order = [i for i, x in enumerate(model.loops) if x in cuttable]
    everything = sum(1 << i for i in order)
    if not _reference_separates(model, structure, inside, outside, everything):
        raise UncuttableSubsystemError(
            f"externals of {sorted(subsystem)} stay linked to the rest after removing every internal loop"
        )
    weights = [model.weights[model.loops[i]] for i in order]
    # Cutting every candidate is valid, and the search below reaches it or
    # a cut that beats it, so it is a safe starting point.
    best = (sum(weights, Fraction(0)), tuple(order), everything)

    def descend(pos: int, cut: int, idx_tuple: tuple[int, ...], weight: Fraction) -> None:
        nonlocal best
        if weight > best[0]:
            return
        if _reference_separates(model, structure, inside, outside, cut):
            best = min(best, (weight, idx_tuple, cut))
            return
        for j in range(pos, len(order)):
            i = order[j]
            descend(j + 1, cut | 1 << i, idx_tuple + (i,), weight + weights[j])

    descend(0, 0, (), Fraction(0))
    weight, _, cut_mask = best
    cut = _reference_names(model, cut_mask)
    interior, exterior = reference_cut_sides(model, subsystem, cut)
    return LoopCutResult(
        cut=cut,
        weight=weight,
        interior=interior,
        exterior=exterior,
        tie_break="minimum weight, then lexicographically smallest sorted loop-index list",
    )
