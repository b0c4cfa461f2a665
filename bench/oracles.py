"""Independent reference computations for checking linkcone's outputs.

Nothing here imports linkcone: models are read through their public
attributes (``loops``, ``weights``, ``external``, ``structure.atoms``,
``vertices``, ``edges``, ``hyperedges``), inequalities through ``n``,
``lhs`` and ``rhs``.  The algorithms are deliberately different from
the library's:

* link connectivity is a breadth-first search over loop adjacency
  (the library runs union-find);
* link min-cuts and minimal bridges enumerate every loop subset;
* graph and hypergraph cuts enumerate every internal-vertex bipartition
  (the library runs max-flow and branch-and-bound);
* contraction maps are checked and searched on integer bitmasks with
  coefficients scaled to integers (the library uses Fraction tuples).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product
from math import lcm

# Ray 15 of the five-party study in arXiv:2109.01150 ("Topological link
# models of multipartite entanglement"): the entropy vector that a
# ten-loop link model realizes and no hypergraph does.  Canonical order:
# singletons A..E, then pairs AB, AC, ..., DE, then triples, quadruples
# and ABCDE, each size in lexicographic order.
RAY15_VECTOR = (
    1, 1, 1, 1, 1,
    1, 2, 2, 2, 2, 2, 2, 2, 2, 1,
    2, 2, 2, 2, 2, 2, 2, 2, 2, 2,
    2, 2, 1, 2, 2,
    1,
)
# Both sides of the separating inequality evaluated on RAY15_VECTOR.
RAY15_SEPARATING_SIDES = (11, 12)


def subsystems(n: int) -> list[frozenset[int]]:
    """All nonempty subsets of parties 1..n, by size then lexicographically."""
    return [
        frozenset(c) for size in range(1, n + 1) for c in combinations(range(1, n + 1), size)
    ]


def bits_of(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _is_finite(weight) -> bool:
    return isinstance(weight, (int, Fraction))


def evaluate(ineq, entropy: dict[frozenset[int], Fraction]) -> tuple[Fraction, Fraction]:
    """Both sides of an inequality on a subsystem -> entropy mapping."""
    lhs = sum((Fraction(c) * entropy[frozenset(s)] for s, c in ineq.lhs), Fraction(0))
    rhs = sum((Fraction(c) * entropy[frozenset(s)] for s, c in ineq.rhs), Fraction(0))
    return lhs, rhs


# ---------------------------------------------------------------------------
# links


class LinkOracle:
    """Brute-force view of an atom-structured link model, on loop bitmasks."""

    def __init__(self, model):
        self.loops = tuple(model.loops)
        self.index = {name: i for i, name in enumerate(self.loops)}
        self.full = (1 << len(self.loops)) - 1
        self.weights = dict(model.weights)
        self.external = dict(model.external)
        self.n = len(self.external) - 1
        self.atoms = [self.mask(a) for a in model.structure.atoms]
        self.party_bit = {p: 1 << self.index[name] for p, name in self.external.items()}
        self.external_mask = self.mask(self.external.values())
        self.candidates = [
            i
            for i, name in enumerate(self.loops)
            if not (self.external_mask >> i) & 1 and _is_finite(self.weights[name])
        ]
        self._irreducible: list[int] | None = None

    def mask(self, names) -> int:
        out = 0
        for name in names:
            out |= 1 << self.index[name]
        return out

    def names(self, mask: int) -> frozenset[str]:
        return frozenset(self.loops[i] for i in bits_of(mask))

    def weight(self, mask: int) -> Fraction:
        return sum((Fraction(self.weights[self.loops[i]]) for i in bits_of(mask)), Fraction(0))

    def blocks(self, present: int) -> list[int]:
        """Connected sublinks of `present` by breadth-first search over atom adjacency."""
        neighbours: dict[int, int] = {}
        for atom in self.atoms:
            if atom & ~present:
                continue
            for i in bits_of(atom):
                neighbours[i] = neighbours.get(i, 0) | atom
        out = []
        seen = 0
        for start in bits_of(present):
            if (seen >> start) & 1:
                continue
            block = 1 << start
            queue = [start]
            while queue:
                fresh = neighbours.get(queue.pop(), 0) & ~block
                block |= fresh
                queue.extend(bits_of(fresh))
            seen |= block
            out.append(block)
        return out

    def sides(self, subsystem) -> tuple[int, int]:
        inside = 0
        for p in subsystem:
            inside |= self.party_bit[p]
        return inside, self.external_mask & ~inside

    def is_valid_cut(self, subsystem, cut: int) -> bool:
        inside, outside = self.sides(subsystem)
        return not any(b & inside and b & outside for b in self.blocks(self.full & ~cut))

    def interior(self, subsystem, cut: int) -> int:
        inside, _ = self.sides(subsystem)
        out = 0
        for block in self.blocks(self.full & ~cut):
            if block & inside:
                out |= block
        return out

    def min_cuts(self) -> dict[frozenset[int], tuple[Fraction, int]]:
        """Min-cut weight and cut mask of every subsystem, by enumerating all cuts.

        Ties go to the lexicographically smallest sorted loop-index list,
        the tie-break the library documents.
        """
        subs = subsystems(self.n)
        parties = list(range(1, self.n + 2))
        best: dict[frozenset[int], tuple[Fraction, tuple[int, ...], int]] = {}
        for chosen in product((0, 1), repeat=len(self.candidates)):
            cut = 0
            for i, take in zip(self.candidates, chosen):
                if take:
                    cut |= 1 << i
            party_sets = []
            for block in self.blocks(self.full & ~cut):
                members = frozenset(p for p in parties if block & self.party_bit[p])
                if len(members) > 1:
                    party_sets.append(members)
            weight = None
            for sub in subs:
                if any(m & sub and m - sub for m in party_sets):
                    continue
                if weight is None:
                    weight = self.weight(cut)
                    key = tuple(bits_of(cut))
                current = best.get(sub)
                if current is None or (weight, key) < current[:2]:
                    best[sub] = (weight, key, cut)
        return {sub: (w, cut) for sub, (w, _, cut) in best.items()}

    def irreducible(self) -> list[int]:
        """Every loop subset of size >= 2 that forms one connected sublink."""
        if self._irreducible is None:
            self._irreducible = [
                mask
                for mask in range(1, self.full + 1)
                if mask & (mask - 1) and len(self.blocks(mask)) == 1
            ]
        return self._irreducible

    def minimal_bridges(self, interior: int, cut: int) -> list[int]:
        """Irreducible subsets meeting interior, exterior and cut, minimal under inclusion."""
        exterior = self.full & ~interior & ~cut
        crossing = sorted(
            (m for m in self.irreducible() if m & interior and m & exterior and m & cut),
            key=lambda m: bin(m).count("1"),
        )
        minimal: list[int] = []
        for m in crossing:
            if not any(other & ~m == 0 for other in minimal):
                minimal.append(m)
        return minimal


# ---------------------------------------------------------------------------
# graphs and hypergraphs


def _bipartition_min(vertices, external, subsystem, cut_weight) -> Fraction:
    inside = {external[p] for p in subsystem}
    outside = {v for p, v in external.items() if p not in subsystem}
    internal = [v for v in vertices if v not in inside and v not in outside]
    best = None
    for chosen in product((False, True), repeat=len(internal)):
        side = inside | {v for v, take in zip(internal, chosen) if take}
        weight = cut_weight(side)
        if best is None or weight < best:
            best = weight
    return best


def graph_entropies(graph) -> dict[frozenset[int], Fraction]:
    """Every subsystem's min edge cut, by enumerating internal-vertex bipartitions."""
    n = len(graph.external) - 1

    def cut_weight(side):
        return sum((Fraction(w) for u, v, w in graph.edges if (u in side) != (v in side)), Fraction(0))

    return {s: _bipartition_min(graph.vertices, graph.external, s, cut_weight) for s in subsystems(n)}


def hypergraph_entropies(hypergraph) -> dict[frozenset[int], Fraction]:
    """Every subsystem's min hyperedge cut, by enumerating internal-vertex bipartitions."""
    n = len(hypergraph.external) - 1

    def cut_weight(side):
        return sum(
            (Fraction(w) for members, w in hypergraph.hyperedges if members & side and members - side),
            Fraction(0),
        )

    return {
        s: _bipartition_min(hypergraph.vertices, hypergraph.external, s, cut_weight)
        for s in subsystems(n)
    }


# ---------------------------------------------------------------------------
# contraction maps


class ContractionOracle:
    """Integer-scaled contraction conditions for one inequality.

    Domain strings are ints with bit l set when the string has a 1 in LHS
    term l; images likewise over RHS terms.  Coefficients on both sides
    are scaled by one common denominator, so every comparison is an
    integer comparison.  A k-tuple's mixed coordinates are ``or ^ and``.
    """

    def __init__(self, ineq):
        lhs = [(frozenset(s), Fraction(c)) for s, c in ineq.lhs]
        rhs = [(frozenset(s), Fraction(c)) for s, c in ineq.rhs]
        scale = lcm(*(c.denominator for _, c in lhs + rhs))
        self.alphas = [int(c * scale) for _, c in lhs]
        self.betas = [int(c * scale) for _, c in rhs]
        self.L = len(lhs)
        self.R = len(rhs)
        self.w_lhs = [self._weigh(m, self.alphas) for m in range(1 << self.L)]
        self.w_rhs = [self._weigh(m, self.betas) for m in range(1 << self.R)]
        self.fixed: dict[int, int] | None = {}
        for party in range(1, ineq.n + 2):
            x = sum(1 << l for l, (s, _) in enumerate(lhs) if party in s)
            y = sum(1 << r for r, (s, _) in enumerate(rhs) if party in s)
            if self.fixed.get(x, y) != y:
                self.fixed = None
                break
            self.fixed[x] = y

    @staticmethod
    def _weigh(mask: int, coeffs: list[int]) -> int:
        return sum(c for i, c in enumerate(coeffs) if (mask >> i) & 1)

    def encode(self, mapping) -> dict[int, int]:
        """Library map (bit tuples) -> int map; bit l of the key is tuple entry l."""
        return {
            sum(b << i for i, b in enumerate(x)): sum(b << i for i, b in enumerate(y))
            for x, y in mapping.items()
        }

    def tuple_ok(self, xs, ys) -> bool:
        x_or = x_and = xs[0]
        y_or = y_and = ys[0]
        for x in xs[1:]:
            x_or |= x
            x_and &= x
        for y in ys[1:]:
            y_or |= y
            y_and &= y
        return self.w_lhs[x_or ^ x_and] >= self.w_rhs[y_or ^ y_and]

    def check(self, mapping: dict[int, int], rank: int | None) -> str | None:
        """None when `mapping` is a contraction (pairwise, or over all rank-tuples)."""
        if set(mapping) != set(range(1 << self.L)):
            return "map is not total"
        if any(not 0 <= y < (1 << self.R) for y in mapping.values()):
            return "image out of range"
        if self.fixed is None:
            return "occurrence strings are contradictory"
        for x, y in self.fixed.items():
            if mapping[x] != y:
                return f"fixed point {x:b} broken"
        domain = sorted(mapping)
        k = 2 if rank is None else rank
        for rows in combinations_with_replacement(domain, k):
            if not self.tuple_ok(rows, [mapping[x] for x in rows]):
                return f"violated on {rows}"
        return None

    def search(self, rank: int | None, node_limit: int) -> str:
        """Plain backtracking: 'found', 'not_found', or 'unfinished' past `node_limit`."""
        if self.fixed is None:
            return "not_found"
        k = 2 if rank is None else rank
        assigned: dict[int, int] = {}

        def consistent(x: int, y: int) -> bool:
            others = list(assigned)
            for repeat in range(1, k + 1):
                for rest in combinations_with_replacement(others, k - repeat):
                    if not self.tuple_ok(
                        list(rest) + [x] * repeat, [assigned[o] for o in rest] + [y] * repeat
                    ):
                        return False
            return True

        for x in sorted(self.fixed, key=lambda m: (bin(m).count("1"), m)):
            if not consistent(x, self.fixed[x]):
                return "not_found"
            assigned[x] = self.fixed[x]
        # Hamming weight, then lexicographic over terms: the order the library documents
        free = sorted(
            (x for x in range(1 << self.L) if x not in self.fixed),
            key=lambda m: (bin(m).count("1"), [(m >> l) & 1 for l in range(self.L)]),
        )
        nodes = 0

        def descend(pos: int) -> bool:
            nonlocal nodes
            if pos == len(free):
                return True
            x = free[pos]
            for y in range(1 << self.R):
                nodes += 1
                if nodes > node_limit:
                    raise _Unfinished
                if consistent(x, y):
                    assigned[x] = y
                    if descend(pos + 1):
                        return True
                    del assigned[x]
            return False

        try:
            return "found" if descend(0) else "not_found"
        except _Unfinished:
            return "unfinished"


class _Unfinished(Exception):
    pass
