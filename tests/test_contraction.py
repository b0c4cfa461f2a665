"""Contraction checking and search: verification, equivalences, soundness."""

import itertools
import random
from fractions import Fraction

import pytest

from linkcone import contraction
from linkcone.contraction import (
    BUDGET_EXCEEDED,
    FOUND,
    NOT_FOUND,
    _fixed_points,
    _strings,
    check_graph_contraction,
    check_hypergraph_contraction,
    search_contraction_map,
)
from linkcone.core import (
    LinearInequality,
    all_subsystems,
    evaluate_inequality,
    mixed_indicator,
    occurrence_bitstrings,
    parse_inequality,
)
from linkcone.generate import generate_graph, generate_hypergraph
from linkcone.graphs import graph_entropy_vector
from linkcone.hypergraphs import hypergraph_entropy_vector

from oracles import (
    _all_bitstrings,
    _fixed_points as reference_fixed_points,
    reference_graph_check,
    reference_hypergraph_check,
    reference_search,
)

SA = parse_inequality("S(A) + S(B) >= S(AB)", 2)
SSA = parse_inequality("S(AB) + S(BC) >= S(B) + S(ABC)", 3)
MMI = parse_inequality("S(AB) + S(BC) + S(AC) >= S(A) + S(B) + S(C) + S(ABC)", 3)
SEPARATING = parse_inequality(
    "S(AB) + S(DE) + S(ACD) + 2 S(ACE) + S(BCD) + S(ABDE)"
    " >= S(AC) + S(AE) + S(BD) + 2 S(ABCD) + S(ACDE)",
    5,
)

OR_SA_MAP = {(0, 0): (0,), (1, 0): (1,), (0, 1): (1,), (1, 1): (1,)}
AND_OR_SSA_MAP = {
    (x1, x2): (x1 & x2, x1 | x2) for x1 in (0, 1) for x2 in (0, 1)
}


class TestGraphCheck:
    def test_sa_or_map(self):
        assert check_graph_contraction(OR_SA_MAP, SA).ok

    def test_sa_broken_fixed_point(self):
        broken = dict(OR_SA_MAP)
        broken[(0, 1)] = (0,)
        report = check_graph_contraction(broken, SA)
        assert not report.ok
        assert "fixed point" in report.reason

    def test_ssa_and_or_map(self):
        assert check_graph_contraction(AND_OR_SSA_MAP, SSA).ok

    def test_partial_map_rejected(self):
        with pytest.raises(ValueError):
            check_graph_contraction({(0, 0): (0,)}, SA)

    def test_norm_violation_reported_with_pair(self):
        # send two far-apart strings to far-apart images under tiny LHS weight
        ineq = parse_inequality("1/2 S(A) + 1/2 S(B) >= S(AB)", 2)
        mapping = {(0, 0): (0,), (1, 0): (1,), (0, 1): (1,), (1, 1): (0,)}
        report = check_graph_contraction(mapping, ineq)
        assert not report.ok
        assert report.violation is not None and len(report.violation) == 2


class TestHypergraphCheck:
    def test_sa_or_map_rank3(self):
        assert check_hypergraph_contraction(OR_SA_MAP, SA, 3).ok

    def test_rank2_equals_graph_check_on_random_maps(self):
        # random inequalities over 3 parties and random total maps, L,R <= 4
        rng = random.Random(7)
        terms = ["S(A)", "S(B)", "S(C)", "S(AB)", "S(AC)", "S(BC)", "S(ABC)"]
        for trial in range(1000):
            lhs = " + ".join(
                f"{rng.randint(1, 3)} {t}" for t in rng.sample(terms, rng.randint(1, 4))
            )
            rhs = " + ".join(
                f"{rng.randint(1, 3)} {t}" for t in rng.sample(terms, rng.randint(1, 4))
            )
            ineq = parse_inequality(f"{lhs} >= {rhs}", 3)
            strings = list(itertools.product((0, 1), repeat=len(ineq.lhs)))
            mapping = {
                x: tuple(rng.randint(0, 1) for _ in range(len(ineq.rhs))) for x in strings
            }
            graph_report = check_graph_contraction(mapping, ineq)
            hyper_report = check_hypergraph_contraction(mapping, ineq, 2)
            assert graph_report.ok == hyper_report.ok, (trial, mapping)

    def test_mmi_rank4_fixed_points_fail(self):
        # the occurrence strings alone violate the rank-4 indicator condition,
        # so every candidate map fails, matching the 4-edge counterexample
        xs, ys = occurrence_bitstrings(MMI)
        lhs = sum(mixed_indicator(col) for col in zip(*xs))
        rhs = sum(mixed_indicator(col) for col in zip(*ys))
        assert (lhs, rhs) == (3, 4)
        result = search_contraction_map(MMI, mode="hypergraph", rank=4)
        assert result.status == NOT_FOUND

    def test_mmi_rank4_sampled_maps_fail(self):
        rng = random.Random(3)
        xs, ys = occurrence_bitstrings(MMI)
        base = dict(zip(xs, ys))
        strings = list(itertools.product((0, 1), repeat=3))
        for _ in range(200):
            mapping = dict(base)
            for x in strings:
                if x not in mapping:
                    mapping[x] = tuple(rng.randint(0, 1) for _ in range(4))
            assert not check_hypergraph_contraction(mapping, MMI, 4).ok


class TestSearch:
    def test_sa_graph_mode(self):
        result = search_contraction_map(SA, mode="graph")
        assert result.status == FOUND
        assert check_graph_contraction(result.mapping, SA).ok

    def test_ssa_graph_mode(self):
        result = search_contraction_map(SSA, mode="graph")
        assert result.status == FOUND
        assert check_graph_contraction(result.mapping, SSA).ok

    def test_mmi_graph_mode(self):
        result = search_contraction_map(MMI, mode="graph")
        assert result.status == FOUND
        assert check_graph_contraction(result.mapping, MMI).ok

    def test_sa_hypergraph_rank3(self):
        result = search_contraction_map(SA, mode="hypergraph", rank=3)
        assert result.status == FOUND
        assert check_hypergraph_contraction(result.mapping, SA, 3).ok

    def test_budget_exceeded(self):
        result = search_contraction_map(SEPARATING, mode="graph", budget=10)
        assert result.status == BUDGET_EXCEEDED
        assert result.nodes > 10

    def test_separating_inequality_exhausts_in_graph_mode(self):
        # no image for the first unseeded string is compatible with the
        # occurrence strings, so the backtracking tree is exactly the 2**R
        # root attempts; nodes visited must equal that independently
        # computed tree size
        from linkcone.core import weighted_hamming_norm

        result = search_contraction_map(SEPARATING, mode="graph")
        assert result.status == NOT_FOUND

        xs, ys = occurrence_bitstrings(SEPARATING)
        seeded = dict(zip(xs, ys))
        free = [
            x
            for x in sorted(itertools.product((0, 1), repeat=6), key=lambda b: (sum(b), b))
            if x not in seeded
        ]
        first = free[0]
        alphas, betas = SEPARATING.lhs_coeffs, SEPARATING.rhs_coeffs
        consistent_images = [
            y
            for y in itertools.product((0, 1), repeat=5)
            if all(
                weighted_hamming_norm(tuple(a - b for a, b in zip(first, x2)), alphas)
                >= weighted_hamming_norm(tuple(a - b for a, b in zip(y, y2)), betas)
                for x2, y2 in seeded.items()
            )
        ]
        assert consistent_images == []
        assert result.nodes == 2 ** 5

    def test_separating_purifier_orbit_trees(self):
        # the benchmark's inputs: exhaustive graph-mode runs over the orbit of
        # the separating inequality under party <-> purifier swaps, and the
        # A <-> purifier swap at fixed budgets in every mode
        for party, expected in ((0, (32, 0)), (1, (424000, 15)), (2, (2880, 6)), (3, (2656, 8)), (4, (2656, 8)),
                                (5, (224, 3))):
            ineq = SEPARATING if party == 0 else _swap_with_purifier(SEPARATING, party)
            result = search_contraction_map(ineq, mode="graph")
            assert (result.status, result.nodes, result.depth) == (NOT_FOUND, *expected), party
        swapped = _swap_with_purifier(SEPARATING, 1)
        for mode, rank, budget, expected in (
            ("graph", None, 1000, (1001, 15)),
            ("hypergraph", 3, 250, (251, 15)),
            ("hypergraph", 4, 30, (31, 3)),
        ):
            result = search_contraction_map(swapped, mode=mode, rank=rank, budget=budget)
            assert (result.status, result.nodes, result.depth) == (BUDGET_EXCEEDED, *expected), mode

    def test_recheck_rejects_a_map_the_pair_tables_let_through(self, monkeypatch):
        # with every image admitted at every position, the graph search returns
        # the first total map for MMI, and the re-check's full walk rejects it
        monkeypatch.setattr(contraction, "bisect_right", lambda weights, d: len(weights))
        with pytest.raises(RuntimeError, match="fails verification"):
            search_contraction_map(MMI, mode="graph")

    def test_bad_budget(self):
        with pytest.raises(ValueError):
            search_contraction_map(SA, mode="graph", budget=0)

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            search_contraction_map(SA, mode="nonsense")
        with pytest.raises(ValueError):
            search_contraction_map(SA, mode="hypergraph", rank=1)

    def test_search_verify_consistency_random(self):
        rng = random.Random(11)
        sides = ["S(A)", "S(B)", "S(AB)"]
        for _ in range(50):
            lhs = " + ".join(rng.sample(sides, rng.randint(1, 3)))
            rhs = " + ".join(rng.sample(sides, rng.randint(1, 3)))
            ineq = parse_inequality(f"{lhs} >= {rhs}", 2)
            result = search_contraction_map(ineq, mode="graph")
            if result.status == FOUND:
                assert check_graph_contraction(result.mapping, ineq).ok


class TestMatchesReference:
    """Integer-mask search and checkers against the `Fraction` reference in tests/oracles.py.

    Coefficients mix denominators on both sides, so the common scaling of
    the weight tables is exercised.
    """

    COEFFS = tuple(Fraction(c) for c in ("1/2", "2/3", "3/4", "5"))

    def _inequalities(self, seed, count):
        # sums of one or two relabeled SA/SSA/MMI instances with mixed scales,
        # extra LHS terms and rescaled terms on both sides: valid and invalid cases
        # whose occurrence strings often agree, so the searches grow real trees
        rng = random.Random(seed)
        for _ in range(count):
            n = rng.choice((2, 3))
            lhs, rhs = {}, {}
            for base in rng.choices((SA,) if n == 2 else (SA, SSA, MMI), k=rng.randint(1, 2)):
                perm = dict(zip(range(1, n + 1), rng.sample(range(1, n + 1), n)))
                scale = rng.choice(self.COEFFS)
                for side, terms in ((lhs, base.lhs), (rhs, base.rhs)):
                    for sub, coeff in terms:
                        sub = frozenset(perm[p] for p in sub)
                        side[sub] = side.get(sub, 0) + coeff * scale
            for sub in rng.sample(all_subsystems(n), rng.randint(0, 2)):
                lhs[sub] = lhs.get(sub, 0) + rng.choice(self.COEFFS)
            for side in (lhs, rhs):
                for sub in rng.sample(sorted(side, key=sorted), rng.randint(1, len(side))):
                    side[sub] *= rng.choice(self.COEFFS)
            yield rng, LinearInequality(n, tuple(lhs.items()), tuple(rhs.items()))

    @staticmethod
    def _outcome(result):
        # status, counters, note and the first map in assignment order
        mapping = result.mapping and list(result.mapping.items())
        return result.status, result.nodes, result.depth, result.note, mapping

    def test_search_matches_reference(self):
        statuses = set()
        for _, ineq in self._inequalities(3, 30):
            modes = [("graph", None), ("hypergraph", 3)]
            if len(ineq.lhs) <= 4:  # the reference needs seconds for rank 4 beyond that
                modes.append(("hypergraph", 4))
            for mode, rank in modes:
                got = search_contraction_map(ineq, mode=mode, rank=rank, budget=80)
                want = reference_search(ineq, mode=mode, rank=rank, budget=80)
                assert (got.status, got.nodes, got.depth, got.note) == (
                    want.status, want.nodes, want.depth, want.note
                )
                # the same first map, in the same assignment order
                assert (got.mapping and list(got.mapping.items())) == (
                    want.mapping and list(want.mapping.items())
                )
                statuses.add(got.status)
        assert statuses == {FOUND, NOT_FOUND, BUDGET_EXCEEDED}

    def test_budgets_at_the_tree_size_match_reference(self):
        # the search counts skipped images in gaps, so pin the budget stop
        # one node before, at, and one node after the whole tree
        stops = set()
        for _, ineq in self._inequalities(3, 30):
            for mode, rank in (("graph", None), ("hypergraph", 3)):
                whole = search_contraction_map(ineq, mode=mode, rank=rank, budget=80)
                if whole.status == BUDGET_EXCEEDED:
                    continue
                for budget in (whole.nodes - 1, whole.nodes, whole.nodes + 1):
                    if budget < 1:
                        continue
                    got = search_contraction_map(ineq, mode=mode, rank=rank, budget=budget)
                    want = reference_search(ineq, mode=mode, rank=rank, budget=budget)
                    assert self._outcome(got) == self._outcome(want), (ineq, mode, budget)
                    stops.add((got.status, budget - whole.nodes))
        assert {(BUDGET_EXCEEDED, -1), (FOUND, 0), (NOT_FOUND, 0), (FOUND, 1), (NOT_FOUND, 1)} <= stops

    def test_rank_2_hypergraph_search_is_graph_search(self):
        for _, ineq in self._inequalities(5, 30):
            for budget in (None, 40):
                graph = search_contraction_map(ineq, mode="graph", budget=budget)
                rank2 = search_contraction_map(ineq, mode="hypergraph", rank=2, budget=budget)
                assert self._outcome(rank2) == self._outcome(graph)

    def test_checkers_match_reference_on_random_maps(self):
        verdicts = set()
        for rng, ineq in self._inequalities(9, 60):
            xs, ys = occurrence_bitstrings(ineq)
            strings = list(itertools.product((0, 1), repeat=len(ineq.lhs)))
            for trial in range(4):
                rng.shuffle(strings)
                mapping = {x: tuple(rng.randint(0, 1) for _ in ineq.rhs) for x in strings}
                if trial % 2:
                    mapping.update(zip(xs, ys))
                got = check_graph_contraction(mapping, ineq)
                assert got == reference_graph_check(mapping, ineq)
                verdicts.add(got.reason)
                for k in (2, 3, 4):
                    got = check_hypergraph_contraction(mapping, ineq, k)
                    assert got == reference_hypergraph_check(mapping, ineq, k)
                    verdicts.add(got.reason)
        assert {None, "norm contraction violated", "indicator contraction violated"} <= verdicts
        assert any(reason and "fixed point" in reason for reason in verdicts)

    def test_checkers_match_reference_on_malformed_maps(self):
        # the checkers look images up by mask; what they accept, the keys
        # they report and the errors they raise stay the reference's
        def outcome(check, *args):
            try:
                return repr(check(*args))
            except ValueError as exc:
                return f"ValueError: {exc}"

        seen = set()
        for rng, ineq in self._inequalities(13, 40):
            fixed = dict(zip(*occurrence_bitstrings(ineq)))
            strings = list(itertools.product((0, 1), repeat=len(ineq.lhs)))
            rng.shuffle(strings)
            base = {x: fixed.get(x, tuple(rng.randint(0, 1) for _ in ineq.rhs)) for x in strings}
            x0 = next((x for x in strings if x not in fixed), strings[0])
            x1 = next(iter(fixed))
            variants = {
                "list images": {x: y if x in fixed else list(y) for x, y in base.items()},
                "a list at a fixed point": {**base, x1: list(base[x1])},
                "bool bits": {tuple(map(bool, x)): tuple(map(bool, y)) for x, y in base.items()},
                "a 2 bit": {**base, x0: (2, *base[x0][1:])},
                "a short image": {**base, x0: base[x0][:-1]},
                "a key outside": {**base, (0,) * (len(ineq.lhs) + 1): base[x0]},
                "an unhashable bit": {**base, x0: ([0], *base[x0][1:])},
            }
            for name, mapping in variants.items():
                got = outcome(check_graph_contraction, mapping, ineq)
                assert got == outcome(reference_graph_check, mapping, ineq), (name, ineq)
                seen.add((name, got.split("(")[0].split(":")[0]))
                for k in (2, 3, 4):
                    got = outcome(check_hypergraph_contraction, mapping, ineq, k)
                    assert got == outcome(reference_hypergraph_check, mapping, ineq, k), (name, ineq, k)
        for name in ("list images", "a list at a fixed point", "bool bits"):
            assert (name, "ContractionReport") in seen
        for name in ("a 2 bit", "a short image", "a key outside", "an unhashable bit"):
            assert (name, "ValueError") in seen


class TestTables:
    """The per-length tables and the mask fixed points against the tuple-built reference."""

    def test_domain_order_is_weight_then_lex(self):
        for length in range(1, 9):
            strings = _strings(length)
            assert strings.bits == tuple(itertools.product((0, 1), repeat=length))
            assert all(strings.mask_of[x] == m for m, x in enumerate(strings.bits))
            assert [strings.bits[m] for m in strings.order] == _all_bitstrings(length)

    def test_fixed_points_match_occurrence_bitstrings(self):
        # two parties, or a party and the purifier, with one LHS string and two RHS strings
        contradictions = ("S(AB) >= S(A)", "S(AB) + S(C) >= S(A) + S(BC)", "S(A) + S(B) >= S(AB) + S(C)")
        inequalities = [SA, SSA, MMI, SEPARATING] + [parse_inequality(text, 3) for text in contradictions]
        for seed, count in ((3, 30), (5, 30), (9, 60)):
            inequalities += [ineq for _, ineq in TestMatchesReference()._inequalities(seed, count)]
        contradictory = 0
        for ineq in inequalities:
            got, want = _fixed_points(ineq), reference_fixed_points(ineq)
            if want is None:
                assert got is None
                contradictory += 1
                continue
            strings, images = _strings(len(ineq.lhs)), _strings(len(ineq.rhs))
            assert [(strings.bits[x], images.bits[y]) for x, y in got.items()] == list(want.items())
        assert contradictory == len(contradictions)


class TestMmiRankThreeContractionExists:
    """The rank-3 search finds a genuine indicator contraction for MMI.

    Certified here against an exhaustive ordered-tuple check, and
    consistent with MMI holding on every sampled rank-3 hypergraph; the
    rank-4 condition is impossible already on the occurrence strings.
    """

    def test_found_map_passes_exhaustive_ordered_check(self):
        result = search_contraction_map(MMI, mode="hypergraph", rank=3)
        assert result.status == FOUND
        strings = list(itertools.product((0, 1), repeat=3))
        alphas, betas = MMI.lhs_coeffs, MMI.rhs_coeffs
        for rows in itertools.product(strings, repeat=3):
            lhs = sum(a * mixed_indicator(col) for a, col in zip(alphas, zip(*rows)))
            images = [result.mapping[x] for x in rows]
            rhs = sum(b * mixed_indicator(col) for b, col in zip(betas, zip(*images)))
            assert lhs >= rhs, rows

    def test_mmi_holds_on_random_rank3_hypergraphs(self):
        for seed in range(300):
            h = generate_hypergraph(3, vertices=4 + seed % 4, hyperedges=1 + seed % 6,
                                    max_arity=3, seed=seed)
            holds, _, _ = evaluate_inequality(MMI, hypergraph_entropy_vector(h))
            assert holds, seed


class TestSoundnessSmoke:
    def test_graph_maps_imply_validity_on_random_graphs(self):
        for ineq in (SA, SSA, MMI):
            result = search_contraction_map(ineq, mode="graph")
            assert result.status == FOUND
            for seed in range(200):
                g = generate_graph(ineq.n, vertices=ineq.n + 2 + seed % 4,
                                   edges=seed % 10, seed=seed)
                holds, _, _ = evaluate_inequality(ineq, graph_entropy_vector(g))
                assert holds, (seed,)

    def test_hypergraph_maps_imply_validity_on_random_hypergraphs(self):
        for ineq, rank in ((SA, 3), (MMI, 3)):
            result = search_contraction_map(ineq, mode="hypergraph", rank=rank)
            assert result.status == FOUND
            for seed in range(200):
                h = generate_hypergraph(ineq.n, vertices=ineq.n + 2 + seed % 3,
                                        hyperedges=seed % 7, max_arity=rank, seed=seed)
                holds, _, _ = evaluate_inequality(ineq, hypergraph_entropy_vector(h))
                assert holds, (seed,)


def _swap_with_purifier(ineq: LinearInequality, party: int) -> LinearInequality:
    """Exchange `party` with the purifier, then purify the terms that contain it."""
    everyone = frozenset(range(1, ineq.n + 2))

    def side(terms):
        merged: dict[frozenset[int], Fraction] = {}
        for sub, coeff in terms:
            moved = frozenset(ineq.n + 1 if p == party else p for p in sub)
            image = everyone - moved if ineq.n + 1 in moved else moved
            merged[image] = merged.get(image, Fraction(0)) + coeff
        return tuple(merged.items())

    return LinearInequality(ineq.n, side(ineq.lhs), side(ineq.rhs))
