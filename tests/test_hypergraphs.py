"""Hypergraph model: cut weights, entropies, rank-2 agreement with graphs."""

from fractions import Fraction

import pytest

from linkcone.core import all_subsystems, evaluate_inequality, parse_inequality
from linkcone.generate import generate_graph, generate_hypergraph
from linkcone.graphs import graph_entropy
from linkcone.hypergraphs import (
    Hypergraph,
    hypergraph_cut_weight,
    hypergraph_entropy,
    hypergraph_entropy_vector,
)

from oracles import exhaustive_hypergraph_entropy

MMI = "S(AB) + S(BC) + S(AC) >= S(A) + S(B) + S(C) + S(ABC)"


def unit_four_edge() -> Hypergraph:
    return Hypergraph(
        ("a", "b", "c", "o"),
        {1: "a", 2: "b", 3: "c", 4: "o"},
        ((frozenset({"a", "b", "c", "o"}), Fraction(1)),),
    )


def test_cut_weight_examples():
    h = Hypergraph(("a", "b", "o"), {1: "a", 2: "o"}, ((frozenset({"a", "b", "o"}), Fraction(1)),))
    assert hypergraph_cut_weight(h, {"a"}) == 1
    assert hypergraph_cut_weight(h, {"a", "b", "o"}) == 0
    h2 = Hypergraph(
        ("a", "b", "o"),
        {1: "a", 2: "o"},
        ((frozenset({"a", "b"}), Fraction(1)), (frozenset({"b", "o"}), Fraction(1))),
    )
    assert hypergraph_cut_weight(h2, {"b"}) == 2


def test_unit_four_edge_all_ones():
    vec = hypergraph_entropy_vector(unit_four_edge())
    assert vec.entries == (Fraction(1),) * 7


def test_unit_four_edge_violates_mmi():
    mmi = parse_inequality(MMI, 3)
    holds, lhs, rhs = evaluate_inequality(mmi, hypergraph_entropy_vector(unit_four_edge()))
    assert (holds, lhs, rhs) == (False, 3, 4)


def test_empty_hyperedges_zero_vector():
    h = Hypergraph(("a", "b", "o"), {1: "a", 2: "b", 3: "o"}, ())
    assert hypergraph_entropy_vector(h).entries == (Fraction(0),) * 3


def test_singleton_edge_rejected():
    with pytest.raises(ValueError):
        Hypergraph(("a", "o"), {1: "a", 2: "o"}, ((frozenset({"a"}), Fraction(1)),))


@pytest.mark.parametrize("make", [list, tuple, iter], ids=["list", "tuple", "iterator"])
def test_repeated_member_rejected(make):
    # a repeat would otherwise be dropped silently, turning a 3-list into a pair
    with pytest.raises(ValueError, match=r"^repeated name 'a' in hyperedge members \['a', 'a', 'm'\]$"):
        Hypergraph(("a", "m"), {1: "a", 2: "m"}, ((make(["a", "a", "m"]), 1),))


@pytest.mark.parametrize("make", [set, frozenset, list, iter], ids=["set", "frozenset", "list", "iterator"])
def test_members_of_distinct_names_from_any_iterable(make):
    h = Hypergraph(("a", "b", "m"), {1: "a", 2: "m"}, ((make(["a", "b", "m"]), 2),))
    assert h.hyperedges == ((frozenset({"a", "b", "m"}), Fraction(2)),)
    assert hypergraph_entropy(h, {1}) == 2


def test_rank2_matches_graph_entropy():
    for seed in range(60):
        g = generate_graph(2 + seed % 3, vertices=5 + seed % 5, edges=seed % 10, seed=seed)
        h = Hypergraph(
            g.vertices, g.external, tuple((frozenset({u, v}), w) for u, v, w in g.edges)
        )
        for sub in all_subsystems(g.n):
            assert hypergraph_entropy(h, sub) == graph_entropy(g, sub), (seed, sub)


def _check_every_subsystem(h: Hypergraph, seed: int) -> None:
    """Entropies against plain enumeration, in reverse order on odd seeds, then the whole vector again.

    The hypergraph's one cut network serves every query, so no order of
    queries may change an answer.
    """
    expected = {sub: exhaustive_hypergraph_entropy(h, sub) for sub in all_subsystems(h.n)}
    for sub in list(expected)[::-1] if seed % 2 else expected:
        assert hypergraph_entropy(h, sub) == expected[sub], (seed, sub)
    assert hypergraph_entropy_vector(h).entries == tuple(expected.values()), seed


def test_branch_and_bound_matches_plain_enumeration():
    for seed in range(60):
        h = generate_hypergraph(
            2 + seed % 3, vertices=5 + seed % 6, hyperedges=seed % 8, max_arity=4, seed=seed
        )
        _check_every_subsystem(h, seed)


def test_duplicate_member_lists_kept():
    h = Hypergraph(
        ("a", "o"),
        {1: "a", 2: "o"},
        ((frozenset({"a", "o"}), Fraction(1)), (frozenset({"a", "o"}), Fraction(2))),
    )
    assert len(h.hyperedges) == 2
    assert hypergraph_entropy(h, frozenset({1})) == 3


def test_sa_and_ssa_on_random_hypergraphs():
    for seed in range(50):
        h = generate_hypergraph(3, vertices=5 + seed % 4, hyperedges=1 + seed % 7, max_arity=4, seed=seed)
        vec = hypergraph_entropy_vector(h)
        subs = all_subsystems(3)
        for a in subs:
            for b in subs:
                if a & b:
                    continue
                assert vec.value(a) + vec.value(b) >= vec.value(a | b)
        ab, b, bc, abc = (frozenset({1, 2}), frozenset({2}), frozenset({2, 3}), frozenset({1, 2, 3}))
        assert vec.value(ab) + vec.value(bc) >= vec.value(b) + vec.value(abc)


def test_graph_as_hypergraph_star():
    star = Hypergraph(
        ("m", "a", "b", "c", "o"),
        {1: "a", 2: "b", 3: "c", 4: "o"},
        tuple((frozenset({"m", leaf}), Fraction(1)) for leaf in ("a", "b", "c", "o")),
    )
    assert hypergraph_entropy_vector(star).entries == tuple(map(Fraction, (1, 1, 1, 2, 2, 2, 1)))


def test_mixed_denominators_match_plain_enumeration():
    # a flow scaled by anything but the common multiple of the denominators,
    # or truncated, gets some of these wrong
    weights = (Fraction(0), Fraction(1, 2), Fraction(2, 3), Fraction(5, 7), Fraction(1), Fraction(7, 3))
    for seed in range(60):
        h = generate_hypergraph(2 + seed % 3, vertices=4 + seed % 6, hyperedges=2 + seed % 8,
                                max_arity=4, seed=seed, weight_choices=weights)
        _check_every_subsystem(h, seed)
