"""Graph model: flow solver against the bipartition oracle, plus fixed cases."""

from fractions import Fraction

import pytest

from linkcone.core import all_subsystems
from linkcone.generate import generate_graph
from linkcone.graphs import WeightedGraph, graph_entropy, graph_entropy_vector

from oracles import bipartition_graph_mincut


def bell_pair() -> WeightedGraph:
    return WeightedGraph(("a", "o"), {1: "a", 2: "o"}, (("a", "o", Fraction(1)),))


def four_leg_star() -> WeightedGraph:
    edges = tuple(("m", leaf, Fraction(1)) for leaf in ("a", "b", "c", "o"))
    return WeightedGraph(("m", "a", "b", "c", "o"), {1: "a", 2: "b", 3: "c", 4: "o"}, edges)


def test_bell_pair():
    g = bell_pair()
    assert graph_entropy(g, frozenset({1})) == 1
    assert graph_entropy_vector(g).entries == (Fraction(1),)


def test_four_leg_star_vector():
    # frozen values from exhaustive bipartition enumeration over all 2**5 subsets
    vec = graph_entropy_vector(four_leg_star())
    assert vec.entries == tuple(map(Fraction, (1, 1, 1, 2, 2, 2, 1)))
    for sub in all_subsystems(3):
        assert vec.value(sub) == bipartition_graph_mincut(four_leg_star(), sub)


def test_disconnected_externals():
    g = WeightedGraph(("a", "b", "o"), {1: "a", 2: "b", 3: "o"}, ())
    assert graph_entropy(g, frozenset({1})) == 0


def test_two_disjoint_bell_pairs():
    # A-B entangled, C-purifier entangled; frozen from bipartition enumeration
    g = WeightedGraph(
        ("a", "b", "c", "o"),
        {1: "a", 2: "b", 3: "c", 4: "o"},
        (("a", "b", Fraction(1)), ("c", "o", Fraction(1))),
    )
    vec = graph_entropy_vector(g)
    assert vec.entries == tuple(map(Fraction, (1, 1, 1, 0, 2, 2, 1)))


def test_self_loop_rejected():
    with pytest.raises(ValueError):
        WeightedGraph(("a", "o"), {1: "a", 2: "o"}, (("a", "a", Fraction(1)),))


def test_negative_weight_rejected():
    with pytest.raises(ValueError):
        WeightedGraph(("a", "o"), {1: "a", 2: "o"}, (("a", "o", Fraction(-1)),))


def test_parallel_edges_sum():
    g = WeightedGraph(
        ("a", "o"),
        {1: "a", 2: "o"},
        (("a", "o", Fraction(1)), ("o", "a", Fraction(1, 2))),
    )
    assert graph_entropy(g, frozenset({1})) == Fraction(3, 2)


def test_zero_weight_edges_allowed():
    g = WeightedGraph(("a", "o"), {1: "a", 2: "o"}, (("a", "o", Fraction(0)),))
    assert graph_entropy(g, frozenset({1})) == 0


def test_flow_equals_bipartition_oracle_randomized():
    for seed in range(80):
        g = generate_graph(2 + seed % 3, vertices=5 + seed % 8, edges=seed % 14, seed=seed)
        # the graph's one cut network serves every subsystem, in either order
        subsystems = all_subsystems(g.n)[::-1] if seed % 2 else all_subsystems(g.n)
        for sub in subsystems:
            assert graph_entropy(g, sub) == bipartition_graph_mincut(g, sub), (seed, sub)
        expected = tuple(bipartition_graph_mincut(g, sub) for sub in all_subsystems(g.n))
        assert graph_entropy_vector(g).entries == expected, seed


def test_purification_symmetry():
    # S(I) equals the min cut computed for the complementary external set,
    # realized by relabeling parties so the complement becomes a subsystem
    for seed in range(40):
        g = generate_graph(3, vertices=6 + seed % 4, edges=3 + seed % 8, seed=seed)
        for sub in all_subsystems(3):
            complement = sorted(set(range(1, 5)) - sub)
            relabeled = WeightedGraph(
                g.vertices,
                {pos + 1: g.external[party] for pos, party in enumerate(complement + sorted(sub))},
                g.edges,
            )
            assert graph_entropy(g, sub) == graph_entropy(
                relabeled, frozenset(range(1, len(complement) + 1))
            )


def test_subadditivity_and_ssa_on_random_graphs():
    for seed in range(60):
        g = generate_graph(3, vertices=5 + seed % 6, edges=2 + seed % 10, seed=seed)
        vec = graph_entropy_vector(g)
        subs = all_subsystems(3)
        for a in subs:
            for b in subs:
                if a & b:
                    continue
                assert vec.value(a) + vec.value(b) >= vec.value(a | b)
        ab, bc = frozenset({1, 2}), frozenset({2, 3})
        assert vec.value(ab) + vec.value(bc) >= vec.value(frozenset({2})) + vec.value(frozenset({1, 2, 3}))


def test_uniform_scaling_linearity():
    for seed in range(20):
        g = generate_graph(2, vertices=5, edges=4 + seed % 5, seed=seed)
        scaled = WeightedGraph(
            g.vertices, g.external, tuple((u, v, w * Fraction(3, 2)) for u, v, w in g.edges)
        )
        base = graph_entropy_vector(g)
        assert graph_entropy_vector(scaled).entries == tuple(
            e * Fraction(3, 2) for e in base.entries
        )


# mixed denominators: a flow scaled by anything but their common multiple,
# or truncated, gets some of these wrong
MIXED_WEIGHTS = (Fraction(0), Fraction(1, 2), Fraction(2, 3), Fraction(5, 7), Fraction(1), Fraction(7, 3))


def test_mixed_denominators_match_bipartition_oracle():
    for seed in range(60):
        g = generate_graph(2 + seed % 3, vertices=4 + seed % 6, edges=3 + seed % 10, seed=seed,
                           weight_choices=MIXED_WEIGHTS)
        for sub in all_subsystems(g.n):
            assert graph_entropy(g, sub) == bipartition_graph_mincut(g, sub), (seed, sub)
