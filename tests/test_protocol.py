"""One model protocol: `n`, `entropy(subsystem)` and `entropy_vector(model)` for every kind."""

import copy
import dataclasses
import pickle
import random
from fractions import Fraction

import pytest

from linkcone import flow
from linkcone.certificates import check_inequality_direct
from linkcone.core import all_subsystems, entropy_vector, evaluate_inequality, parse_inequality
from linkcone.generate import generate_graph, generate_hypergraph, generate_link_model
from linkcone.graphs import WeightedGraph, graph_entropy, graph_entropy_vector
from linkcone.hypergraphs import Hypergraph, hypergraph_entropy, hypergraph_entropy_vector
from linkcone.links import (
    INFINITE,
    LinkModel,
    hypergraph_to_link,
    link_entropy,
    link_entropy_vector,
    link_min_cut,
    ray15_link,
)
from linkcone.modelio import dumps_json, model_to_json

from oracles import bipartition_graph_mincut, exhaustive_hypergraph_entropy
from test_links import held_table_model

FRACTIONAL = (Fraction(1, 2), Fraction(2, 3), Fraction(5, 7), Fraction(1))
INEQUALITIES = {
    "SA": "S(A) + S(B) >= S(AB)",
    "SSA": "S(AB) + S(BC) >= S(B) + S(ABC)",
    "MMI": "S(AB) + S(BC) + S(AC) >= S(A) + S(B) + S(C) + S(ABC)",
    "weighted": "2 S(AB) + 1/2 S(C) >= 3 S(ABC) + 2/3 S(B)",
}


def seeded_graph(seed: int) -> WeightedGraph:
    """Graph with fractional weights, a parallel edge and an edge between two externals."""
    g = generate_graph(3, vertices=5 + seed % 4, edges=3 + seed % 7, seed=seed, weight_choices=FRACTIONAL)
    rng = random.Random(seed)
    a, b = rng.sample(sorted(g.external.values()), 2)
    u, v, _ = g.edges[0]
    extra = ((a, b, rng.choice(FRACTIONAL)), (v, u, rng.choice(FRACTIONAL)))
    return WeightedGraph(g.vertices, g.external, g.edges + extra)


def as_hypergraph(graph: WeightedGraph) -> Hypergraph:
    return Hypergraph(graph.vertices, graph.external, tuple((frozenset((u, v)), w) for u, v, w in graph.edges))


def seeded_hypergraph(seed: int) -> Hypergraph:
    """Hypergraph whose hyperedges mix rank 2 with ranks 3 and 4."""
    return generate_hypergraph(3, vertices=5 + seed % 4, hyperedges=4 + seed % 6, max_arity=4, seed=seed,
                               weight_choices=FRACTIONAL)


def test_public_functions_are_the_protocol():
    assert graph_entropy is WeightedGraph.entropy
    assert hypergraph_entropy is Hypergraph.entropy
    assert link_entropy is LinkModel.entropy
    assert graph_entropy_vector is hypergraph_entropy_vector is link_entropy_vector is entropy_vector


def test_graph_is_the_rank_2_hypergraph():
    for seed in range(40):
        g = seeded_graph(seed)
        vector = graph_entropy_vector(g)
        assert vector == hypergraph_entropy_vector(as_hypergraph(g)), seed
        assert vector.entries == tuple(bipartition_graph_mincut(g, sub) for sub in all_subsystems(3)), seed


def test_graph_cases_cover_fractions_parallel_and_external_edges():
    graphs = [seeded_graph(seed) for seed in range(40)]
    externals = [set(g.external.values()) for g in graphs]
    assert all({u, v} <= ext for g, ext in zip(graphs, externals) for u, v, _ in g.edges[-2:-1])
    assert all(len({frozenset((u, v)) for u, v, _ in g.edges}) < len(g.edges) for g in graphs)
    assert {w.denominator for g in graphs for _, _, w in g.edges} == {1, 2, 3, 7}


def test_mixed_rank_hypergraph_matches_enumeration():
    for seed in range(40):
        h = seeded_hypergraph(seed)
        expected = tuple(exhaustive_hypergraph_entropy(h, sub) for sub in all_subsystems(3))
        assert hypergraph_entropy_vector(h).entries == expected, seed


def test_hypergraph_cases_mix_ranks():
    ranks = {len(members) for seed in range(40) for members, _ in seeded_hypergraph(seed).hyperedges}
    assert ranks == {2, 3, 4}


@pytest.mark.parametrize("name", sorted(INEQUALITIES))
def test_direct_check_equals_vector_evaluation(name):
    ineq = parse_inequality(INEQUALITIES[name], 3)
    for seed in range(20):
        for model in (seeded_graph(seed), seeded_hypergraph(seed)):
            assert check_inequality_direct(model, ineq) == evaluate_inequality(ineq, entropy_vector(model))


def test_method_equals_public_function_for_every_kind():
    cases = [
        (seeded_graph(3), graph_entropy),
        (seeded_hypergraph(3), hypergraph_entropy),
        (hypergraph_to_link(seeded_hypergraph(3)), link_entropy),
        (generate_link_model(3, loops=9, atoms=6, max_arity=4, seed=7), link_entropy),
        (ray15_link(), link_entropy),
    ]
    for model, public in cases:
        for sub in all_subsystems(model.n):
            assert model.entropy(sub) == public(model, sub), (type(model).__name__, sub)
        assert entropy_vector(model).entries == tuple(model.entropy(sub) for sub in all_subsystems(model.n))


def test_each_model_builds_one_network(monkeypatch):
    # only the terminal slots depend on the subsystem, so a model builds its
    # cut network on the first query and every later subsystem reuses it
    built = []
    build = flow.CutNetwork.__init__

    def counted(network, *args):
        built.append(network)
        build(network, *args)

    monkeypatch.setattr(flow.CutNetwork, "__init__", counted)
    h = seeded_hypergraph(5)
    for model in (seeded_graph(5), h, hypergraph_to_link(h)):
        built.clear()
        first = entropy_vector(model)
        assert entropy_vector(model) == first
        assert len(built) == 1, type(model).__name__


def test_replace_builds_a_fresh_model():
    # a model built by `dataclasses.replace` answers like one built from
    # scratch: no min-cut or network of the old model carries over
    link = ray15_link()
    graph, hypergraph = seeded_graph(6), seeded_hypergraph(6)
    for model in (link, graph, hypergraph):
        entropy_vector(model)
    weights = dict(link.weights, w2=Fraction(7))
    edges = tuple((u, v, 2 * w) for u, v, w in graph.edges)
    hyperedges = tuple((members, 2 * w) for members, w in hypergraph.hyperedges)
    cases = [
        (dataclasses.replace(link, weights=weights), LinkModel(link.loops, weights, link.external, link.structure)),
        (dataclasses.replace(graph, edges=edges), WeightedGraph(graph.vertices, graph.external, edges)),
        (
            dataclasses.replace(hypergraph, hyperedges=hyperedges),
            Hypergraph(hypergraph.vertices, hypergraph.external, hyperedges),
        ),
    ]
    for old, (changed, fresh) in zip((link, graph, hypergraph), cases):
        assert entropy_vector(changed) == entropy_vector(fresh) != entropy_vector(old), type(old).__name__
    changed, fresh = cases[0]
    for sub in all_subsystems(link.n):
        assert link_min_cut(changed, sub) == link_min_cut(fresh, sub), sub


# Models are frozen: a mutation raises instead of leaving cached answers stale.


def test_reassigning_graph_edges_after_a_query_raises():
    g = generate_graph(3, 6, 8, 1)
    vector = entropy_vector(g)
    with pytest.raises(dataclasses.FrozenInstanceError):
        g.edges = tuple((u, v, 2 * w) for u, v, w in g.edges)
    assert entropy_vector(g) == vector


def test_link_weight_item_assignment_raises():
    m = ray15_link()
    vector = entropy_vector(m)
    with pytest.raises(TypeError):
        m.weights["w2"] = 7
    with pytest.raises(dataclasses.FrozenInstanceError):
        m.weights = dict(m.weights, w2=Fraction(7))
    assert m.weights["w2"] == 2
    assert entropy_vector(m) == vector


def test_external_item_assignment_raises_on_every_model():
    for model in (seeded_graph(3), seeded_hypergraph(3), ray15_link()):
        external = dict(model.external)
        with pytest.raises(TypeError):
            model.external[1] = model.external[2]
        with pytest.raises(dataclasses.FrozenInstanceError):
            model.external = {}
        assert model.external == external, type(model).__name__


def test_models_copy_the_mappings_they_are_given():
    # the caller's dicts stay the caller's: changing them later leaves the model as built
    m = ray15_link()
    weights, external = dict(m.weights), dict(m.external)
    copy = LinkModel(m.loops, weights, external, m.structure)
    weights["w2"], external[1] = Fraction(7), "B"
    assert copy.weights == m.weights and copy.external == m.external
    assert entropy_vector(copy) == entropy_vector(m)
    g = seeded_graph(2)
    external = dict(g.external)
    models = (WeightedGraph(g.vertices, external, g.edges), Hypergraph(g.vertices, external, ()))
    external[1] = external[2]
    for model in models:
        assert model.external == g.external, type(model).__name__


@pytest.mark.parametrize(
    "clone", [lambda model: pickle.loads(pickle.dumps(model)), copy.deepcopy], ids=["pickle", "deepcopy"]
)
def test_models_pickle_and_deep_copy(clone):
    # a copy is rebuilt from the public fields and starts with an empty cache
    models = (
        seeded_graph(3),
        seeded_hypergraph(3),
        generate_link_model(3, loops=9, atoms=5, max_arity=3, seed=3),
        hypergraph_to_link(seeded_hypergraph(4)),  # infinite weights
        held_table_model(3),
    )
    for model in models:
        vector = entropy_vector(model)
        again = clone(model)
        assert type(again) is type(model)
        assert getattr(again, "_cache", {}) == {} and getattr(again, "_network", None) is None
        assert entropy_vector(again) == vector, type(model).__name__
        assert dumps_json(model_to_json(again)) == dumps_json(model_to_json(model))
    link = clone(models[3])
    assert any(w is INFINITE for w in link.weights.values())
    assert clone(models[4].structure).blocks_by_subset == models[4].structure.blocks_by_subset
