"""Deterministic pseudo-random models for property suites.

Every generator takes a seed and produces the same model for the same
arguments, byte for byte after serialization.  Link-model atoms always
contain at least one internal loop, so generated models never link two
external loops inseparably.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

from .core import party_letter
from .graphs import WeightedGraph
from .hypergraphs import Hypergraph
from .links import AtomicLinkages, LinkModel, has_single_crossing_bridges


def _external_names(parties: int) -> list[str]:
    return [party_letter(i) for i in range(1, parties + 2)]


def generate_link_model(
    parties: int,
    loops: int,
    atoms: int,
    max_arity: int,
    seed: int,
    weight_choices: tuple[int, ...] = (1, 2, 3, 4),
) -> LinkModel:
    """Random link model on `loops` loops with `atoms` distinct atoms.

    Sampled atoms contain at most one external loop, so external parties
    interact only through internal mediators.  That keeps every subsystem
    cuttable and empirically preserves strong subadditivity; structures
    whose atoms tie two externals together directly can violate it by
    forcing specific loops into every cut.
    """
    if loops < parties + 1:
        raise ValueError("need at least one loop per party plus the purifier")
    if atoms < 0:
        raise ValueError("atom count must be nonnegative")
    if not 2 <= max_arity <= loops:
        raise ValueError("max arity must lie between 2 and the loop count")
    rng = random.Random(seed)
    externals = _external_names(parties)
    internals = [f"u{i}" for i in range(loops - len(externals))]
    names = externals + internals
    # index tuples in combinations order; externals come first in `names`,
    # so a second index past them means at most one external member
    population = [
        combo
        for size in range(2, max_arity + 1)
        for combo in combinations(range(loops), size)
        if combo[1] >= len(externals)
    ]
    if atoms > len(population):
        raise ValueError(f"cannot sample {atoms} distinct atoms from {len(population)} candidates")
    chosen = [frozenset(names[i] for i in combo) for combo in rng.sample(population, atoms)]
    weights: dict[str, Fraction] = {name: Fraction(1) for name in externals}
    for name in internals:
        weights[name] = Fraction(rng.choice(weight_choices))
    return LinkModel(
        loops=tuple(names),
        weights=weights,
        external={i + 1: name for i, name in enumerate(externals)},
        structure=AtomicLinkages(tuple(chosen)),
    )


def generate_bridge_regular_link_model(
    parties: int,
    loops: int,
    atoms: int,
    max_arity: int,
    seed: int,
    weight_choices: tuple[int, ...] = (1, 2, 3, 4),
    max_attempts: int = 200,
) -> LinkModel:
    """Random link model on which every minimal bridge crosses its min-cut once.

    Arbitrary atom structures can route a minimal bridge through two
    min-cut loops in series, which puts them outside the applicability
    domain of the bridge-crediting machinery.  This generator redraws
    deterministically (sub-seeds derived from `seed`) until the sampled
    model satisfies the single-crossing property for every subsystem.
    """
    for attempt in range(max_attempts):
        model = generate_link_model(
            parties, loops, atoms, max_arity, seed * 1009 + attempt, weight_choices
        )
        if has_single_crossing_bridges(model):
            return model
    raise RuntimeError(f"no bridge-regular model found for seed {seed} in {max_attempts} attempts")


def generate_graph(
    parties: int,
    vertices: int,
    edges: int,
    seed: int,
    weight_choices: tuple[int, ...] = (1, 2, 3, 4),
) -> WeightedGraph:
    """Random weighted graph; parallel edges may occur and simply add up."""
    if vertices < parties + 1:
        raise ValueError("need at least one vertex per party plus the purifier")
    rng = random.Random(seed)
    externals = _external_names(parties)
    names = externals + [f"v{i}" for i in range(vertices - len(externals))]
    edge_list = []
    for _ in range(edges):
        u, v = rng.sample(names, 2)
        edge_list.append((u, v, Fraction(rng.choice(weight_choices))))
    return WeightedGraph(
        vertices=tuple(names),
        external={i + 1: name for i, name in enumerate(externals)},
        edges=tuple(edge_list),
    )


def generate_hypergraph(
    parties: int,
    vertices: int,
    hyperedges: int,
    max_arity: int,
    seed: int,
    weight_choices: tuple[int, ...] = (1, 2, 3, 4),
) -> Hypergraph:
    """Random hypergraph; repeated member sets are kept as separate edges."""
    if vertices < parties + 1:
        raise ValueError("need at least one vertex per party plus the purifier")
    if not 2 <= max_arity <= vertices:
        raise ValueError("max arity must lie between 2 and the vertex count")
    rng = random.Random(seed)
    externals = _external_names(parties)
    names = externals + [f"v{i}" for i in range(vertices - len(externals))]
    edge_list = []
    for _ in range(hyperedges):
        size = rng.randint(2, max_arity)
        members = frozenset(rng.sample(names, size))
        edge_list.append((members, Fraction(rng.choice(weight_choices))))
    return Hypergraph(
        vertices=tuple(names),
        external={i + 1: name for i, name in enumerate(externals)},
        hyperedges=tuple(edge_list),
    )
