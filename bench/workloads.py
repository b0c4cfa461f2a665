"""The four benchmark workloads: seeded inputs, timed operations, output checks.

Each workload turns a seed into a fixed pool of operations.  The runner
times every operation and repeats the pool until the run's time is up;
after timing, each operation's first output is checked against the
independent oracles in `oracles.py` or against a property the method
must have.  Models are built fresh inside every operation, because users
pay the per-model min-cut cache on every new model.

Spans are opened only around the benchmark's own calls into linkcone's
public functions, one layer per span; the per-model caches let one
operation call `link_min_cut`, then `minimal_bridges`, then the
certificate functions, so each span covers a single layer's work.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from types import SimpleNamespace
from typing import Callable

from linkcone import cli, modelio
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
    BUDGET_EXCEEDED,
    FOUND,
    NOT_FOUND,
    check_graph_contraction,
    check_hypergraph_contraction,
    search_contraction_map,
)
from linkcone.core import (
    LinearInequality,
    all_subsystems,
    parse_inequality,
    serialize_inequality,
)
from linkcone.generate import generate_graph, generate_hypergraph, generate_link_model
from linkcone.graphs import graph_entropy_vector
from linkcone.hypergraphs import hypergraph_entropy_vector
from linkcone.links import (
    RAY15_SEPARATING_INEQUALITY,
    AtomicLinkages,
    LinkModel,
    connected_sublinks,
    has_single_crossing_bridges,
    hypergraph_to_link,
    link_entropy_vector,
    link_min_cut,
    minimal_bridges,
    ray15_link,
    satisfies_strong_subadditivity,
)

import oracles

SA_TEXT = "S(A) + S(B) >= S(AB)"
SSA_TEXT = "S(AB) + S(BC) >= S(B) + S(ABC)"
MMI_TEXT = "S(AB) + S(BC) + S(AC) >= S(A) + S(B) + S(C) + S(ABC)"

# Link models with at most this many cut candidates are checked by enumerating every cut.
BRUTE_FORCE_CANDIDATES = 8
# Bound on the independent search that confirms NotFound verdicts.
CONFIRM_NODE_LIMIT = 200_000


class CheckFailed(Exception):
    """An output disagrees with an oracle or breaks a property."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Op:
    """One timed operation on one generated input.

    `run` does the timed work and returns its output.  `record`, called
    outside the timing, reduces an output to what is kept: every
    repetition must reproduce the first record exactly.  `check` verifies
    the first record and returns how many facts it checked.
    """

    name: str
    run: Callable[[], object]
    check: Callable[[object], int]
    record: Callable[[object], object] = field(default=lambda out: out)


def warm_caches() -> None:
    """Fill linkcone's module-level caches before timing starts."""
    for n in range(1, 6):
        all_subsystems(n)


# ---------------------------------------------------------------------------
# shared helpers


def link_spec(model: LinkModel) -> tuple:
    return (model.loops, dict(model.weights), dict(model.external), model.structure.atoms)


def fresh_link(spec) -> LinkModel:
    loops, weights, external, atoms = spec
    return LinkModel(loops=loops, weights=weights, external=external, structure=AtomicLinkages(atoms))


def entropy_map(vector) -> dict[frozenset[int], Fraction]:
    return dict(zip(all_subsystems(vector.n), vector.entries))


def cuts_of(model: LinkModel) -> dict:
    """Every subsystem's min-cut, read from the model's cache after the timed call."""
    return {sub: link_min_cut(model, sub) for sub in all_subsystems(model.n)}


def check_link_cuts(model: LinkModel, vector, cuts: dict, brute_max: int) -> int:
    """Link vector against brute-force min-cuts, or cut properties on large models.

    Models with at most `brute_max` cut candidates are solved by
    enumeration (weights, cut identity under the documented tie-break,
    interiors).  On larger models every returned cut must be valid, weigh
    what the vector says, be inclusion-minimal, and the vector must
    satisfy subadditivity.
    """
    oracle = oracles.LinkOracle(model)
    entropies = entropy_map(vector)
    subs = oracles.subsystems(model.n)
    checked = 0
    if len(oracle.candidates) <= brute_max:
        for sub, (weight, cut) in oracle.min_cuts().items():
            result = cuts[sub]
            expect(entropies[sub] == weight, f"S({sorted(sub)}) = {entropies[sub]}, brute force {weight}")
            expect(result.cut == oracle.names(cut), f"tie-broken cut of {sorted(sub)} differs")
            expect(result.interior == oracle.names(oracle.interior(sub, cut)), "interior differs")
            checked += 3
        return checked
    for sub in subs:
        result = cuts[sub]
        cut = oracle.mask(result.cut)
        expect(oracle.is_valid_cut(sub, cut), f"cut of {sorted(sub)} is not valid")
        expect(oracle.weight(cut) == entropies[sub] == result.weight, f"cut weight of {sorted(sub)}")
        for i in oracles.bits_of(cut):
            expect(not oracle.is_valid_cut(sub, cut & ~(1 << i)), f"cut of {sorted(sub)} is not minimal")
        expect(result.interior == oracle.names(oracle.interior(sub, cut)), "interior differs")
        checked += 4
    for x, y in combinations(subs, 2):
        if not x & y:
            expect(entropies[x] + entropies[y] >= entropies[x | y], "subadditivity violated")
            checked += 1
    return checked


def relabel_parties(ineq: LinearInequality, perm: dict[int, int]) -> LinearInequality:
    """Rename parties by `perm`, keeping every term in place."""
    def side(terms):
        return tuple((frozenset(perm.get(p, p) for p in sub), c) for sub, c in terms)

    return LinearInequality(ineq.n, side(ineq.lhs), side(ineq.rhs))


def swap_with_purifier(ineq: LinearInequality, party: int) -> LinearInequality:
    """Exchange `party` with the purifier, then purify terms that contain it."""
    n = ineq.n
    everyone = frozenset(range(1, n + 2))

    def image(sub):
        moved = frozenset(n + 1 if p == party else p for p in sub)
        return everyone - moved if n + 1 in moved else moved

    def side(terms):
        merged: dict[frozenset[int], Fraction] = {}
        for sub, c in terms:
            merged[image(sub)] = merged.get(image(sub), Fraction(0)) + c
        return tuple(merged.items())

    return LinearInequality(n, side(ineq.lhs), side(ineq.rhs))


def single_hyperedge_counterexample(ineq: LinearInequality) -> bool:
    """True when one hyperedge over every party and the purifier violates `ineq`."""
    external = {p: "P%d" % p for p in range(1, ineq.n + 2)}
    members = frozenset(external.values())
    hyper = SimpleNamespace(vertices=tuple(sorted(members)), external=external, hyperedges=((members, Fraction(1)),))
    lhs, rhs = oracles.evaluate(ineq, oracles.hypergraph_entropies(hyper))
    return lhs < rhs


# ---------------------------------------------------------------------------
# link-mincut


class LinkMincut:
    """Cold link entropy vectors on seeded atom-structured models, plus ray15.

    A separate stage sweeps `connected_sublinks` over every subset of the
    smallest models.  Bridges, contraction and flow are never touched.
    """

    SIZES = {
        "full": dict(per_stratum=6, loops=range(12, 21), sweeps=20),
        "smoke": dict(per_stratum=1, loops=range(12, 14), sweeps=1),
    }

    def setup(self, seed: int, size: str, tracer, workdir: str) -> list[Op]:
        cfg = self.SIZES[size]
        rng = random.Random(seed)
        ops: list[Op] = []
        specs = []
        with tracer.span("generate.models"):
            for _ in range(cfg["per_stratum"]):
                for loops in cfg["loops"]:
                    for parties in (3, 4):
                        for arity in (2, 3, 4):
                            model = generate_link_model(
                                parties, loops, loops // 3, arity, seed=rng.randrange(2**31)
                            )
                            specs.append(link_spec(model))
        for i, spec in enumerate(specs):
            ops.append(self._mincut_op(f"mincut-{i}-{len(spec[0])}loops", spec, tracer))
        ops.append(self._ray15_op(tracer))
        smallest = sorted(specs, key=lambda s: len(s[0]))[: cfg["sweeps"]]
        for i, spec in enumerate(smallest):
            ops.append(self._sweep_op(f"sweep-{i}", spec, tracer))
        return ops

    @staticmethod
    def _mincut_op(name, spec, tracer) -> Op:
        def run():
            model = fresh_link(spec)
            with tracer.span("links.min_cut"):
                vector = link_entropy_vector(model)
            tracer.count("links.min_cuts", len(vector.entries))
            return vector, model

        def check(rec):
            vector, cuts = rec
            return check_link_cuts(fresh_link(spec), vector, cuts, BRUTE_FORCE_CANDIDATES)

        return Op(name, run, check, record=lambda out: (out[0], cuts_of(out[1])))

    @staticmethod
    def _ray15_op(tracer) -> Op:
        def run():
            model = ray15_link()
            with tracer.span("links.min_cut"):
                vector = link_entropy_vector(model)
            tracer.count("links.min_cuts", len(vector.entries))
            return vector, model

        def check(rec):
            vector, cuts = rec
            expect(tuple(vector.entries) == oracles.RAY15_VECTOR, "ray15 vector differs from the published one")
            sep = parse_inequality(RAY15_SEPARATING_INEQUALITY, 5)
            sides = oracles.evaluate(sep, entropy_map(vector))
            expect(sides == oracles.RAY15_SEPARATING_SIDES, f"separating inequality gives {sides}")
            return 2 + check_link_cuts(ray15_link(), vector, cuts, brute_max=16)

        return Op("ray15", run, check, record=lambda out: (out[0], cuts_of(out[1])))

    @staticmethod
    def _sweep_op(name, spec, tracer) -> Op:
        loops = spec[0]
        index = {name: i for i, name in enumerate(loops)}
        subsets = [
            tuple(loops[i] for i in range(len(loops)) if (mask >> i) & 1) for mask in range(1 << len(loops))
        ]

        def run():
            model = fresh_link(spec)
            with tracer.span("links.connectivity"):
                blocks = [connected_sublinks(model, subset) for subset in subsets]
            tracer.count("links.connectivity_calls", len(subsets))
            return blocks

        def record(blocks):
            return [[sum(1 << index[x] for x in block) for block in found] for found in blocks]

        def check(rec):
            oracle = oracles.LinkOracle(fresh_link(spec))
            for mask, found in enumerate(rec):
                # blocks in order of their lowest loop, as documented
                expect(found == oracle.blocks(mask), f"blocks of subset {mask:b}")
            return len(rec)

        return Op(name, run, check, record)


# ---------------------------------------------------------------------------
# link-certify


def sa_inequalities(n: int) -> list[LinearInequality]:
    """S(X) + S(Y) >= S(XY) for every pair of disjoint subsystems."""
    subs = all_subsystems(n)
    out = []
    for x, y in combinations(subs, 2):
        if not x & y:
            out.append(LinearInequality(n, ((x, Fraction(1)), (y, Fraction(1))), ((x | y, Fraction(1)),)))
    return out


def check_certificate_outcome(oracle, entropies, ineq, cmap, partition, result) -> int:
    """A passing certificate must imply the inequality on oracle entropies.

    Its diagnostics must also match the oracle: the LHS cut weight is the
    LHS entropy, the RHS entropy is the RHS entropy, and the cells the map
    sends to 0 form a valid cut of exactly the reported weight.
    """
    if not result.ok:
        return 0
    lhs, rhs = oracles.evaluate(ineq, entropies)
    expect(lhs >= rhs, "a passing certificate for a violated inequality")
    diag = result.diagnostics
    expect(diag["lhs_cut_weight"] == lhs, "LHS cut weight differs from oracle entropies")
    expect(diag["rhs_entropy"] == rhs, "RHS entropy differs from oracle entropies")
    rhs_cut_weight = Fraction(0)
    for r, (sub, coeff) in enumerate(ineq.rhs):
        zero = 0
        for cell, image in cmap.images.items():
            if image[r] == 0:
                zero |= oracle.mask(partition.cells.get(cell, ()))
        expect(oracle.is_valid_cut(sub, zero), "zero cells of a passing map do not cut")
        rhs_cut_weight += coeff * oracle.weight(zero)
    expect(diag["rhs_cut_weight"] == rhs_cut_weight, "RHS cut weight differs from the zero cells")
    expect(rhs_cut_weight >= rhs, "an assembled cut undercuts the min-cut")
    return 6


class LinkCertify:
    """Filters, trit partitions, indicators and certificate checks on small links.

    Bridge and irreducible-family enumeration over all loop subsets
    dominate; min-cuts are a small part.  Random certificates for the
    separating inequality on ray15 must never pass.
    """

    SIZES = {
        # ray15 batches are cheap; two of them, not eight, put the pool's median
        # inside the 10-loop stratum instead of on its steep lower edge
        "full": dict(per_stratum=4, loops=range(8, 13), mutants=2, ray15_ops=2, ray15_certs=40),
        "smoke": dict(per_stratum=1, loops=range(8, 10), mutants=1, ray15_ops=1, ray15_certs=3),
    }

    def setup(self, seed: int, size: str, tracer, workdir: str) -> list[Op]:
        cfg = self.SIZES[size]
        rng = random.Random(seed)
        ineqs = sa_inequalities(3)
        specs = []
        with tracer.span("generate.models"):
            for _ in range(cfg["per_stratum"]):
                for loops in cfg["loops"]:
                    for arity in (2, 3, 4):
                        model = generate_link_model(
                            3, loops, rng.randint(4, 8), arity, seed=rng.randrange(2**31)
                        )
                        specs.append(link_spec(model))
        ops = [
            self._certify_op(f"certify-{i}-{len(spec[0])}loops", spec, ineqs, cfg["mutants"], rng.randrange(2**31), tracer)
            for i, spec in enumerate(specs)
        ]
        sep = parse_inequality(RAY15_SEPARATING_INEQUALITY, 5)
        for i in range(cfg["ray15_ops"]):
            ops.append(self._ray15_op(f"ray15-certs-{i}", sep, cfg["ray15_certs"], rng.randrange(2**31), tracer))
        return ops

    @staticmethod
    def _certify_op(name, spec, ineqs, mutants, mutation_seed, tracer) -> Op:
        def run():
            model = fresh_link(spec)
            subs = all_subsystems(model.n)
            with tracer.span("links.min_cut"):
                cuts = {sub: link_min_cut(model, sub) for sub in subs}
                strong = satisfies_strong_subadditivity(model)
            tracer.count("links.min_cuts", len(subs))
            with tracer.span("links.bridges"):
                bridges = {sub: minimal_bridges(model, sub) for sub in subs}
                single = has_single_crossing_bridges(model)
            tracer.count("links.bridges", sum(len(b) for b in bridges.values()))
            certificates = []
            if single and strong:
                for ineq in ineqs:
                    with tracer.span("certificates.partition"):
                        partition = build_trit_partition(model, ineq)
                    tracer.count("certificates.cells", len(partition.cells))
                    with tracer.span("certificates.indicator"):
                        table = compute_oracular_indicator(model, ineq)
                    with tracer.span("certificates.check"):
                        try:
                            cmap = derive_rhs_assignment(
                                model, ineq, union_cut_zero_assignment(partition), partition
                            )
                        except InconsistentAssignment:
                            certificates.append((ineq, partition, table, None, None))
                            continue
                        result = check_cut_contraction_certificate(model, ineq, cmap)
                    tracer.count("certificates.checks")
                    certificates.append((ineq, partition, table, cmap, result))
            mutated = []
            derived = [c for c in certificates if c[3] is not None]
            mrng = random.Random(mutation_seed)
            for _ in range(mutants if derived else 0):
                ineq, partition, _, cmap, _ = derived[mrng.randrange(len(derived))]
                images = dict(cmap.images)
                images[mrng.choice(sorted(images))] = (mrng.choice((-1, 0, 1)),)
                mutant = TritContractionMap(images=images, length=cmap.length, width=cmap.width)
                with tracer.span("certificates.check"):
                    try:
                        result = check_cut_contraction_certificate(model, ineq, mutant)
                    except (CertificateError, InconsistentAssignment):
                        result = None
                tracer.count("certificates.checks")
                mutated.append((ineq, partition, mutant, result))
            return cuts, bridges, single, strong, certificates, mutated

        def check(out):
            cuts, bridges, single, strong, certificates, mutated = out
            oracle = oracles.LinkOracle(fresh_link(spec))
            brute = oracle.min_cuts()
            entropies = {sub: weight for sub, (weight, _) in brute.items()}
            checked = 0
            crossing_once = True
            for sub, (weight, cut) in brute.items():
                expect(cuts[sub].weight == weight, f"min-cut weight of {sorted(sub)}")
                expect(cuts[sub].cut == oracle.names(cut), f"tie-broken cut of {sorted(sub)}")
                expected = oracle.minimal_bridges(oracle.interior(sub, cut), cut)
                expect(
                    sorted(oracle.mask(b) for b in bridges[sub]) == sorted(expected),
                    f"minimal bridges of {sorted(sub)} differ from enumeration",
                )
                crossing_once &= all(bin(b & cut).count("1") == 1 for b in expected)
                checked += 3
            expect(single == crossing_once, "single-crossing verdict differs from enumeration")
            ssa = all(
                entropies[x | y] + entropies[y | z] >= entropies[y] + entropies[x | y | z]
                for x in entropies
                for y in entropies
                for z in entropies
                if not x & y and not z & (x | y)
            )
            expect(strong == ssa, "strong-subadditivity verdict differs from oracle entropies")
            checked += 2
            for ineq, partition, table, cmap, result in certificates:
                for l, (sub, _) in enumerate(ineq.lhs):
                    credited = [e for e in table.entries if e.term_index == l]
                    weight, cut = brute[sub]
                    loops = [e.loop for e in credited]
                    expect(
                        len(loops) == len(set(loops)) and set(loops) == oracle.names(cut),
                        "indicator does not credit every min-cut loop once",
                    )
                    minimal = set(oracle.minimal_bridges(oracle.interior(sub, cut), cut))
                    expect(all(oracle.mask(e.bridge) in minimal for e in credited), "credited a non-minimal bridge")
                    checked += 2
                if cmap is None:
                    continue
                expect(result.ok, f"union-cut certificate rejected: {result.reason}")
                checked += 1 + check_certificate_outcome(oracle, entropies, ineq, cmap, partition, result)
            for ineq, partition, mutant, result in mutated:
                if result is not None:
                    checked += 1 + check_certificate_outcome(oracle, entropies, ineq, mutant, partition, result)
            return checked

        return Op(name, run, check)

    @staticmethod
    def _ray15_op(name, sep, certs, cert_seed, tracer) -> Op:
        def run():
            model = ray15_link()
            with tracer.span("links.min_cut"):
                direct = check_inequality_direct(model, sep)
            with tracer.span("certificates.partition"):
                partition = build_trit_partition(model, sep)
            tracer.count("certificates.cells", len(partition.cells))
            crng = random.Random(cert_seed)
            outcomes = []
            for _ in range(certs):
                images = {
                    cell: tuple(crng.choice((-1, 0, 1)) for _ in range(len(sep.rhs)))
                    for cell in sorted(partition.cells)
                }
                cmap = TritContractionMap(images=images, length=len(sep.lhs), width=len(sep.rhs))
                with tracer.span("certificates.check"):
                    try:
                        result = check_cut_contraction_certificate(model, sep, cmap)
                    except (CertificateError, InconsistentAssignment):
                        result = None
                tracer.count("certificates.checks")
                outcomes.append(result)
            return direct, outcomes

        def check(out):
            direct, outcomes = out
            lhs, rhs = oracles.RAY15_SEPARATING_SIDES
            expect(direct == (False, lhs, rhs), f"ray15 direct check gave {direct}")
            expect(all(r is None or not r.ok for r in outcomes), "a certificate passed for a violated inequality")
            return 1 + len(outcomes)

        return Op(name, run, check)


# ---------------------------------------------------------------------------
# contraction-search


class ContractionSearch:
    """`search_contraction_map` on SA, SSA, MMI and the ray15 separating inequality.

    Every input's parties are renamed by a seeded permutation before it is
    timed; renaming leaves the search isomorphic, so the check repeats the
    search once on the input as written and expects the same verdict and
    node count.
    """

    SIZES = {
        "full": dict(budgets={"graph": 1000, 3: 250, 4: 30}),
        "smoke": dict(budgets={"graph": 200, 3: 40, 4: 10}),
    }

    def setup(self, seed: int, size: str, tracer, workdir: str) -> list[Op]:
        cfg = self.SIZES[size]
        rng = random.Random(seed)
        modes = [("graph", None), ("hypergraph", 3), ("hypergraph", 4)]
        sep = parse_inequality(RAY15_SEPARATING_INEQUALITY, 5)
        logical = []
        for label, text, n in (("SA", SA_TEXT, 2), ("SSA", SSA_TEXT, 3), ("MMI", MMI_TEXT, 3)):
            for mode, rank in modes:
                logical.append((f"{label}-{mode}{rank or ''}", parse_inequality(text, n), mode, rank, None))
        for party in range(0, 6):
            ineq = sep if party == 0 else swap_with_purifier(sep, party)
            if party != 1:
                logical.append((f"sep-swap{party}-graph", ineq, "graph", None, None))
                continue
            for mode, rank in modes:
                budget = cfg["budgets"][rank or "graph"]
                logical.append((f"sep-swap1-{mode}{rank or ''}-budget", ineq, mode, rank, budget))
        ops = []
        for label, ineq, mode, rank, budget in logical:
            parties = list(range(1, ineq.n + 1))
            shuffled = parties[:]
            rng.shuffle(shuffled)
            text = serialize_inequality(relabel_parties(ineq, dict(zip(parties, shuffled))))
            ops.append(self._search_op(label, ineq, text, mode, rank, budget, tracer))
        return ops

    @staticmethod
    def _search_op(label, written, text, mode, rank, budget, tracer) -> Op:
        n = written.n
        span_name = "contraction.search." + (mode if rank is None else f"hypergraph{rank}")

        def run():
            ineq = parse_inequality(text, n)
            with tracer.span(span_name):
                result = search_contraction_map(ineq, mode=mode, rank=rank, budget=budget)
            tracer.count(span_name + ".nodes", result.nodes)
            report = None
            if result.status == FOUND:
                with tracer.span("contraction.check"):
                    if mode == "graph":
                        report = check_graph_contraction(result.mapping, ineq)
                    else:
                        report = check_hypergraph_contraction(result.mapping, ineq, rank)
            return ineq, result, report

        def check(out):
            ineq, result, report = out
            unrenamed = search_contraction_map(written, mode=mode, rank=rank, budget=budget)
            expect(
                (result.status, result.nodes, result.depth) == (unrenamed.status, unrenamed.nodes, unrenamed.depth),
                f"renaming the parties of {label} changes the search",
            )
            oracle = oracles.ContractionOracle(ineq)
            if budget is not None:
                expect(result.status == BUDGET_EXCEEDED and result.nodes > budget, f"{label} did not stop past its budget")
                return 2
            if result.status == FOUND:
                expect(report is not None and report.ok, f"library check rejects the map found for {label}")
                problem = oracle.check(oracle.encode(result.mapping), rank)
                expect(problem is None, f"map found for {label} fails the independent check: {problem}")
                return 3
            expect(result.status == NOT_FOUND, f"{label}: unexpected status {result.status}")
            confirmed = oracle.search(rank, CONFIRM_NODE_LIMIT)
            expect(confirmed == "not_found", f"independent search for {label} ends {confirmed}")
            if rank is not None and rank >= ineq.n + 1:
                expect(single_hyperedge_counterexample(ineq), f"no rank-{rank} counterexample for {label}")
            return 3

        return Op(label, run, check)


# ---------------------------------------------------------------------------
# models-cli


def _cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _sha256(path: str) -> str:
    with open(path, "rb") as handle:
        return "sha256:" + hashlib.sha256(handle.read()).hexdigest()


def _labeled(entropies: dict[frozenset[int], Fraction], n: int) -> list[list]:
    letters = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
    return [
        ["".join(letters[p - 1] for p in sorted(sub)), modelio.format_rational(entropies[sub])]
        for sub in oracles.subsystems(n)
    ]


def oracle_entropies(model) -> dict[frozenset[int], Fraction]:
    kind = type(model).__name__
    if kind == "WeightedGraph":
        return oracles.graph_entropies(model)
    if kind == "Hypergraph":
        return oracles.hypergraph_entropies(model)
    return {sub: w for sub, (w, _) in oracles.LinkOracle(model).min_cuts().items()}


class ModelsCli:
    """Graph and hypergraph vectors, conversions, file round trips and CLI runs."""

    SIZES = {
        "full": dict(
            graphs=12,
            hypergraphs=12,
            # six 10-hyperedge conversions hold the tail, so no single input decides it
            conversions=(6, 7, 9) + (10,) * 4 + (8,) * 7,
            cli_conversions=(6, 7, 8, 9, 10, 10),
            roundtrips=4,
            cli_models=2,
            certs=2,
        ),
        "smoke": dict(
            graphs=1, hypergraphs=1, conversions=(6,), cli_conversions=(6,), roundtrips=1, cli_models=1, certs=1
        ),
    }

    def setup(self, seed: int, size: str, tracer, workdir: str) -> list[Op]:
        cfg = self.SIZES[size]
        rng = random.Random(seed)
        sa2 = parse_inequality(SA_TEXT, 2)
        with tracer.span("generate.models"):
            graphs = [
                generate_graph(3, 8 + i % 3, 12 + 2 * (i % 5), seed=rng.randrange(2**31))
                for i in range(cfg["graphs"])
            ]
            hypergraphs = [
                generate_hypergraph(3, 8 + i % 2, 8 + i % 5, 4, seed=rng.randrange(2**31))
                for i in range(cfg["hypergraphs"])
            ]
            convertible = [
                generate_hypergraph(3, 7 + i % 2, edges, 4, seed=rng.randrange(2**31))
                for i, edges in enumerate(cfg["conversions"] + cfg["cli_conversions"])
            ]
            links = [
                generate_link_model(3, 10, 6, 2 + i % 3, seed=rng.randrange(2**31))
                for i in range(cfg["roundtrips"])
            ]
        cert_models = []
        while len(cert_models) < cfg["certs"]:
            with tracer.span("generate.models"):
                model = generate_link_model(2, rng.randint(7, 9), rng.randint(4, 7), 4, seed=rng.randrange(2**31))
            if not has_single_crossing_bridges(model):
                continue
            partition = build_trit_partition(model, sa2)
            try:
                cmap = derive_rhs_assignment(model, sa2, union_cut_zero_assignment(partition), partition)
            except InconsistentAssignment:
                continue
            cert_models.append((model, cmap))

        def path(name: str) -> str:
            return os.path.join(workdir, name)

        ops: list[Op] = []
        ops += [self._vector_op(f"graph-{i}", g, graph_entropy_vector, "graphs", tracer) for i, g in enumerate(graphs)]
        ops += [
            self._vector_op(f"hypergraph-{i}", h, hypergraph_entropy_vector, "hypergraphs", tracer)
            for i, h in enumerate(hypergraphs)
        ]
        direct_conversions = len(cfg["conversions"])
        ops += [self._convert_op(f"convert-{i}", h, tracer) for i, h in enumerate(convertible[:direct_conversions])]
        roundtrip = graphs[: cfg["roundtrips"]] + hypergraphs[: cfg["roundtrips"]] + links
        ops += [
            self._roundtrip_op(f"roundtrip-{i}", m, path(f"roundtrip-{i}.json"), tracer)
            for i, m in enumerate(roundtrip)
        ]

        with tracer.span("modelio.dump"):
            for name, text in (("sa.txt", SA_TEXT), ("ssa.txt", SSA_TEXT), ("mmi.txt", MMI_TEXT)):
                with open(path(name), "w", encoding="utf-8") as handle:
                    handle.write(text + "\n")
            files = []
            for kind, models in (("graph", graphs), ("hypergraph", hypergraphs), ("link", links)):
                for i, model in enumerate(models[: cfg["cli_models"]]):
                    modelio.save_model(model, path(f"cli-{kind}-{i}.json"))
                    files.append((path(f"cli-{kind}-{i}.json"), model))
            certificates = []
            for i, (model, cmap) in enumerate(cert_models):
                modelio.save_model(model, path(f"cert-{i}.json"))
                mrng = random.Random(rng.randrange(2**31))
                images = dict(cmap.images)
                images[mrng.choice(sorted(images))] = (mrng.choice((-1, 0, 1)),)
                mutant = TritContractionMap(images=images, length=cmap.length, width=cmap.width)
                for tag, m in (("union", cmap), ("mutant", mutant)):
                    with open(path(f"cert-{i}-{tag}.json"), "w", encoding="utf-8") as handle:
                        handle.write(modelio.dumps_json(modelio.trit_map_to_json(m)))
                    certificates.append((path(f"cert-{i}.json"), path(f"cert-{i}-{tag}.json"), model, m))
            converts = []
            for i, h in enumerate(convertible[direct_conversions:]):
                modelio.save_model(h, path(f"convert-{i}.json"))
                converts.append((path(f"convert-{i}.json"), path(f"converted-{i}.json"), h))

        for i, (file, model) in enumerate(files):
            ops.append(self._cli_vector_op(f"cli-entropy-vector-{i}", file, model, tracer))
            ineq_file = path("ssa.txt") if i % 2 == 0 else path("mmi.txt")
            text = SSA_TEXT if i % 2 == 0 else MMI_TEXT
            ops.append(self._cli_direct_op(f"cli-check-direct-{i}", file, ineq_file, text, model, tracer))
        for i, (model_file, map_file, model, cmap) in enumerate(certificates):
            ops.append(
                self._cli_certificate_op(
                    f"cli-check-cert-{i}", model_file, map_file, path("sa.txt"), model, cmap, sa2, tracer
                )
            )
        for i, (src, dst, h) in enumerate(converts):
            ops.append(self._cli_convert_op(f"cli-convert-{i}", src, dst, h, tracer))
        searches = [
            ("sa.txt", "graph", SA_TEXT, 2, None),
            ("ssa.txt", "hypergraph:3", SSA_TEXT, 3, 3),
            ("mmi.txt", "graph", MMI_TEXT, 3, None),
            ("mmi.txt", "hypergraph:4", MMI_TEXT, 3, 4),
        ]
        for i, (ineq_file, mode, text, n, rank) in enumerate(searches[: max(1, cfg["cli_models"] * 2)]):
            ops.append(
                self._cli_search_op(
                    f"cli-find-{i}", path(ineq_file), path(f"found-{i}.json"), mode, text, n, rank, tracer
                )
            )
        return ops

    # direct calls

    @staticmethod
    def _vector_op(name, model, solver, layer, tracer) -> Op:
        span_name = "graphs.flow" if layer == "graphs" else "hypergraphs.cut"
        fields = (model.vertices, model.external, model.edges if layer == "graphs" else model.hyperedges)
        cls = type(model)

        def run():
            fresh = cls(*fields)
            with tracer.span(span_name):
                vector = solver(fresh)
            tracer.count(layer + ".subsystems", len(vector.entries))
            return vector

        def check(vector):
            expected = oracle_entropies(model)
            expect(entropy_map(vector) == expected, f"{name}: vector differs from bipartition enumeration")
            return len(expected)

        return Op(name, run, check)

    @staticmethod
    def _convert_op(name, hypergraph, tracer) -> Op:
        fields = (hypergraph.vertices, hypergraph.external, hypergraph.hyperedges)

        def run():
            fresh = type(hypergraph)(*fields)
            with tracer.span("links.convert"):
                link = hypergraph_to_link(fresh)
            with tracer.span("links.min_cut"):
                vector = link_entropy_vector(link)
            tracer.count("links.min_cuts", len(vector.entries))
            return vector

        def check(vector):
            expected = oracles.hypergraph_entropies(hypergraph)
            expect(entropy_map(vector) == expected, f"{name}: converted link does not reproduce the hypergraph vector")
            return len(expected)

        return Op(name, run, check)

    @staticmethod
    def _roundtrip_op(name, model, file, tracer) -> Op:
        original = modelio.dumps_json(modelio.model_to_json(model))

        def run():
            with tracer.span("modelio.dump"):
                modelio.save_model(model, file)
            with tracer.span("modelio.load"):
                loaded = modelio.load_model(file)
            with tracer.span("modelio.dump"):
                text = modelio.dumps_json(modelio.model_to_json(loaded))
            tracer.count("modelio.bytes", 2 * len(text))
            return text

        def check(text):
            expect(text == original, f"{name}: emit-parse-emit is not a fixed point")
            expect(json.loads(text) == json.loads(original), f"{name}: reloaded model differs")
            return 2

        return Op(name, run, check)

    # CLI runs

    @staticmethod
    def _cli_op(name, argv, check, tracer) -> Op:
        def run():
            with tracer.span("cli.main"):
                code, out, err = _cli(argv)
            tracer.count("cli.commands")
            return code, out, err

        return Op(name, run, check)

    def _cli_vector_op(self, name, file, model, tracer) -> Op:
        def check(out):
            code, stdout, _ = out
            expect(code == cli.EXIT_OK, f"{name}: exit code {code}")
            report = json.loads(stdout)
            expect(report["digest"] == _sha256(file), f"{name}: digest differs")
            expect(report["vector"] == _labeled(oracle_entropies(model), model.n), f"{name}: vector differs from oracle")
            return 3

        return self._cli_op(name, ["entropy-vector", "--model", file], check, tracer)

    def _cli_direct_op(self, name, file, ineq_file, text, model, tracer) -> Op:
        def check(out):
            code, stdout, _ = out
            lhs, rhs = oracles.evaluate(parse_inequality(text, model.n), oracle_entropies(model))
            holds = lhs >= rhs
            expect(code == (cli.EXIT_OK if holds else cli.EXIT_VIOLATED), f"{name}: exit code {code}")
            word, sign = ("holds", ">=") if holds else ("violated", "<")
            expected = f"{word} {modelio.format_rational(lhs)} {sign} {modelio.format_rational(rhs)}\n"
            expect(stdout == expected, f"{name}: printed {stdout!r}, oracle gives {expected!r}")
            return 2

        return self._cli_op(name, ["check-ineq", "--model", file, "--ineq", ineq_file], check, tracer)

    def _cli_certificate_op(self, name, model_file, map_file, ineq_file, model, cmap, ineq, tracer) -> Op:
        def check(out):
            code, stdout, _ = out
            report = json.loads(stdout)
            direct = check_cut_contraction_certificate(model, ineq, cmap)
            expect(report["ok"] == direct.ok, f"{name}: CLI verdict differs from the direct call")
            expect(code == (cli.EXIT_OK if direct.ok else cli.EXIT_VIOLATED), f"{name}: exit code {code}")
            oracle = oracles.LinkOracle(model)
            entropies = {sub: w for sub, (w, _) in oracle.min_cuts().items()}
            partition = build_trit_partition(model, ineq)
            return 2 + check_certificate_outcome(oracle, entropies, ineq, cmap, partition, direct)

        argv = ["check-ineq", "--model", model_file, "--ineq", ineq_file, "--method", "certificate", "--map", map_file]
        return self._cli_op(name, argv, check, tracer)

    def _cli_convert_op(self, name, src, dst, hypergraph, tracer) -> Op:
        def check(out):
            code, stdout, _ = out
            expect(code == cli.EXIT_OK, f"{name}: exit code {code}")
            report = json.loads(stdout)
            expected = _labeled(oracles.hypergraph_entropies(hypergraph), hypergraph.n)
            expect(report["hypergraph_vector"] == expected, f"{name}: hypergraph vector differs from oracle")
            expect(report["link_vector"] == expected and report["equal"] is True, f"{name}: link vector differs")
            link = modelio.load_model(dst)
            expect(
                _labeled(oracle_entropies(link), link.n) == expected,
                f"{name}: written link does not reproduce the vector",
            )
            return 3

        return self._cli_op(name, ["convert", "--model", src, "--out", dst], check, tracer)

    def _cli_search_op(self, name, ineq_file, out_file, mode, text, n, rank, tracer) -> Op:
        def check(out):
            code, stdout, _ = out
            expect(code == cli.EXIT_OK, f"{name}: exit code {code}")
            ineq = parse_inequality(text, n)
            oracle = oracles.ContractionOracle(ineq)
            if stdout.startswith("NotFound"):
                confirmed = oracle.search(rank, CONFIRM_NODE_LIMIT)
                expect(confirmed == "not_found", f"{name}: independent search ends {confirmed}")
                if rank is not None and rank >= n + 1:
                    expect(single_hyperedge_counterexample(ineq), f"{name}: no counterexample confirms NotFound")
                return 2
            expect(stdout.startswith("found nodes="), f"{name}: unexpected output {stdout!r}")
            with open(out_file, "r", encoding="utf-8") as handle:
                mapping = modelio.bit_map_from_json(json.load(handle))
            problem = oracle.check(oracle.encode(mapping), rank)
            expect(problem is None, f"{name}: written map fails the independent check: {problem}")
            return 2

        argv = ["find-contraction", "--ineq", ineq_file, "--mode", mode, "--out", out_file]
        return self._cli_op(name, argv, check, tracer)


WORKLOADS = {
    "link-mincut": LinkMincut,
    "link-certify": LinkCertify,
    "contraction-search": ContractionSearch,
    "models-cli": ModelsCli,
}
