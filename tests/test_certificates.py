"""Trit partitions, the indicator table, and certificate checking."""

import dataclasses
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

import linkcone
from linkcone import certificates, links
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
from linkcone.core import parse_inequality, subsystem_label
from linkcone.generate import generate_bridge_regular_link_model, generate_link_model
from linkcone.links import (
    RAY15_SEPARATING_INEQUALITY,
    AtomicLinkages,
    LinkModel,
    StratificationError,
    link_entropy,
    link_min_cut,
    ray15_link,
)

from oracles import (
    reference_build_trit_partition,
    reference_check_cut_contraction_certificate,
    reference_credit_bridges,
    reference_derive_rhs_assignment,
)

SA2 = parse_inequality("S(A) + S(B) >= S(AB)", 2)


def separating_inequality():
    return parse_inequality(RAY15_SEPARATING_INEQUALITY, 5)


class TestTritPartition:
    def test_ray15_hub_trits(self):
        m = ray15_link()
        ineq = separating_inequality()
        part = build_trit_partition(m, ineq)
        # the weight-2 hub sits inside exactly the min-cuts that consist of it
        hub_cuts = [l for l, cut in enumerate(part.cuts) if cut.cut == frozenset({"w2"})]
        assert part.loop_trits["w2"] == tuple(
            0 if l in hub_cuts else (1 if "w2" in part.cuts[l].interior else -1)
            for l in range(len(ineq.lhs))
        )
        for l in hub_cuts:
            assert part.loop_trits["w2"][l] == 0

    def test_single_term_side_has_three_cells(self):
        m = ray15_link()
        ineq = parse_inequality("S(AB) >= S(A)", 5)
        part = build_trit_partition(m, ineq)
        assert set(part.cells) <= {(1,), (0,), (-1,)}
        cut = link_min_cut(m, frozenset({1, 2}))
        assert part.cells[(0,)] == cut.cut
        assert part.cells[(1,)] == cut.interior
        assert part.cells[(-1,)] == cut.exterior

    def test_cells_partition_and_reconstruct(self):
        for seed in range(30):
            m = generate_link_model(2, loops=6 + seed % 5, atoms=2 + seed % 6, max_arity=4,
                                    seed=seed)
            part = build_trit_partition(m, SA2)
            union = frozenset().union(*part.cells.values())
            assert union == frozenset(m.loops)
            assert sum(len(c) for c in part.cells.values()) == len(m.loops)
            for l in range(part.length):
                assert frozenset().union(
                    *(c for t, c in part.cells.items() if t[l] == 1)
                ) == part.cuts[l].interior
                assert frozenset().union(
                    *(c for t, c in part.cells.items() if t[l] == 0)
                ) == part.cuts[l].cut

    def test_unlinked_loops_get_all_minus_one(self):
        m = generate_link_model(2, loops=8, atoms=0, max_arity=2, seed=1)
        part = build_trit_partition(m, SA2)
        for loop in m.loops:
            if loop in m.external_loops:
                continue
            assert part.loop_trits[loop] == (-1, -1)


class TestIndicatorTable:
    def test_ray15_bcd_term_credits_hub_at_k3(self):
        m = ray15_link()
        ineq = separating_inequality()
        table = compute_oracular_indicator(m, ineq)
        bcd = [l for l, s in enumerate(ineq.lhs_subsystems) if subsystem_label(s) == "BCD"][0]
        credits = [e for e in table.entries if e.term_index == bcd and e.loop == "w2"]
        assert len(credits) == 1
        assert credits[0].bridge_size == 3 and credits[0].cover_size == 3
        assert table.coloring[bcd] == {"w2": "green"}

    def test_hub_in_larger_irreducible_sets_counted_once(self):
        # the hub participates in irreducible 4-sets, yet each term credits it once
        m = ray15_link()
        from linkcone.links import is_irreducible

        assert is_irreducible(m, {"A", "B", "u1", "w2"})
        table = compute_oracular_indicator(m, separating_inequality())
        for l in range(6):
            hub_credits = [e for e in table.entries if e.term_index == l and e.loop == "w2"]
            assert len(hub_credits) <= 1
            if hub_credits:
                assert hub_credits[0].bridge_size == 3

    def test_entries_respect_bit_conditions(self):
        for seed in range(20):
            m = generate_bridge_regular_link_model(2, loops=6 + seed % 4, atoms=2 + seed % 6,
                                                   max_arity=4, seed=seed)
            table = compute_oracular_indicator(m, SA2)
            for e in table.entries:
                head = e.cells[0]
                assert head[e.term_index] == 0
                others = [c[e.term_index] for c in e.cells[1:]]
                assert sum(abs(t) for t in [head[e.term_index]] + others) == e.cover_size - 1
                assert abs(sum(others)) <= e.cover_size - 3
                assert 3 <= e.cover_size <= e.bridge_size

    def test_converted_models_credit_everything_at_n3_k3(self):
        from linkcone.generate import generate_hypergraph
        from linkcone.links import hypergraph_to_link

        for seed in range(15):
            h = generate_hypergraph(2, vertices=4 + seed % 3, hyperedges=1 + seed % 5,
                                    max_arity=2, seed=seed)
            m = hypergraph_to_link(h)
            table = compute_oracular_indicator(m, SA2)
            for e in table.entries:
                assert (e.cover_size, e.bridge_size) == (3, 3)

    def test_credited_weights_reproduce_cut_weights(self):
        for seed in range(20):
            m = generate_bridge_regular_link_model(2, loops=6 + seed % 5, atoms=3 + seed % 5,
                                                   max_arity=4, seed=seed)
            table = compute_oracular_indicator(m, SA2)
            for l, cut in enumerate(table.partition.cuts):
                credited = sum(
                    (Fraction(m.weights[e.loop]) for e in table.entries if e.term_index == l),
                    Fraction(0),
                )
                assert credited == cut.weight == link_entropy(m, SA2.lhs_subsystems[l])

    def test_coloring_order_ignores_hash_seed(self):
        # each term's coloring lists its cut loops in declaration order
        script = (
            "from linkcone.certificates import compute_oracular_indicator\n"
            "from linkcone.core import parse_inequality\n"
            "from linkcone.generate import generate_bridge_regular_link_model\n"
            "m = generate_bridge_regular_link_model(3, loops=10, atoms=6, max_arity=4, seed=7)\n"
            "table = compute_oracular_indicator(m, parse_inequality('S(AB) + S(BC) >= S(B) + S(ABC)', 3))\n"
            "print([list(table.coloring[l]) for l in sorted(table.coloring)])\n"
        )
        src = str(Path(linkcone.__file__).parent.parent)
        orders = set()
        for seed in ("1", "2"):
            env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
            proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
            assert proc.returncode == 0, proc.stderr
            orders.add(proc.stdout)
        assert orders == {"[['u4', 'u5'], ['u2', 'u4']]\n"}

    def test_crediting_mismatch_raises_runtime_error(self, monkeypatch):
        # a cut whose reported weight disagrees with its loops must stop the
        # crediting with an exception that `python -O` cannot strip
        def heavier_cut(model, subsystem):
            cut = link_min_cut(model, subsystem)
            return dataclasses.replace(cut, weight=cut.weight + 1)

        monkeypatch.setattr(certificates, "link_min_cut", heavier_cut)
        with pytest.raises(RuntimeError, match="credited loop weights must add up"):
            compute_oracular_indicator(ray15_link(), separating_inequality())


class TestDeriveAssignment:
    def test_hub_cell_as_single_rhs_cut(self):
        # LHS of the separating inequality, single RHS term whose min-cut is the hub
        m = ray15_link()
        ineq = parse_inequality(
            "S(AB) + S(DE) + S(ACD) + 2 S(ACE) + S(BCD) + S(ABDE) >= S(AC)", 5
        )
        part = build_trit_partition(m, ineq)
        hub_cell = part.loop_trits["w2"]
        cmap = derive_rhs_assignment(m, ineq, {hub_cell: {0}}, part)
        assert cmap.images[hub_cell] == (0,)
        assert derive_rhs_assignment(m, ineq, {hub_cell: {0}}) == cmap  # builds its own partition
        assert derive_rhs_assignment(m, ineq, {hub_cell: {0}}, dataclasses.replace(part)) == cmap
        ac_cut = link_min_cut(m, frozenset({1, 3}))
        plus = frozenset().union(*(c for t, c in part.cells.items() if cmap.images[t] == (1,)))
        minus = frozenset().union(*(c for t, c in part.cells.items() if cmap.images[t] == (-1,)))
        assert plus == ac_cut.interior
        assert minus == ac_cut.exterior

    def test_empty_zeros_for_linked_term_inconsistent(self):
        m = ray15_link()
        ineq = parse_inequality("S(AB) + S(DE) >= S(AC)", 5)
        part = build_trit_partition(m, ineq)
        with pytest.raises(InconsistentAssignment):
            derive_rhs_assignment(m, ineq, {}, part)

    def test_all_internal_cells_zero_is_maximal_cut(self):
        for seed in range(10):
            m = generate_link_model(2, loops=7, atoms=2 + seed % 5, max_arity=3, seed=seed)
            part = build_trit_partition(m, SA2)
            zeros = {
                cell: {0}
                for cell, members in part.cells.items()
                if all(x not in m.external_loops and m.is_finite(x) for x in members)
            }
            cmap = derive_rhs_assignment(m, SA2, zeros, part)
            assert all(len(img) == 1 for img in cmap.images.values())

    def test_zeros_on_external_cell_inconsistent(self):
        m = ray15_link()
        ineq = parse_inequality("S(AB) + S(DE) >= S(AC)", 5)
        part = build_trit_partition(m, ineq)
        a_cell = part.loop_trits["A"]
        with pytest.raises(InconsistentAssignment):
            derive_rhs_assignment(m, ineq, {a_cell: {0}}, part)

    def test_unknown_cell_rejected(self):
        m = ray15_link()
        ineq = parse_inequality("S(AB) >= S(A)", 5)
        part = build_trit_partition(m, ineq)
        with pytest.raises(CertificateError):
            derive_rhs_assignment(m, ineq, {(1, 1): {0}}, part)


def _sa_certificate(model, ineq=SA2):
    part = build_trit_partition(model, ineq)
    zeros = union_cut_zero_assignment(part)
    return derive_rhs_assignment(model, ineq, zeros, part)


class TestCertificateCheck:
    def test_sa_union_certificate_passes(self):
        passes = 0
        for seed in range(40):
            m = generate_bridge_regular_link_model(2, loops=6 + seed % 5, atoms=3 + seed % 5,
                                                   max_arity=4, seed=seed)
            try:
                cmap = _sa_certificate(m)
            except InconsistentAssignment:
                continue
            result = check_cut_contraction_certificate(m, SA2, cmap)
            assert result.ok, (seed, result.reason)
            holds, _, _ = check_inequality_direct(m, SA2)
            assert holds
            passes += 1
        assert passes >= 30

    def test_all_plus_map_fails_for_linked_term(self):
        m = ray15_link()
        ineq = parse_inequality("S(AB) + S(DE) >= S(AC)", 5)
        part = build_trit_partition(m, ineq)
        cmap = TritContractionMap(
            images={cell: (1,) for cell in part.cells}, length=2, width=1
        )
        result = check_cut_contraction_certificate(m, ineq, cmap)
        assert not result.ok

    def test_undefined_cell_raises(self):
        m = generate_bridge_regular_link_model(2, loops=6, atoms=3, max_arity=3, seed=5)
        part = build_trit_partition(m, SA2)
        cmap = _sa_certificate(m)
        images = dict(cmap.images)
        images.pop(next(iter(part.cells)))
        broken = TritContractionMap(images=images, length=2, width=1)
        with pytest.raises(CertificateError):
            check_cut_contraction_certificate(m, SA2, broken)

    def test_wrong_width_raises(self):
        m = generate_bridge_regular_link_model(2, loops=6, atoms=3, max_arity=3, seed=5)
        images = {cell: img * 2 for cell, img in _sa_certificate(m).images.items()}
        with pytest.raises(CertificateError, match="^map dimensions do not match the inequality$"):
            check_cut_contraction_certificate(m, SA2, TritContractionMap(images=images, length=2, width=2))

    def test_passing_certificate_bounds_rhs_entropy(self):
        m = ray15_link()
        ineq = parse_inequality("S(AB) + S(C) >= S(ABC)", 5)
        part = build_trit_partition(m, ineq)
        zeros = union_cut_zero_assignment(part)
        cmap = derive_rhs_assignment(m, ineq, zeros, part)
        result = check_cut_contraction_certificate(m, ineq, cmap, exhaustive=True)
        assert result.ok
        d = result.diagnostics
        assert d["lhs_cut_weight"] >= d["rhs_cut_weight"] >= d["rhs_entropy"]
        holds, _, _ = check_inequality_direct(m, ineq)
        assert holds

    def test_mutated_certificates_never_unsound(self):
        rng = random.Random(0)
        unsound = 0
        for seed in range(60):
            m = generate_bridge_regular_link_model(2, loops=6 + seed % 4, atoms=3 + seed % 5,
                                                   max_arity=4, seed=seed)
            try:
                cmap = _sa_certificate(m)
            except InconsistentAssignment:
                continue
            images = dict(cmap.images)
            cell = rng.choice(sorted(images))
            images[cell] = (rng.choice([-1, 0, 1]),)
            mutant = TritContractionMap(images=images, length=2, width=1)
            try:
                result = check_cut_contraction_certificate(m, SA2, mutant)
            except (CertificateError, InconsistentAssignment):
                continue
            if result.ok:
                holds, _, _ = check_inequality_direct(m, SA2)
                if not holds:
                    unsound += 1
        assert unsound == 0

    def test_no_certificate_passes_for_violated_inequality(self):
        # the separating inequality is false on the ray-15 link, so every
        # candidate map must be rejected
        m = ray15_link()
        ineq = separating_inequality()
        part = build_trit_partition(m, ineq)
        cells = sorted(part.cells)
        rng = random.Random(1)
        for _ in range(150):
            images = {cell: tuple(rng.choice([-1, 0, 1]) for _ in range(5)) for cell in cells}
            cmap = TritContractionMap(images=images, length=6, width=5)
            try:
                result = check_cut_contraction_certificate(m, ineq, cmap)
            except (CertificateError, InconsistentAssignment):
                continue
            assert not result.ok

    def test_direct_check_values(self):
        m = ray15_link()
        assert check_inequality_direct(m, separating_inequality()) == (False, 11, 12)
        holds, lhs, rhs = check_inequality_direct(m, parse_inequality("S(A) + S(B) >= S(AB)", 5))
        assert holds and lhs == 2 and rhs == 1


class TestCheckMatchesReference:
    """The tabulated per-tuple check reports exactly what the summing reference reports."""

    @staticmethod
    def _reference_indicator(model, ineq):
        return reference_credit_bridges(model, ineq, reference_build_trit_partition(model, ineq))

    INEQS = {
        2: ["S(A) + S(B) >= S(AB)", "1/2 S(A) + 3 S(B) >= 3/2 S(AB)", "S(A) + S(B) >= 2 S(AB)",
            "2/3 S(A) + 2/3 S(B) >= S(AB)"],
        3: ["S(A) + S(B) >= S(AB)", "S(AB) + S(C) >= S(ABC)", "S(AB) + 1/2 S(C) >= 4/3 S(ABC)",
            "S(AB) + S(BC) >= S(B) + S(ABC)"],
    }

    @staticmethod
    def _report(check, model, ineq, cmap, exhaustive):
        result = check(model, ineq, cmap, exhaustive=exhaustive)
        return result.ok, result.reason, result.violation, result.diagnostics

    @staticmethod
    def _zero_sets(part, ineq, rng):
        """The union-cut zeros (single RHS term only) and five random zero sets."""
        zero_sets = [union_cut_zero_assignment(part)] if len(ineq.rhs) == 1 else []
        for _ in range(5):
            zero_sets.append({c: {r for r in range(len(ineq.rhs)) if rng.random() < 0.4} for c in sorted(part.cells)})
        return zero_sets

    @classmethod
    def _maps(cls, model, ineq, rng):
        """The union-cut map, maps derived from random zeros, and one single-cell mutant of each."""
        part = build_trit_partition(model, ineq)
        cells = sorted(part.cells)
        zero_sets = cls._zero_sets(part, ineq, rng)
        maps = []
        for zeros in zero_sets:
            try:
                maps.append(derive_rhs_assignment(model, ineq, zeros, part))
            except InconsistentAssignment:
                pass
        for cmap in list(maps):
            images = dict(cmap.images)
            images[rng.choice(cells)] = tuple(rng.choice((-1, 0, 1)) for _ in range(cmap.width))
            maps.append(TritContractionMap(images=images, length=cmap.length, width=cmap.width))
        return maps

    @pytest.mark.parametrize("exhaustive", [False, True])
    def test_reports_equal(self, exhaustive):
        rng = random.Random(3)
        outcomes = set()
        for seed in range(24):
            parties = 2 + seed % 2
            m = generate_bridge_regular_link_model(parties, loops=7 + seed % 5, atoms=3 + seed % 5,
                                                   max_arity=4, seed=seed)
            for text in self.INEQS[parties]:
                ineq = parse_inequality(text, parties)
                for cmap in self._maps(m, ineq, rng):
                    expected = self._report(reference_check_cut_contraction_certificate, m, ineq, cmap, exhaustive)
                    assert self._report(check_cut_contraction_certificate, m, ineq, cmap, exhaustive) == expected
                    outcomes.add("ok" if expected[0] else "violation" if expected[2] else "rejected")
        assert outcomes == {"ok", "violation", "rejected"}

    def test_derive_matches_reference(self):
        # the same models and zero sets, plus zeros on an empty cell and on a term out of range
        rng = random.Random(3)
        outcomes = set()
        for seed in range(24):
            parties = 2 + seed % 2
            m = generate_bridge_regular_link_model(parties, loops=7 + seed % 5, atoms=3 + seed % 5,
                                                   max_arity=4, seed=seed)
            for text in self.INEQS[parties]:
                ineq = parse_inequality(text, parties)
                part = build_trit_partition(m, ineq)
                reference = reference_build_trit_partition(m, ineq)
                assert (part, list(part.cells)) == (reference, list(reference.cells))
                assert compute_oracular_indicator(m, ineq) == reference_credit_bridges(m, ineq, reference)
                empty = next(c for c in product((-1, 0, 1), repeat=part.length) if c not in part.cells)
                zero_sets = self._zero_sets(part, ineq, rng) + [{empty: {0}}, {min(part.cells): {len(ineq.rhs)}}]
                for zeros in zero_sets:
                    outcome = []
                    for derive in (derive_rhs_assignment, reference_derive_rhs_assignment):
                        try:
                            outcome.append(derive(m, ineq, zeros, part).images)
                        except (CertificateError, InconsistentAssignment) as exc:
                            outcome.append((type(exc), str(exc)))
                    assert outcome[0] == outcome[1]
                    outcomes.add("map" if isinstance(outcome[0], dict) else outcome[0][0].__name__)
        assert outcomes == {"map", "CertificateError", "InconsistentAssignment"}

    def test_indicator_matches_reference_on_irregular_models(self):
        # models that are not bridge-regular: a bridge may cross a min-cut
        # twice, and with zero weights a cut loop may lie in no minimal
        # bridge; either error must read as the reference's
        outcomes = set()
        for seed in range(40):
            parties = 2 + seed % 2
            spec = dict(loops=7 + seed % 5, atoms=3 + seed % 5, max_arity=2 + seed % 3, seed=seed)
            weights = (0, 1, 2) if seed % 2 else (1, 2, 3, 4)
            try:
                m = generate_link_model(parties, weight_choices=weights, **spec)
            except ValueError:  # too few candidate atoms for the spec
                continue
            for text in self.INEQS[parties]:
                ineq = parse_inequality(text, parties)
                outcome = []
                for credit in (compute_oracular_indicator, self._reference_indicator):
                    try:
                        outcome.append(credit(m, ineq))
                    except (ValueError, RuntimeError) as exc:
                        outcome.append((type(exc), str(exc)))
                assert outcome[0] == outcome[1], (seed, text)
                # an error message starts "minimal bridge" or "min-cut loops"
                outcomes.add(outcome[0][1].split()[0] if isinstance(outcome[0], tuple) else "table")
        assert outcomes == {"table", "minimal", "min-cut"}


def series_crossing_model() -> LinkModel:
    """A declared chain B-u3-u0-C: one minimal bridge of S(B) crosses its min-cut twice."""
    return LinkModel(
        loops=("A", "B", "C", "D", "u0", "u1", "u3"),
        weights={"A": 1, "B": 1, "C": 1, "D": 1, "u0": 2, "u1": 3, "u3": 4},
        external={1: "A", 2: "B", 3: "C", 4: "D"},
        structure=AtomicLinkages((
            frozenset({"B", "u1"}), frozenset({"B", "u3"}), frozenset({"C", "u0"}),
            frozenset({"D", "u3"}), frozenset({"u0", "u1"}), frozenset({"u0", "u3"}),
        )),
    )


class TestCertificateCache:
    """Partitions and indicator tables are built once per model and LHS and shared."""

    @staticmethod
    def _count_builds(monkeypatch):
        counts = {"partition": 0, "crediting": 0}
        build, credit = certificates._build_partition, certificates._credit_bridges

        def counted_build(*args):
            counts["partition"] += 1
            return build(*args)

        def counted_credit(*args):
            counts["crediting"] += 1
            return credit(*args)

        monkeypatch.setattr(certificates, "_build_partition", counted_build)
        monkeypatch.setattr(certificates, "_credit_bridges", counted_credit)
        return counts

    def test_one_build_and_one_crediting_per_model_and_lhs(self, monkeypatch):
        counts = self._count_builds(monkeypatch)
        m = generate_bridge_regular_link_model(3, loops=10, atoms=6, max_arity=4, seed=2)
        ineq = parse_inequality("S(AB) + 1/2 S(C) >= 4/3 S(ABC)", 3)
        part = build_trit_partition(m, ineq)
        table = compute_oracular_indicator(m, ineq)
        derive_rhs_assignment(m, ineq, union_cut_zero_assignment(part))
        rng = random.Random(2)
        maps = []
        while len(maps) < 40:
            maps += TestCheckMatchesReference._maps(m, ineq, rng)
        reports = [check_cut_contraction_certificate(m, ineq, cmap) for cmap in maps[:40]]
        assert counts == {"partition": 1, "crediting": 1}
        assert build_trit_partition(m, ineq) is part and compute_oracular_indicator(m, ineq) is table
        # some checks got past check 1: to a pass or to a violated covering tuple
        assert any(report.ok for report in reports) and any(report.violation for report in reports)

    def test_query_order_and_shared_lhs_match_reference(self):
        # checks on a cold model, before any build, and inequalities sharing
        # their LHS terms (some with other coefficients) report as the reference
        texts = [
            "S(AB) + S(BC) >= S(B) + S(ABC)",
            "S(AB) + S(BC) >= S(ABC)",
            "S(AB) + 1/2 S(C) >= 4/3 S(ABC)",
            "S(AB) + 1/2 S(C) >= S(ABC)",
            "S(AB) + S(C) >= 4/3 S(ABC)",
        ]
        rng = random.Random(4)
        outcomes = set()
        for seed in range(12):
            spec = dict(loops=8 + seed % 4, atoms=3 + seed % 5, max_arity=4, seed=seed)
            m, shadow = (generate_bridge_regular_link_model(3, **spec) for _ in range(2))
            for text in texts:
                ineq = parse_inequality(text, 3)
                maps = TestCheckMatchesReference._maps(shadow, ineq, rng)
                for cmap in maps:
                    expected = reference_check_cut_contraction_certificate(m, ineq, cmap)
                    result = check_cut_contraction_certificate(m, ineq, cmap)
                    assert result == expected, (seed, text)
                    outcomes.add("ok" if result.ok else "violation" if result.violation else "rejected")
                part, cold = build_trit_partition(m, ineq), build_trit_partition(shadow, ineq)
                assert (part, list(part.cells)) == (cold, list(cold.cells))
                assert compute_oracular_indicator(m, ineq) == reference_credit_bridges(
                    m, ineq, reference_build_trit_partition(m, ineq)
                )
        assert outcomes == {"ok", "violation", "rejected"}

    def test_warm_checks_do_no_name_work(self, monkeypatch):
        # a warm check reads each RHS term's external masks from the model's
        # cache and builds a term's label only for a message that names it
        m = generate_bridge_regular_link_model(3, loops=10, atoms=6, max_arity=4, seed=2)
        ineq = parse_inequality("S(AB) + 1/2 S(C) >= 4/3 S(ABC)", 3)
        maps = TestCheckMatchesReference._maps(m, ineq, random.Random(5))
        expected = [check_cut_contraction_certificate(m, ineq, cmap) for cmap in maps]
        calls = []
        for module, name in ((links, "_mask_of"), (certificates, "subsystem_label")):
            original = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *args, _f=original, _n=name: calls.append(_n) or _f(*args))
        assert [check_cut_contraction_certificate(m, ineq, cmap) for cmap in maps] == expected
        named = [report for report in expected if "RHS term" in (report.reason or "")]
        assert named and any(report.ok for report in expected)
        assert calls == ["subsystem_label"] * len(named)

    def test_crediting_does_no_name_work(self, monkeypatch):
        # with the partition (and so the LHS min-cuts) built, a cold crediting
        # works on loop masks: bridges, cut hits, order keys and gray loops
        m, shadow = (generate_bridge_regular_link_model(3, loops=10, atoms=6, max_arity=4, seed=2) for _ in range(2))
        ineq = parse_inequality("S(AB) + S(BC) >= S(B) + S(ABC)", 3)
        part = build_trit_partition(m, ineq)
        expected = TestCheckMatchesReference._reference_indicator(shadow, ineq)
        calls = []
        for owner, name in ((links, "_mask_of"), (LinkModel, "loop_index")):
            original = getattr(owner, name)
            monkeypatch.setattr(owner, name, lambda *args, _f=original, _n=name: calls.append(_n) or _f(*args))
        table = compute_oracular_indicator(m, ineq)
        assert table.partition is part and table.entries
        assert table == expected
        assert calls == []

    def test_shared_results_are_read_only(self):
        # a caller's mutation would reach every later caller of the cache, so it raises
        m = ray15_link()
        ineq = parse_inequality("S(AB) + S(C) >= S(ABC)", 5)
        part = build_trit_partition(m, ineq)
        table = compute_oracular_indicator(m, ineq)
        cell = next(iter(part.cells))
        with pytest.raises(TypeError):
            del part.cells[cell]
        with pytest.raises(TypeError):
            part.loop_trits["w2"] = cell
        with pytest.raises(AttributeError):  # a read-only mapping has no `clear`
            table.coloring.clear()
        with pytest.raises(TypeError):
            del table.coloring[0]
        with pytest.raises(TypeError):
            table.coloring[0]["w2"] = "gray"
        assert len(build_trit_partition(m, ineq).cells) == 5
        assert compute_oracular_indicator(m, ineq).coloring
        assert all(compute_oracular_indicator(m, ineq).coloring.values())

    def test_party_count_mismatch_raises_on_a_warm_cache(self):
        m = ray15_link()
        five = parse_inequality("S(A) + S(B) >= S(AB)", 5)
        part = build_trit_partition(m, five)
        cmap = derive_rhs_assignment(m, five, union_cut_zero_assignment(part))
        assert check_cut_contraction_certificate(m, five, cmap).ok
        compute_oracular_indicator(m, five)
        four = parse_inequality("S(A) + S(B) >= S(AB)", 4)  # the same LHS terms
        message = "^party-count mismatch: inequality n=4, model n=5$"
        for call in (
            lambda: build_trit_partition(m, four),
            lambda: compute_oracular_indicator(m, four),
            lambda: derive_rhs_assignment(m, four, {}),
            lambda: check_cut_contraction_certificate(m, four, cmap),
            lambda: check_inequality_direct(m, four),
        ):
            with pytest.raises(ValueError, match=message):
                call()

    def test_stratification_error_raises_on_every_call(self):
        m = series_crossing_model()
        ineq = parse_inequality("S(B) + S(C) >= S(BC)", 3)
        cmap = derive_rhs_assignment(m, ineq, union_cut_zero_assignment(build_trit_partition(m, ineq)))
        message = r"^minimal bridge \['B', 'C', 'u0', 'u3'\] meets the min-cut of B in 2 loops$"
        for _ in range(2):
            with pytest.raises(StratificationError, match=message):
                compute_oracular_indicator(m, ineq)
            with pytest.raises(StratificationError, match=message):
                check_cut_contraction_certificate(m, ineq, cmap)

    def test_replace_starts_cold(self, monkeypatch):
        counts = self._count_builds(monkeypatch)
        m = ray15_link()
        ineq = parse_inequality("S(AB) + S(C) >= S(ABC)", 5)
        table = compute_oracular_indicator(m, ineq)
        copy = dataclasses.replace(m)
        assert compute_oracular_indicator(copy, ineq) == table
        assert compute_oracular_indicator(copy, ineq) is not table
        assert counts == {"partition": 2, "crediting": 2}
        # a heavier u1 moves the cut of AB to the hub
        heavier = dataclasses.replace(m, weights=dict(m.weights, u1=Fraction(7)))
        fresh = LinkModel(m.loops, dict(m.weights, u1=Fraction(7)), m.external, m.structure)
        assert build_trit_partition(heavier, ineq) == build_trit_partition(fresh, ineq) != table.partition
