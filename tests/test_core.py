"""Core vocabulary: parsing, bitstrings, norms, vectors."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linkcone.core import (
    EntropyVector,
    InequalityParseError,
    LinearInequality,
    all_subsystems,
    complement_subsystem,
    evaluate_inequality,
    mixed_indicator,
    occurrence_bitstrings,
    parse_inequality,
    serialize_inequality,
    subsystem_from_letters,
    subsystem_label,
    weighted_hamming_norm,
)

RAY15_ENTRIES = (1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 2, 2, 1) + (2,) * 10 + (2, 2, 1, 2, 2, 1)
SEPARATING = (
    "S(AB) + S(DE) + S(ACD) + 2 S(ACE) + S(BCD) + S(ABDE)"
    " >= S(AC) + S(AE) + S(BD) + 2 S(ABCD) + S(ACDE)"
)


def ray15_vector() -> EntropyVector:
    return EntropyVector(5, tuple(Fraction(e) for e in RAY15_ENTRIES))


class TestParsing:
    def test_subadditivity(self):
        ineq = parse_inequality("S(A) + S(B) >= S(AB)", 2)
        assert ineq.lhs == ((frozenset({1}), 1), (frozenset({2}), 1))
        assert ineq.rhs == ((frozenset({1, 2}), 1),)

    def test_five_party_separating_inequality(self):
        ineq = parse_inequality(SEPARATING, 5)
        assert len(ineq.lhs) == 6 and len(ineq.rhs) == 5
        assert ineq.lhs_coeffs == (1, 1, 1, 2, 1, 1)
        assert ineq.rhs_coeffs == (1, 1, 1, 2, 1)
        assert [subsystem_label(s) for s in ineq.lhs_subsystems] == [
            "AB", "DE", "ACD", "ACE", "BCD", "ABDE",
        ]

    def test_party_outside_range(self):
        with pytest.raises(InequalityParseError):
            parse_inequality("S(F) >= S(A)", 5)

    def test_purifier_letter_rejected(self):
        with pytest.raises(InequalityParseError):
            parse_inequality("S(C) >= S(A)", 2)

    def test_malformed(self):
        for text in ["S(A) >", "S(A) >= ", " >= S(A)", "S() >= S(A)", "0 S(A) >= S(B)",
                     "S(A) >= S(B) >= S(C)", "T(A) >= S(B)"]:
            with pytest.raises(InequalityParseError):
                parse_inequality(text, 3)

    def test_zero_denominator_is_a_parse_error(self):
        for text in ("1/0 S(A) + S(B) >= S(AB)", "S(A) + S(B) >= 0/0 * S(AB)"):
            with pytest.raises(InequalityParseError, match="zero denominator"):
                parse_inequality(text, 2)

    @pytest.mark.parametrize(
        "lhs, rhs, message",
        [
            ((), ((frozenset({1, 2}), 1),), "lhs must contain at least one term"),
            (((frozenset({1}), 1),), ((frozenset({3}), 1),), "bad subsystem {3} for n=2"),
            (((frozenset({1}), 0),), ((frozenset({1, 2}), 1),), "coefficients must be strictly positive"),
            (((frozenset({1}), 1), (frozenset({1}), 2)), ((frozenset({1, 2}), 1),), "subsystem A repeated on lhs"),
        ],
    )
    def test_inequality_rejects_bad_terms(self, lhs, rhs, message):
        # built directly, past the parser, which merges repeats and rejects the rest itself
        with pytest.raises(ValueError) as raised:
            LinearInequality(2, lhs, rhs)
        assert str(raised.value) == message

    def test_duplicate_terms_merge(self):
        ineq = parse_inequality("S(A) + 2 S(A) >= S(AB)", 2)
        assert ineq.lhs == ((frozenset({1}), 3),)

    def test_fraction_coefficients(self):
        ineq = parse_inequality("1/2 S(A) + 3/2 S(B) >= S(AB)", 2)
        assert ineq.lhs_coeffs == (Fraction(1, 2), Fraction(3, 2))

    def test_round_trip(self):
        for text, n in [("S(A) + S(B) >= S(AB)", 2), (SEPARATING, 5),
                        ("1/2 S(A) >= 1/3 S(A)", 1)]:
            ineq = parse_inequality(text, n)
            again = parse_inequality(serialize_inequality(ineq), n)
            assert again == ineq
            assert serialize_inequality(again) == serialize_inequality(ineq)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_round_trip_random_inequalities(self, data):
        n = data.draw(st.integers(1, 5))
        subs = list(all_subsystems(n))
        coeff = st.fractions(min_value=Fraction(1, 9), max_value=9, max_denominator=9)

        def side(label):
            picked = data.draw(
                st.lists(st.sampled_from(subs), min_size=1, max_size=4, unique=True),
                label=label,
            )
            return " + ".join(
                f"{data.draw(coeff)} S({subsystem_label(s)})" for s in picked
            )

        text = f"{side('lhs')} >= {side('rhs')}"
        ineq = parse_inequality(text, n)
        assert parse_inequality(serialize_inequality(ineq), n) == ineq
        xs, ys = occurrence_bitstrings(ineq)
        assert len(xs) == len(ys) == n + 1
        assert all(len(x) == len(ineq.lhs) for x in xs)
        assert all(len(y) == len(ineq.rhs) for y in ys)
        assert xs[-1] == (0,) * len(ineq.lhs)
        assert ys[-1] == (0,) * len(ineq.rhs)


class TestOccurrenceBitstrings:
    def test_subadditivity(self):
        ineq = parse_inequality("S(A) + S(B) >= S(AB)", 2)
        xs, ys = occurrence_bitstrings(ineq)
        assert xs == ((1, 0), (0, 1), (0, 0))
        assert ys == ((1,), (1,), (0,))

    def test_separating_inequality_party_a(self):
        ineq = parse_inequality(SEPARATING, 5)
        xs, ys = occurrence_bitstrings(ineq)
        assert xs[0] == (1, 0, 1, 1, 0, 1)
        assert ys[0] == (1, 1, 0, 1, 1)

    def test_purifier_all_zero(self):
        for text, n in [("S(A) + S(B) >= S(AB)", 2), (SEPARATING, 5)]:
            ineq = parse_inequality(text, n)
            xs, ys = occurrence_bitstrings(ineq)
            assert xs[-1] == (0,) * len(ineq.lhs)
            assert ys[-1] == (0,) * len(ineq.rhs)
            assert len(xs) == n + 1
            assert all(len(x) == len(ineq.lhs) for x in xs)
            assert all(len(y) == len(ineq.rhs) for y in ys)


class TestNormsAndIndicator:
    def test_examples(self):
        assert weighted_hamming_norm((1, 0, 1), (1, 2, 3)) == 4
        assert weighted_hamming_norm((0, 0), (5, 7)) == 0
        assert weighted_hamming_norm((1, -1), (Fraction(1, 2), Fraction(3, 2))) == 2

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            weighted_hamming_norm((1, 0), (1,))

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(-3, 3), min_size=1, max_size=6),
        st.lists(st.integers(-3, 3), min_size=1, max_size=6),
        st.lists(st.integers(0, 5), min_size=1, max_size=6),
    )
    def test_triangle_inequality_and_definiteness(self, xs, ys, gamma):
        size = min(len(xs), len(ys), len(gamma))
        xs, ys, gamma = xs[:size], ys[:size], gamma[:size]
        total = [a + b for a, b in zip(xs, ys)]
        assert weighted_hamming_norm(total, gamma) <= (
            weighted_hamming_norm(xs, gamma) + weighted_hamming_norm(ys, gamma)
        )
        if all(g > 0 for g in gamma):
            assert (weighted_hamming_norm(xs, gamma) == 0) == all(x == 0 for x in xs)

    def test_indicator_examples(self):
        assert mixed_indicator((0, 0, 0)) == 0
        assert mixed_indicator((1, 1, 1)) == 0
        assert mixed_indicator((1, 0, 1)) == 1

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 1), min_size=1, max_size=8))
    def test_indicator_flip_symmetry(self, bits):
        flipped = [1 - b for b in bits]
        assert mixed_indicator(bits) == mixed_indicator(flipped)


class TestEvaluationAndComplements:
    def test_separating_inequality_on_ray15(self):
        ineq = parse_inequality(SEPARATING, 5)
        holds, lhs, rhs = evaluate_inequality(ineq, ray15_vector())
        assert (holds, lhs, rhs) == (False, 11, 12)

    def test_subadditivity_simple(self):
        ineq = parse_inequality("S(A) + S(B) >= S(AB)", 2)
        vec = EntropyVector(2, (Fraction(1), Fraction(1), Fraction(1)))
        assert evaluate_inequality(ineq, vec) == (True, 2, 1)

    def test_ssa_equality_case(self):
        ineq = parse_inequality("S(AB) + S(BC) >= S(B) + S(ABC)", 3)
        vec = EntropyVector(3, (Fraction(1),) * 7)
        assert evaluate_inequality(ineq, vec) == (True, 2, 2)

    def test_party_count_mismatch(self):
        ineq = parse_inequality("S(A) >= S(A)", 1)
        with pytest.raises(ValueError):
            evaluate_inequality(ineq, ray15_vector())

    def test_complements(self):
        assert complement_subsystem(frozenset({1, 2, 4, 5}), 5) == frozenset({3, 6})
        assert complement_subsystem(frozenset({1}), 2) == frozenset({2, 3})
        assert complement_subsystem(frozenset({1, 2, 3}), 3) == frozenset({4})

    def test_canonical_order(self):
        labels = [subsystem_label(s) for s in all_subsystems(3)]
        assert labels == ["A", "B", "C", "AB", "AC", "BC", "ABC"]

    def test_vector_validation(self):
        with pytest.raises(ValueError):
            EntropyVector(2, (Fraction(1), Fraction(1)))
        with pytest.raises(ValueError):
            EntropyVector(1, (Fraction(-1),))

    def test_vector_entries_are_stored_as_fractions(self):
        class FractionSubclass(Fraction):
            pass

        vector = EntropyVector(2, [2, "2/3", FractionSubclass(3, 4)])
        assert vector.entries == (2, Fraction(2, 3), Fraction(3, 4))
        assert all(type(e) is Fraction for e in vector.entries)
        for negative in (-1, "-1/2", Fraction(-2, 3), FractionSubclass(-1, 5)):
            with pytest.raises(ValueError, match=r"^entropy entries must be nonnegative$"):
                EntropyVector(1, (negative,))

    def test_subsystem_parse(self):
        assert subsystem_from_letters("CA", 3) == frozenset({1, 3})
        with pytest.raises(InequalityParseError):
            subsystem_from_letters("AA", 3)
