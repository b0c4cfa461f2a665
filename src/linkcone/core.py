"""Exact-arithmetic vocabulary shared by every min-cut entropy model.

Conventions used throughout the package:

* Parties are the integers 1..n; the purifier is party n + 1.
* Party letters map A -> 1, B -> 2, and so on.  The purifier is the
  (n+1)-th letter; it may label an external element of a model but is
  rejected inside subsystem expressions.
* A subsystem is a nonempty frozenset of party indices drawn from [n].
* Entropy vectors carry all 2**n - 1 subsystem entropies, ordered by
  subsystem cardinality and lexicographically within each cardinality.
* Every quantity is a fractions.Fraction; floats never take part in a
  comparison.  Solvers that need integers scale a set of weights by the
  least common multiple of their denominators (`scale_of`, `scaled`).
* Every model (graph, hypergraph, link) answers the same protocol: `n`,
  the party count, and `entropy(subsystem)`, its min-cut entropy.
  `entropy_vector` needs nothing else.
"""

from __future__ import annotations

import re
import string
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cache
from itertools import combinations
from math import lcm
from types import MappingProxyType

Subsystem = frozenset[int]
Bits = tuple[int, ...]

_PARTY_INDEX = {letter: i for i, letter in enumerate(string.ascii_uppercase, 1)}
_ONE = Fraction(1)
_TERM_RE = re.compile(r"^\s*(?:(\d+(?:\s*/\s*\d+)?)\s+|(\d+(?:\s*/\s*\d+)?)\s*\*\s*)?S\(\s*([A-Z]+)\s*\)\s*$")


class InequalityParseError(ValueError):
    """Malformed inequality text, or a party letter outside the declared range."""


def scale_of(weights) -> int:
    """Least common multiple of the denominators of rational weights (1 for none)."""
    return lcm(1, *(w.denominator for w in weights))


def scaled(weight: Fraction, scale: int) -> int:
    """The integer `weight * scale`; `scale` must be a multiple of its denominator."""
    return weight.numerator * (scale // weight.denominator)


def _declared(names, external, noun: str, nouns: str) -> tuple[tuple[str, ...], MappingProxyType, set[str]]:
    """Distinct names as a tuple, `external` (parties 1..n+1, n >= 1, injective) read-only, and the name set."""
    names, external = tuple(names), dict(external)
    name_set = set(names)
    if len(name_set) != len(names):
        raise ValueError(f"duplicate {noun} names")
    parties = sorted(external)
    if parties != list(range(1, len(parties) + 1)) or len(parties) < 2:
        raise ValueError("external mapping must cover parties 1..n+1 with n >= 1")
    if len(set(external.values())) != len(external):
        raise ValueError("external mapping must be injective")
    if not set(external.values()) <= name_set:
        raise ValueError(f"external mapping references unknown {nouns}")
    return names, MappingProxyType(external), name_set


def _store(obj, **attributes) -> None:
    """Set attributes on a frozen dataclass instance; `object.__setattr__` keeps attribute reads fast."""
    for name, value in attributes.items():
        object.__setattr__(obj, name, value)


def _reduce(model):
    """`__reduce__` of a frozen model: rebuild it from its public fields.

    Read-only mappings go as plain dicts (a `MappingProxyType` does not
    pickle), and caches such as `_cache` and `_network` stay behind, so a
    copy starts cold, as one built by `dataclasses.replace` does.
    """
    values = (getattr(model, f.name) for f in fields(model) if f.init)
    return type(model), tuple(dict(v) if isinstance(v, MappingProxyType) else v for v in values)


def _check_subsystem(subsystem, n: int) -> Subsystem:
    """The subsystem as a frozenset, after checking it is a nonempty subset of [n]."""
    subsystem = frozenset(subsystem)
    if not subsystem or not subsystem <= set(range(1, n + 1)):
        raise ValueError(f"subsystem must be a nonempty subset of [{n}]")
    return subsystem


def party_letter(index: int) -> str:
    """Letter for party `index` (1 -> A, 2 -> B, ...)."""
    if not 1 <= index <= 26:
        raise ValueError(f"party index {index} out of supported range 1..26")
    return string.ascii_uppercase[index - 1]


def party_index(letter: str, n: int) -> int:
    """Party index for a letter, restricted to the n genuine parties."""
    idx = _PARTY_INDEX.get(letter)
    if idx is None:
        raise InequalityParseError(f"invalid party letter {letter!r}")
    if idx > n:
        raise InequalityParseError(f"party letter {letter!r} outside the {n} declared parties")
    return idx


def subsystem_from_letters(letters: str, n: int) -> Subsystem:
    """Parse a subsystem like ``"ACD"`` against the declared party count."""
    if not letters:
        raise InequalityParseError("empty subsystem")
    seen: set[int] = set()
    for ch in letters:
        idx = party_index(ch, n)
        if idx in seen:
            raise InequalityParseError(f"duplicate party letter {ch!r} in subsystem {letters!r}")
        seen.add(idx)
    return frozenset(seen)


def subsystem_label(subsystem: Subsystem) -> str:
    return "".join(party_letter(i) for i in sorted(subsystem))


@cache
def all_subsystems(n: int) -> tuple[Subsystem, ...]:
    """All 2**n - 1 subsystems in canonical (cardinality, then lex) order."""
    if n < 1:
        raise ValueError("need at least one party")
    return tuple(
        frozenset(combo) for size in range(1, n + 1) for combo in combinations(range(1, n + 1), size)
    )


@cache
def _subsystem_index(n: int) -> dict[Subsystem, int]:
    return {sub: i for i, sub in enumerate(all_subsystems(n))}


@dataclass(frozen=True)
class EntropyVector:
    """All subsystem entropies of an n-party model, in canonical order."""

    n: int
    entries: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        expected = 2 ** self.n - 1
        if len(self.entries) != expected:
            raise ValueError(f"expected {expected} entries for n={self.n}, got {len(self.entries)}")
        entries = tuple(Fraction(e) for e in self.entries)
        if any(e < 0 for e in entries):
            raise ValueError("entropy entries must be nonnegative")
        object.__setattr__(self, "entries", entries)

    def value(self, subsystem: Subsystem | str) -> Fraction:
        if isinstance(subsystem, str):
            subsystem = subsystem_from_letters(subsystem, self.n)
        try:
            return self.entries[_subsystem_index(self.n)[frozenset(subsystem)]]
        except KeyError:
            raise ValueError(f"{set(subsystem)} is not a subsystem of [{self.n}]") from None

    def labeled(self) -> list[tuple[str, Fraction]]:
        return [(subsystem_label(sub), val) for sub, val in zip(all_subsystems(self.n), self.entries)]


def entropy_vector(model) -> EntropyVector:
    """All subsystem entropies of any model with `n` and `entropy(subsystem)`."""
    return EntropyVector(model.n, tuple(model.entropy(sub) for sub in all_subsystems(model.n)))


@dataclass(frozen=True)
class LinearInequality:
    """Canonical-form entropy inequality: positive-coefficient terms on both sides."""

    n: int
    lhs: tuple[tuple[Subsystem, Fraction], ...]
    rhs: tuple[tuple[Subsystem, Fraction], ...]

    def __post_init__(self) -> None:
        parties = set(range(1, self.n + 1))
        for side_name, side in (("lhs", self.lhs), ("rhs", self.rhs)):
            if not side:
                raise ValueError(f"{side_name} must contain at least one term")
            seen: set[Subsystem] = set()
            for subsystem, coeff in side:
                if not subsystem or not subsystem <= parties:
                    raise ValueError(f"bad subsystem {set(subsystem)} for n={self.n}")
                if coeff <= 0:
                    raise ValueError("coefficients must be strictly positive")
                if subsystem in seen:
                    raise ValueError(f"subsystem {subsystem_label(subsystem)} repeated on {side_name}")
                seen.add(subsystem)

    @property
    def lhs_subsystems(self) -> tuple[Subsystem, ...]:
        return tuple(sub for sub, _ in self.lhs)

    @property
    def rhs_subsystems(self) -> tuple[Subsystem, ...]:
        return tuple(sub for sub, _ in self.rhs)

    @property
    def lhs_coeffs(self) -> tuple[Fraction, ...]:
        return tuple(c for _, c in self.lhs)

    @property
    def rhs_coeffs(self) -> tuple[Fraction, ...]:
        return tuple(c for _, c in self.rhs)


def _parse_side(text: str, n: int, side_name: str) -> tuple[tuple[Subsystem, Fraction], ...]:
    pieces = text.split("+")
    if not text.strip():
        raise InequalityParseError(f"empty {side_name}")
    terms: list[tuple[Subsystem, Fraction]] = []
    index_of: dict[Subsystem, int] = {}
    for piece in pieces:
        match = _TERM_RE.match(piece)
        if match is None:
            raise InequalityParseError(f"malformed term {piece.strip()!r}")
        coeff_text = match.group(1) or match.group(2)
        try:
            coeff = Fraction(coeff_text.replace(" ", "")) if coeff_text else _ONE
        except ZeroDivisionError:
            raise InequalityParseError(f"zero denominator in term {piece.strip()!r}") from None
        if coeff <= 0:
            raise InequalityParseError(f"nonpositive coefficient in term {piece.strip()!r}")
        subsystem = subsystem_from_letters(match.group(3), n)
        if subsystem in index_of:
            # duplicate subsystems on one side are merged by summing coefficients
            pos = index_of[subsystem]
            terms[pos] = (subsystem, terms[pos][1] + coeff)
        else:
            index_of[subsystem] = len(terms)
            terms.append((subsystem, coeff))
    return tuple(terms)


def parse_inequality(text: str, n: int) -> LinearInequality:
    """Parse ``"<terms> >= <terms>"`` with terms like ``2 S(ACE)`` or ``S(AB)``."""
    if n < 1:
        raise InequalityParseError("need at least one party")
    parts = text.split(">=")
    if len(parts) != 2:
        raise InequalityParseError("expected exactly one '>=' separator")
    lhs = _parse_side(parts[0], n, "left-hand side")
    rhs = _parse_side(parts[1], n, "right-hand side")
    return LinearInequality(n, lhs, rhs)


def serialize_inequality(ineq: LinearInequality) -> str:
    def side(terms: tuple[tuple[Subsystem, Fraction], ...]) -> str:
        rendered = []
        for subsystem, coeff in terms:
            label = f"S({subsystem_label(subsystem)})"
            rendered.append(label if coeff == 1 else f"{coeff} {label}")
        return " + ".join(rendered)

    return f"{side(ineq.lhs)} >= {side(ineq.rhs)}"


def occurrence_bitstrings(ineq: LinearInequality) -> tuple[tuple[Bits, ...], tuple[Bits, ...]]:
    """Membership bitstrings of each party (and the purifier) in the LHS and RHS terms.

    Returns one (x, y) pair per i in 1..n+1, where x has length L and
    x_l = 1 iff party i occurs in the l-th LHS subsystem, and similarly
    for y over the RHS.  The purifier occurs nowhere, so its strings are
    all-zero.
    """
    xs = []
    ys = []
    for party in range(1, ineq.n + 2):
        xs.append(tuple(1 if party in sub else 0 for sub in ineq.lhs_subsystems))
        ys.append(tuple(1 if party in sub else 0 for sub in ineq.rhs_subsystems))
    return tuple(xs), tuple(ys)


def weighted_hamming_norm(vector, gamma) -> Fraction:
    """Sum of gamma_j * |vector_j|, exactly."""
    vec = tuple(vector)
    weights = tuple(Fraction(g) for g in gamma)
    if len(vec) != len(weights):
        raise ValueError(f"length mismatch: vector has {len(vec)} entries, gamma has {len(weights)}")
    return sum((g * abs(Fraction(v)) for v, g in zip(vec, weights)), Fraction(0))


def mixed_indicator(bits) -> int:
    """0 when every bit agrees (all 0s or all 1s), 1 otherwise."""
    seq = tuple(bits)
    if not seq:
        raise ValueError("need at least one bit")
    return 0 if all(b == seq[0] for b in seq) else 1


def evaluate_inequality(ineq: LinearInequality, vector: EntropyVector) -> tuple[bool, Fraction, Fraction]:
    """Exact comparison of the two sides on an entropy vector."""
    if ineq.n != vector.n:
        raise ValueError(f"party-count mismatch: inequality n={ineq.n}, vector n={vector.n}")
    lhs_value = sum((coeff * vector.value(sub) for sub, coeff in ineq.lhs), Fraction(0))
    rhs_value = sum((coeff * vector.value(sub) for sub, coeff in ineq.rhs), Fraction(0))
    return lhs_value >= rhs_value, lhs_value, rhs_value


def complement_subsystem(subsystem: Subsystem, n: int) -> frozenset[int]:
    """Complement within [n+1]; used for purification symmetry S(I) = S(I-complement)."""
    if not subsystem or not subsystem <= set(range(1, n + 1)):
        raise ValueError(f"bad subsystem {set(subsystem)} for n={n}")
    return frozenset(range(1, n + 2)) - subsystem
