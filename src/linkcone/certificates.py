"""Cut-dependent contraction certificates for entropy inequalities on link models.

The machinery here addresses links through the min-cuts of an
inequality's LHS terms.  Every loop gets a trit per LHS term: +1 inside
that term's cut interior, 0 inside the cut itself, -1 in the exterior.
Loops sharing a trit-string form a cell, and the cells partition the
loop set.  A trit-string map then assembles candidate RHS cuts out of
cells, and a bridge-driven indicator table supplies the combinatorial
inequality that has to hold tuple by tuple.

What depends only on the model and the LHS subsystems, not on the
coefficients, is built once and cached on the model (`_CertSetup`): the
partition, the loop masks of the cells and the LHS min-cuts, every
finite loop's weight scaled to an `int` by one LCM, the indicator table
with its support grouped per tuple (on first use), and every RHS split
seen.  An RHS cut is the OR of its zero cells' masks, and one
`links._interior` call per distinct (RHS subsystem, cut) gives its
validity, its weight and every cell's sign, for deriving and checking
maps alike.  A check scales the coefficients by the LCM of their
denominators and compares `int`s, which is exact; a `Fraction` is built
only for its diagnostics, loop names only for the table and messages.
The partitions and tables returned are shared between calls, so their
mappings (a partition's `cells` and `loop_trits`, a table's `coloring`
and each of its per-term colorings) are read-only.

All checks are instance-level: the indicator table depends on the chosen
min-cuts of one specific model, so a passing certificate establishes the
inequality on that model, not on the whole model class.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from types import MappingProxyType
from typing import NamedTuple

from .core import LinearInequality, Subsystem, _store, scale_of, scaled, subsystem_label
from .links import (
    LinkModel, LoopCutResult, StratificationError, _bridges, _check_cut, _indices, _interior, _mask_of, _min_cut,
    _names_of, _subsystem_externals, link_min_cut,
)

Trits = tuple[int, ...]


class CertificateError(ValueError):
    """Structurally unusable certificate (undefined cells, bad lengths)."""


class InconsistentAssignment(ValueError):
    """Zero cells that do not induce a coherent RHS cut/interior/exterior split."""


@dataclass(frozen=True)
class TritPartition:
    """Trit-string addressing of every loop relative to the LHS min-cuts."""

    length: int
    cells: Mapping[Trits, frozenset[str]]
    loop_trits: Mapping[str, Trits]
    cuts: tuple[LoopCutResult, ...]

    def __post_init__(self) -> None:
        _store(self, cells=MappingProxyType(dict(self.cells)), loop_trits=MappingProxyType(dict(self.loop_trits)))

    def cell_of(self, loop: str) -> Trits:
        return self.loop_trits[loop]


class _CertSetup(NamedTuple):
    partition: TritPartition
    masks: tuple[int, ...]  # loop mask of every cell, in `partition.cells` order
    lhs_cuts: tuple[int, ...]  # min-cut mask of every LHS term
    scale: int  # `scale_of` every finite loop's weight
    weight_of: dict[int, int]  # finite loop index -> weight times `scale`
    lhs_weights: tuple[int, ...]  # every LHS min-cut's weight times `scale`
    splits: dict  # (RHS subsystem, cut mask) -> `_split`
    credited: list  # [table, support grouped as ((cover, size, cells), LHS term indices)] once credited


def build_trit_partition(model: LinkModel, ineq: LinearInequality) -> TritPartition:
    """Assign each loop its trit-string and materialize the nonempty cells.

    Trits are read off the loop masks of each min-cut and its interior, so
    the +1 cells of a term make up its interior and the 0 cells its cut.
    The partition is built once per model and LHS subsystems and then
    shared by every later call, so its mappings are read-only.
    """
    return _setup(model, ineq).partition


def _setup(model: LinkModel, ineq: LinearInequality) -> _CertSetup:
    """The certificate setup of the inequality's LHS subsystems, built on first use."""
    if ineq.n != model.n:
        raise ValueError(f"party-count mismatch: inequality n={ineq.n}, model n={model.n}")
    key = ineq.lhs_subsystems  # a tuple of subsystems, unlike any other key of the model's cache
    setup = model._cache.get(key)
    if setup is None:
        setup = model._cache[key] = _build_partition(model, ineq)
    return setup


def _build_partition(model: LinkModel, ineq: LinearInequality) -> _CertSetup:
    """The uncached body of `_setup`."""
    cuts = tuple(link_min_cut(model, sub) for sub in ineq.lhs_subsystems)
    lhs_cuts, columns = [], []  # every term's cut mask and the trit of every loop
    for sub in ineq.lhs_subsystems:
        cut, interior = _min_cut(model, sub)[1:3]
        lhs_cuts.append(cut)
        columns.append([1 if interior >> i & 1 else 0 if cut >> i & 1 else -1 for i in range(len(model.loops))])
    loop_trits = dict(zip(model.loops, zip(*columns)))
    masks: dict[Trits, int] = {}
    for i, trits in enumerate(loop_trits.values()):
        masks[trits] = masks.get(trits, 0) | 1 << i
    partition = TritPartition(len(ineq.lhs), {t: _names_of(model, m) for t, m in masks.items()}, loop_trits, cuts)
    weights = model._cache.get("finite_weights")  # shared by every LHS of the model
    if weights is None:
        finite = {i: w for i, w in enumerate(model.weights[loop] for loop in model.loops) if type(w) is Fraction}
        scale = scale_of(finite.values())
        weights = model._cache["finite_weights"] = scale, {i: scaled(w, scale) for i, w in finite.items()}
    scale, weight_of = weights
    lhs_weights = tuple(scaled(cut.weight, scale) for cut in cuts)
    return _CertSetup(partition, tuple(masks.values()), tuple(lhs_cuts), scale, weight_of, lhs_weights, {}, [])


@dataclass(frozen=True)
class IndicatorEntry:
    """One credited bridge: the tuple of cells covering it and the cut loop it pays for."""

    term_index: int
    cover_size: int
    bridge_size: int
    cells: tuple[Trits, ...]
    loop: str
    bridge: frozenset[str]


@dataclass(frozen=True)
class OracularIndicatorTable:
    """Support of the bridge indicator, with the per-term loop coloring.

    Each min-cut loop is credited exactly once per LHS term, by the first
    minimal bridge through it in (bridge size, cover size, cell tuple,
    loop indices) order; crediting turns the loop from gray to green.
    """

    entries: tuple[IndicatorEntry, ...]
    support: frozenset[tuple[int, int, int, tuple[Trits, ...]]]
    coloring: Mapping[int, Mapping[str, str]]
    partition: TritPartition

    def __post_init__(self) -> None:
        coloring = {l: MappingProxyType(dict(colors)) for l, colors in self.coloring.items()}
        _store(self, coloring=MappingProxyType(coloring))

    def value(self, term_index: int, cover_size: int, bridge_size: int, cells: tuple[Trits, ...]) -> int:
        return 1 if (term_index, cover_size, bridge_size, cells) in self.support else 0


def compute_oracular_indicator(model: LinkModel, ineq: LinearInequality) -> OracularIndicatorTable:
    """Credit every min-cut loop of every LHS term through its minimal bridges.

    For each LHS term the min-cut loops start gray.  Minimal bridges are
    visited in ascending (size, cover size, cell tuple, loop index)
    order; a bridge whose cut loop is still gray colors it green and
    switches the indicator on for the covering cell tuple.  Any gray loop
    surviving the scan signals a non-minimal cut or an inconsistent
    structure.  Like the partition, the table is built once per model and
    LHS subsystems and then shared, so its colorings are read-only.
    """
    return _credited(model, ineq, _setup(model, ineq))[0]


def _credited(model: LinkModel, ineq: LinearInequality, setup: _CertSetup) -> list:
    """The setup's indicator table and support groups, credited on first use; an error caches nothing."""
    if not setup.credited:
        setup.credited[:] = _credit_bridges(model, ineq, setup)
    return setup.credited


def _credit_bridges(model: LinkModel, ineq: LinearInequality, setup: _CertSetup) -> tuple:
    """The crediting scan of `compute_oracular_indicator` over a built setup, and its support grouped.

    A group is a support key (cover, size, cells) with the LHS terms
    holding it, in the support's order, so check 2 reports the first
    failing key in it.
    """
    trits = list(setup.partition.loop_trits.values())
    entries: list[IndicatorEntry] = []
    coloring: dict[int, dict[str, str]] = {}
    for l, subsystem in enumerate(ineq.lhs_subsystems):
        gray = cut = setup.lhs_cuts[l]
        # in declaration order, so the coloring's key order ignores PYTHONHASHSEED
        colors = {model.loops[i]: "gray" for i in _indices(cut)}
        scheduled = []
        for bridge in _bridges(model, subsystem):
            hit = bridge & cut
            if not hit or hit & (hit - 1):
                raise StratificationError(
                    f"minimal bridge {sorted(_names_of(model, bridge))} meets the min-cut of "
                    f"{subsystem_label(subsystem)} in {hit.bit_count()} loops"
                )
            indices = _indices(bridge)
            head = trits[hit.bit_length() - 1]
            cells = (head, *sorted({trits[i] for i in indices} - {head}))
            scheduled.append(((len(indices), len(cells), cells, indices), bridge, hit, cells))
        credited_weight = 0
        for _, bridge, hit, cells in sorted(scheduled):
            if not gray & hit:
                continue
            gray ^= hit
            i = hit.bit_length() - 1
            colors[model.loops[i]] = "green"
            credited_weight += setup.weight_of[i]
            if cells[0][l] != 0:
                raise RuntimeError("credited cell must sit inside the term's min-cut")
            signs = {c[l] for c in cells[1:]}
            if 0 in signs:
                raise RuntimeError("covering cells must avoid the cut coordinate")
            if len(signs) < 2:
                raise RuntimeError("a bridge must reach both interior and exterior")
            entries.append(
                IndicatorEntry(l, len(cells), bridge.bit_count(), cells, model.loops[i], _names_of(model, bridge))
            )
        if gray:
            raise StratificationError(
                f"min-cut loops {sorted(_names_of(model, gray))} of {subsystem_label(subsystem)} "
                "were never credited by any minimal bridge"
            )
        if credited_weight != setup.lhs_weights[l]:
            raise RuntimeError("credited loop weights must add up to the cut weight")
        coloring[l] = colors
    support = frozenset((e.term_index, e.cover_size, e.bridge_size, e.cells) for e in entries)
    groups: dict[tuple[int, int, tuple[Trits, ...]], list[int]] = {}
    for l, cover, size, cells in support:
        groups.setdefault((cover, size, cells), []).append(l)
    return OracularIndicatorTable(tuple(entries), support, coloring, setup.partition), tuple(groups.items())


@dataclass(frozen=True)
class TritContractionMap:
    """Map from LHS trit-strings to RHS trit-strings, defined on nonempty cells."""

    images: dict[Trits, Trits]
    length: int
    width: int

    def __post_init__(self) -> None:
        for cell, image in self.images.items():
            if len(cell) != self.length:
                raise CertificateError(f"cell {cell} does not have length {self.length}")
            if len(image) != self.width:
                raise CertificateError(f"image {image} does not have length {self.width}")
            if not all(map((-1, 0, 1).__contains__, cell + image)):
                raise CertificateError("trit values must be -1, 0 or 1")


def _term_name(r: int, subsystem: Subsystem) -> str:
    return f"RHS term {r} ({subsystem_label(subsystem)})"


def _split(model: LinkModel, setup: _CertSetup, r: int, subsystem: Subsystem, column) -> tuple[Trits, int]:
    """Every cell's sign and the scaled weight of the cut that the 0 cells of `column` make for RHS term `r`.

    `column` and the signs follow `partition.cells`.  A sign is 0 in the cut, +1 in the induced interior,
    -1 in the exterior and None for a cell straddling both.  Kept per (subsystem, cut); an unusable cut raises.
    """
    cut = sum(mask for mask, t in zip(setup.masks, column) if not t)  # cells are disjoint
    key = (subsystem, cut)
    split = setup.splits.get(key)
    if split is None:
        try:
            inside, outside = _subsystem_externals(model, subsystem)
            _check_cut(model, cut)
        except ValueError as exc:
            split = None, ("cut for ", f" is unusable: {exc}")
        else:
            interior = _interior(model, inside, cut)
            if interior & outside:
                split = None, ("zero cells of ", " do not form a valid cut")
            else:
                signs = tuple(
                    0 if mask & cut else 1 if not mask & ~interior else -1 if not mask & interior else None
                    for mask in setup.masks
                )
                split = signs, sum(setup.weight_of[i] for i in _indices(cut))
        setup.splits[key] = split
    signs, rest = split
    if signs is None:  # an unusable cut, kept as its message before and after the term's name
        raise InconsistentAssignment(rest[0] + _term_name(r, subsystem) + rest[1])
    return split


def derive_rhs_assignment(
    model: LinkModel,
    ineq: LinearInequality,
    zeros,
    partition: TritPartition | None = None,
) -> TritContractionMap:
    """Complete a map from its zero cells: the zeros fix the RHS cuts, which fix all signs.

    `zeros` maps a cell's trit-string to the RHS term indices where the
    map is 0.  Every other (cell, term) entry becomes +1 or -1 depending
    on whether the cell lands in the induced interior or exterior;
    a cell straddling both is inconsistent.  A `partition` other than the
    model's own (built by hand, or a copy) gets its own cell masks and splits.
    """
    setup = _setup(model, ineq)
    partition = setup.partition if partition is None else partition
    terms = set(range(len(ineq.rhs)))
    zeros = {tuple(cell): frozenset(rs) for cell, rs in zeros.items()}
    for cell, rs in zeros.items():
        if cell not in partition.cells:
            raise CertificateError(f"zeros reference the empty cell {cell}")
        if not rs <= terms:
            raise CertificateError(f"zeros for cell {cell} reference RHS terms out of range")
    if partition is not setup.partition:
        masks = tuple(_mask_of(model, members) for members in partition.cells.values())
        setup = setup._replace(partition=partition, masks=masks, splits={})
    rows = [zeros.get(cell, ()) for cell in partition.cells]
    columns = []
    for r, (subsystem, _) in enumerate(ineq.rhs):
        signs = _split(model, setup, r, subsystem, [0 if r in rs else 1 for rs in rows])[0]
        if None in signs:
            cell, term = list(partition.cells)[signs.index(None)], _term_name(r, subsystem)
            raise InconsistentAssignment(f"cell {cell} straddles the interior and exterior of {term}")
        columns.append(signs)
    return TritContractionMap(dict(zip(partition.cells, zip(*columns))), partition.length, len(ineq.rhs))


def union_cut_zero_assignment(partition: TritPartition) -> dict[Trits, set[int]]:
    """Zero cells for a single-RHS-term inequality: pool every LHS cut into the one RHS cut.

    This encodes the union-of-cuts argument behind subadditivity: removing
    everything that any LHS min-cut removes certainly separates the union
    of the LHS subsystems.
    """
    return {cell: {0} for cell in partition.cells if 0 in cell}


@dataclass(frozen=True)
class CertificateCheck:
    """Outcome of a certificate verification with diagnostics."""

    ok: bool
    reason: str | None = None
    violation: tuple | None = None
    diagnostics: dict = field(default_factory=dict)


def check_cut_contraction_certificate(
    model: LinkModel,
    ineq: LinearInequality,
    cmap: TritContractionMap,
    exhaustive: bool = False,
    sample_seed: int = 0,
) -> CertificateCheck:
    """Verify a trit-string map as an inequality certificate on this model.

    Three checks must pass:

    1. For every RHS term, the map's zero cells form a valid cut and the
       +1/-1 cells coincide with the induced interior/exterior.
    2. For every covering tuple in the indicator table's support, the
       weighted count of credited bridges on the LHS dominates what the
       map recycles into RHS cuts.
    3. The resulting weight chain holds numerically: total LHS min-cut
       weight >= total RHS cut weight >= total RHS entropy.

    A passing certificate therefore implies the inequality is true on
    this model; that implication is re-checked exactly rather than
    assumed.  Tuples outside the support satisfy check 2 with 0 >= 0 by
    construction, so `exhaustive` (walk every tuple of distinct nonempty
    cells) and `sample_seed` (seed a sample of them) change nothing; both
    are accepted for compatibility.
    """
    setup = _setup(model, ineq)
    cells, images = setup.partition.cells, cmap.images
    rows = [images.get(cell) for cell in cells]
    if None in rows:
        raise CertificateError(f"map undefined on nonempty cells: {sorted(c for c in cells if c not in images)}")
    if cmap.length != setup.partition.length or cmap.width != len(ineq.rhs):
        raise CertificateError("map dimensions do not match the inequality")

    # check 1: zeros induce valid cuts and the signs match their interior/exterior
    cut_weights: list[int] = []
    for r, ((subsystem, _), column) in enumerate(zip(ineq.rhs, zip(*rows))):
        try:
            signs, weight = _split(model, setup, r, subsystem, column)
        except InconsistentAssignment as exc:
            return CertificateCheck(ok=False, reason=str(exc))
        if signs != column:
            cell, value, expected = next(entry for entry in zip(cells, column, signs) if entry[1] != entry[2])
            term, side = _term_name(r, subsystem), "interior" if expected == 1 else "exterior"
            if expected is None:
                return CertificateCheck(False, f"cell {cell} straddles the interior and exterior of {term}")
            return CertificateCheck(False, f"cell {cell} is assigned {value} for {term} but lies in the {side}")
        cut_weights.append(weight)

    # check 2: per-tuple domination over the indicator support, on coefficients times `scale`
    groups = _credited(model, ineq, setup)[1]
    lhs, rhs = ineq.lhs, ineq.rhs
    scale = scale_of(c for _, c in lhs + rhs)
    alphas = [scaled(alpha, scale) for _, alpha in lhs]
    betas = [scaled(beta, scale) for _, beta in rhs]
    # A tuple outside the support has 0 on both sides, so only support keys
    # can fail.  The RHS factor of a key is the betas of the terms its head
    # cell's image sends to 0, summed once per LHS term holding the key.
    zero_beta: dict[Trits, int] = {}
    for key, terms in groups:
        image = images[key[2][0]]
        if image not in zero_beta:
            zero_beta[image] = sum(beta for beta, t in zip(betas, image) if t == 0)
        lhs_value = sum(alphas[l] for l in terms)
        rhs_value = zero_beta[image] * len(terms)
        if lhs_value < rhs_value:
            diagnostics = {"lhs": Fraction(lhs_value, scale), "rhs": Fraction(rhs_value, scale)}
            return CertificateCheck(False, "contraction condition violated on a covering tuple", key, diagnostics)

    # check 3: exact weight chain, on weights times `setup.scale` and coefficients times `scale`
    lhs_total = sum(alpha * weight for alpha, weight in zip(alphas, setup.lhs_weights))
    rhs_cut_total = rhs_entropy_total = 0
    for (subsystem, _), beta, cut_weight in zip(rhs, betas, cut_weights):
        entropy = scaled(model.entropy(subsystem), setup.scale)
        if cut_weight < entropy:
            raise RuntimeError("a valid cut can never undercut the min-cut")
        rhs_cut_total += beta * cut_weight
        rhs_entropy_total += beta * entropy
    totals = {"lhs_cut_weight": lhs_total, "rhs_cut_weight": rhs_cut_total, "rhs_entropy": rhs_entropy_total}
    diagnostics = {name: Fraction(total, scale * setup.scale) for name, total in totals.items()}
    if lhs_total < rhs_cut_total:
        reason = "weight accounting failed: LHS min-cut weight below assembled RHS cut weight"
        return CertificateCheck(False, reason, diagnostics=diagnostics)
    return CertificateCheck(ok=True, diagnostics=diagnostics)


def check_inequality_direct(model, ineq: LinearInequality) -> tuple[bool, Fraction, Fraction]:
    """Ground truth: evaluate both sides on the model's min-cut entropies.

    Any model with `n` and `entropy(subsystem)` (graph, hypergraph or
    link) works; only the inequality's own terms are computed.
    """
    if ineq.n != model.n:
        raise ValueError(f"party-count mismatch: inequality n={ineq.n}, model n={model.n}")
    lhs_value = sum((coeff * model.entropy(sub) for sub, coeff in ineq.lhs), Fraction(0))
    rhs_value = sum((coeff * model.entropy(sub) for sub, coeff in ineq.rhs), Fraction(0))
    return lhs_value >= rhs_value, lhs_value, rhs_value
