"""Cut-dependent contraction certificates for entropy inequalities on link models.

The machinery here addresses links through the min-cuts of an
inequality's LHS terms.  Every loop gets a trit per LHS term: +1 inside
that term's cut interior, 0 inside the cut itself, -1 in the exterior.
Loops sharing a trit-string form a cell, and the cells partition the
loop set.  A trit-string map then assembles candidate RHS cuts out of
cells, and a bridge-driven indicator table supplies the combinatorial
inequality that has to hold tuple by tuple.  Inside, an RHS cut is the
OR of its zero cells' loop masks, and one `links._interior` call gives
its validity and every other cell's sign.  Crediting works on masks too:
a minimal bridge is a loop mask, its AND with the min-cut mask must hold
one loop, and the gray loops left are a mask; loop names are built only
for the table's entries and colorings and for error messages.

The partition and the indicator table depend only on the model and the
inequality's LHS, so each is built once per model and LHS and cached on
the model, with the support grouped for the per-tuple check.  A check
then does only the work that depends on its map.  The partitions and
tables returned are shared between calls, so their mappings (a
partition's `cells` and `loop_trits`, a table's `coloring` and each of
its per-term colorings) are read-only.

All checks are instance-level: the indicator table depends on the chosen
min-cuts of one specific model, so a passing certificate establishes the
inequality on that model, not on the whole model class.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from types import MappingProxyType

from .core import LinearInequality, Subsystem, _store, subsystem_label
from .links import (
    LinkModel,
    LoopCutResult,
    StratificationError,
    _bridges,
    _check_cut,
    _indices,
    _interior,
    _mask_of,
    _min_cut,
    _names_of,
    _subsystem_externals,
    link_min_cut,
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
    # the loop mask of every cell, set by `build_trit_partition`
    _cell_masks: dict[Trits, int] | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _store(self, cells=MappingProxyType(dict(self.cells)), loop_trits=MappingProxyType(dict(self.loop_trits)))

    def cell_of(self, loop: str) -> Trits:
        return self.loop_trits[loop]


def build_trit_partition(model: LinkModel, ineq: LinearInequality) -> TritPartition:
    """Assign each loop its trit-string and materialize the nonempty cells.

    Trits are read off the loop masks of each min-cut and its interior, so
    the +1 cells of a term make up its interior and the 0 cells its cut.
    The partition is built once per model and LHS and then shared by every
    later call, so its mappings are read-only.
    """
    if ineq.n != model.n:
        raise ValueError(f"party-count mismatch: inequality n={ineq.n}, model n={model.n}")
    key = ("partition", ineq.lhs)
    partition = model._cache.get(key)
    if partition is None:
        partition = model._cache[key] = _build_partition(model, ineq)
    return partition


def _build_partition(model: LinkModel, ineq: LinearInequality) -> TritPartition:
    """The uncached body of `build_trit_partition`."""
    cuts = tuple(link_min_cut(model, sub) for sub in ineq.lhs_subsystems)
    sides = [_min_cut(model, sub)[1:3] for sub in ineq.lhs_subsystems]  # (cut, interior) masks
    loop_trits: dict[str, Trits] = {}
    masks: dict[Trits, int] = {}
    for i, loop in enumerate(model.loops):
        trits = tuple(1 if interior >> i & 1 else 0 if cut >> i & 1 else -1 for cut, interior in sides)
        loop_trits[loop] = trits
        masks[trits] = masks.get(trits, 0) | 1 << i
    partition = TritPartition(
        length=len(ineq.lhs),
        cells={trits: _names_of(model, mask) for trits, mask in masks.items()},
        loop_trits=loop_trits,
        cuts=cuts,
    )
    object.__setattr__(partition, "_cell_masks", masks)
    return partition


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
    LHS and then shared, so its colorings are read-only.
    """
    return _indicator(model, ineq, build_trit_partition(model, ineq))[0]


def _indicator(
    model: LinkModel, ineq: LinearInequality, partition: TritPartition
) -> tuple[OracularIndicatorTable, tuple, Fraction]:
    """The LHS's indicator table, its support grouped for check 2, and the LHS cut total.

    Check 2 needs, per support key (cover, size, cells), the alpha sum of
    the terms holding it and their count.  Like the LHS cut total, these
    depend only on the LHS, so they are built with the table, once per
    model and LHS, over its cached `partition`.  A crediting error leaves
    nothing cached and is raised again by the next call.
    """
    key = ("indicator", ineq.lhs)
    state = model._cache.get(key)
    if state is None:
        table = _credit_bridges(model, ineq, partition)
        alphas = ineq.lhs_coeffs
        by_tuple: dict[tuple[int, int, tuple[Trits, ...]], list[Fraction]] = {}
        for l, cover, size, cells in table.support:
            by_tuple.setdefault((cover, size, cells), []).append(alphas[l])
        groups = tuple((tup, sum(terms, Fraction(0)), len(terms)) for tup, terms in by_tuple.items())
        lhs_total = sum((alpha * cut.weight for alpha, cut in zip(alphas, partition.cuts)), Fraction(0))
        state = model._cache[key] = (table, groups, lhs_total)
    return state


def _credit_bridges(model: LinkModel, ineq: LinearInequality, partition: TritPartition) -> OracularIndicatorTable:
    """The crediting scan of `compute_oracular_indicator` over an already built partition."""
    trits = [partition.loop_trits[loop] for loop in model.loops]
    entries: list[IndicatorEntry] = []
    coloring: dict[int, dict[str, str]] = {}
    for l, subsystem in enumerate(ineq.lhs_subsystems):
        gray = cut = _min_cut(model, subsystem)[1]
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
        credited_weight = Fraction(0)
        for _, bridge, hit, cells in sorted(scheduled):
            if not gray & hit:
                continue
            gray ^= hit
            loop = model.loops[hit.bit_length() - 1]
            colors[loop] = "green"
            credited_weight += Fraction(model.weights[loop])
            head = cells[0]
            if head[l] != 0:
                raise RuntimeError("credited cell must sit inside the term's min-cut")
            signs = [c[l] for c in cells[1:]]
            if not all(s in (-1, 1) for s in signs):
                raise RuntimeError("covering cells must avoid the cut coordinate")
            if not (1 in signs and -1 in signs):
                raise RuntimeError("a bridge must reach both interior and exterior")
            entries.append(IndicatorEntry(l, len(cells), bridge.bit_count(), cells, loop, _names_of(model, bridge)))
        if gray:
            raise StratificationError(
                f"min-cut loops {sorted(_names_of(model, gray))} of {subsystem_label(subsystem)} "
                "were never credited by any minimal bridge"
            )
        if credited_weight != partition.cuts[l].weight:
            raise RuntimeError("credited loop weights must add up to the cut weight")
        coloring[l] = colors
    support = frozenset((e.term_index, e.cover_size, e.bridge_size, e.cells) for e in entries)
    return OracularIndicatorTable(entries=tuple(entries), support=support, coloring=coloring, partition=partition)


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
            if not all(t in (-1, 0, 1) for t in cell + image):
                raise CertificateError("trit values must be -1, 0 or 1")


def _term_name(r: int, subsystem: Subsystem) -> str:
    return f"RHS term {r} ({subsystem_label(subsystem)})"


def _rhs_cut_split(
    model: LinkModel,
    r: int,
    subsystem: Subsystem,
    zero_cells: set[Trits],
    partition: TritPartition,
):
    """Mask of the cut induced for RHS term `r` by its zero cells, and the sign of every other cell.

    In `partition.cells` order: +1 inside the induced interior, -1 in the
    exterior (other cells miss the cut), None for a cell that straddles both.
    """
    masks = partition._cell_masks
    if masks is None:  # a partition built by hand or by `dataclasses.replace`
        masks = {cell: _mask_of(model, members) for cell, members in partition.cells.items()}
    cut = 0
    for cell in zero_cells:
        cut |= masks[cell]
    try:
        inside, outside = _subsystem_externals(model, subsystem)
        _check_cut(model, cut)
    except ValueError as exc:
        raise InconsistentAssignment(f"cut for {_term_name(r, subsystem)} is unusable: {exc}") from exc
    interior = _interior(model, inside, cut)
    if interior & outside:
        raise InconsistentAssignment(f"zero cells of {_term_name(r, subsystem)} do not form a valid cut")
    return cut, {
        cell: 1 if not mask & ~interior else -1 if not mask & interior else None
        for cell, mask in masks.items()
        if cell not in zero_cells
    }


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
    a cell straddling both is inconsistent.
    """
    if partition is None:
        partition = build_trit_partition(model, ineq)
    zeros = {tuple(cell): frozenset(rs) for cell, rs in zeros.items()}
    for cell, rs in zeros.items():
        if cell not in partition.cells:
            raise CertificateError(f"zeros reference the empty cell {cell}")
        if not rs <= set(range(len(ineq.rhs))):
            raise CertificateError(f"zeros for cell {cell} reference RHS terms out of range")
    images: dict[Trits, list[int]] = {cell: [0] * len(ineq.rhs) for cell in partition.cells}
    for r, subsystem in enumerate(ineq.rhs_subsystems):
        zero_cells = {cell for cell in partition.cells if r in zeros.get(cell, frozenset())}
        _, signs = _rhs_cut_split(model, r, subsystem, zero_cells, partition)
        for cell, sign in signs.items():
            if sign is None:
                raise InconsistentAssignment(
                    f"cell {cell} straddles the interior and exterior of {_term_name(r, subsystem)}"
                )
            images[cell][r] = sign
    return TritContractionMap(
        images={cell: tuple(img) for cell, img in images.items()},
        length=partition.length,
        width=len(ineq.rhs),
    )


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
    partition = build_trit_partition(model, ineq)
    undefined = [cell for cell in partition.cells if cell not in cmap.images]
    if undefined:
        raise CertificateError(f"map undefined on nonempty cells: {sorted(undefined)}")
    if cmap.length != partition.length or cmap.width != len(ineq.rhs):
        raise CertificateError("map dimensions do not match the inequality")

    # check 1: zeros induce valid cuts and the signs match their interior/exterior
    rhs_cuts: list[int] = []
    for r, subsystem in enumerate(ineq.rhs_subsystems):
        zero_cells = {cell for cell in partition.cells if cmap.images[cell][r] == 0}
        try:
            cut, signs = _rhs_cut_split(model, r, subsystem, zero_cells, partition)
        except InconsistentAssignment as exc:
            return CertificateCheck(ok=False, reason=str(exc))
        for cell, expected in signs.items():
            value = cmap.images[cell][r]
            if expected is None:
                return CertificateCheck(
                    ok=False,
                    reason=f"cell {cell} straddles the interior and exterior of {_term_name(r, subsystem)}",
                )
            if value != expected:
                return CertificateCheck(
                    ok=False,
                    reason=(
                        f"cell {cell} is assigned {value} for {_term_name(r, subsystem)} "
                        f"but lies in the {'interior' if expected == 1 else 'exterior'}"
                    ),
                )
        rhs_cuts.append(cut)

    # check 2: per-tuple domination over the indicator support
    _, groups, lhs_total = _indicator(model, ineq, partition)
    betas = ineq.rhs_coeffs
    # A tuple outside the support has 0 on both sides, so only support keys
    # can fail.  The RHS factor of a key is the betas of the terms its head
    # cell's image sends to 0, summed once per image.
    zero_beta: dict[Trits, Fraction] = {}
    for tup, lhs_value, count in groups:
        image = cmap.images[tup[2][0]]
        if image not in zero_beta:
            zero_beta[image] = sum((beta for beta, t in zip(betas, image) if t == 0), Fraction(0))
        rhs_value = zero_beta[image] * count
        if lhs_value < rhs_value:
            return CertificateCheck(
                ok=False,
                reason="contraction condition violated on a covering tuple",
                violation=tup,
                diagnostics={"lhs": lhs_value, "rhs": rhs_value},
            )

    # check 3: exact weight chain
    rhs_cut_total = Fraction(0)
    rhs_entropy_total = Fraction(0)
    for r, (subsystem, beta) in enumerate(ineq.rhs):
        cut_weight = sum((model.weights[model.loops[i]] for i in _indices(rhs_cuts[r])), Fraction(0))
        entropy = model.entropy(subsystem)
        if cut_weight < entropy:
            raise RuntimeError("a valid cut can never undercut the min-cut")
        rhs_cut_total += beta * cut_weight
        rhs_entropy_total += beta * entropy
    diagnostics = {
        "lhs_cut_weight": lhs_total,
        "rhs_cut_weight": rhs_cut_total,
        "rhs_entropy": rhs_entropy_total,
    }
    if lhs_total < rhs_cut_total:
        return CertificateCheck(
            ok=False,
            reason="weight accounting failed: LHS min-cut weight below assembled RHS cut weight",
            diagnostics=diagnostics,
        )
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
