"""Topological link models: loops, linking structure, loop cuts, and bridges.

A link model replaces both vertices and edges with weighted loops.  The
entropy of a subsystem is the minimum total weight of internal loops
whose removal leaves the subsystem's external loops unlinked from every
other external loop.

Genuine knot-theoretic linking is undecidable territory, so connectivity
is declared combinatorially through one of two structures:

* `AtomicLinkages` lists generator subsets ("atoms").  A set of loops is
  linked exactly when it is chained together by atoms that are fully
  contained in it; a Hopf pair is a 2-atom and a Brunnian triple is a
  3-atom whose proper subsets fall apart.
* `ConnectivityTable` spells out the sublink partition of every subset.
  Tables must be deletion-monotone: removing loops never creates linking.

Models are frozen: assigning a field raises `FrozenInstanceError`, and
`weights`, `external` and a table's `blocks_by_subset` are read-only
copies, so item assignment raises `TypeError`.  Min-cuts, the cut
network, the cut setup, name sets of loop masks, subsystems'
external-loop masks and, per LHS subsystems of an inequality, the
certificates' setup (`certificates._CertSetup`) are cached per model
on first use (a race only computes an entry twice) and returned
shared: do not mutate them.

Internally a loop set is an `int` mask over declaration order (bit i is
`loops[i]`).  The structure and each party's external-loop bit are
converted once, at construction, and every connectivity question goes
through `_blocks`, every cut side through `_interior`.  What every
min-cut of a model reads is built once, on its first min-cut
(`_cut_setup`): the blocks of the whole link, which decide a zero cut,
the blocks left after cutting every candidate, which decide an
uncuttable subsystem, and the candidates' integer-scaled weights for
the search.  The min-cut search, bridges, bridge crediting and
certificate checks keep these masks; frozensets of loop names appear
only in public arguments and return values and in error messages, and
a weight becomes a `Fraction` only in a returned result.
Minimal bridges of an atom structure are grown per subsystem, as chained
unions of atoms from the cut interior that stop at the exterior, so no
scan over every loop subset or every irreducible sublink is needed.

When every atom is a pair of loops, linking is plain adjacency and a
minimum loop cut is a minimum vertex separator: `link_min_cut` solves it
with one integer max-flow on the node-split network, built once per model
(`flow.CutNetwork`), which for a converted hypergraph is Lawler's network.
Other structures get a branching search on integer-scaled weights: valid
cuts are closed under supersets, so a failing cut only needs extending by
a loop of a witness, for atoms a shortest chain of whole atoms from the
subsystem to the other externals, for a table every allowed candidate.
It is exponential in the worst case and has no node budget.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import combinations
from types import MappingProxyType
from typing import NamedTuple

from .core import (
    Subsystem, _check_subsystem, _declared, _distinct, _reduce, _store, all_subsystems, entropy_vector,
    scale_of, scaled,
)
from .flow import CutNetwork
from .hypergraphs import Hypergraph


class _Infinite:
    """Weight of a loop that can never be part of a cut."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "INFINITE"

    def __reduce__(self) -> str:
        # pickle and copy by name, so `INFINITE` stays the one instance
        return "INFINITE"


INFINITE = _Infinite()
_ZERO = Fraction(0)


class MonotonicityError(ValueError):
    """A connectivity table where deleting a loop creates new linking."""


class UncuttableSubsystemError(ValueError):
    """No internal loop cut can unlink the subsystem from the other externals."""


class StratificationError(ValueError):
    """A min-cut loop belongs to no minimal bridge (non-minimal cut or bad structure)."""


@dataclass(frozen=True)
class AtomicLinkages:
    """Linking structure generated by atoms (loop subsets of size >= 2)."""

    atoms: tuple[frozenset[str], ...]

    def __post_init__(self) -> None:
        atoms = tuple(_distinct(a, "atom") for a in self.atoms)
        if any(len(a) < 2 for a in atoms):
            raise ValueError("atoms must contain at least two loops")
        object.__setattr__(self, "atoms", atoms)


@dataclass(frozen=True)
class ConnectivityTable:
    """Explicit sublink partition for every loop subset."""

    blocks_by_subset: Mapping[frozenset[str], tuple[frozenset[str], ...]]

    __reduce__ = _reduce

    def __post_init__(self) -> None:
        object.__setattr__(self, "blocks_by_subset", MappingProxyType(dict(self.blocks_by_subset)))

    def blocks(self, subset: frozenset[str]) -> tuple[frozenset[str], ...]:
        try:
            return self.blocks_by_subset[subset]
        except KeyError:
            raise ValueError(f"connectivity table has no entry for subset {sorted(subset)}") from None


def validate_connectivity_table(loops: tuple[str, ...], table: ConnectivityTable) -> dict[int, list[int]]:
    """Check coverage, partition validity, and deletion-monotonicity; return the table on loop masks.

    Subsets are visited by size, each after all its single-loop deletions,
    which are tried in declaration order.  They suffice for monotonicity:
    refinement is transitive, so any chain of deletions inherits it.  An
    entry for anything but a subset of the loops is a ValueError.  The
    returned dict holds the subsets in the order visited.
    """
    if len(loops) > 14:
        raise ValueError("connectivity tables are supported for at most 14 loops")
    index = {name: i for i, name in enumerate(loops)}
    masks: dict[int, list[int]] = {}
    for size in range(len(loops) + 1):
        for combo in combinations(range(len(loops)), size):
            subset = frozenset(loops[i] for i in combo)
            named = table.blocks(subset)
            union: set[str] = set()
            for block in named:
                if not block:
                    raise ValueError("empty block in connectivity table")
                if block & union:
                    raise ValueError(f"overlapping blocks for subset {sorted(subset)}")
                union |= block
            if union != subset:
                raise ValueError(f"blocks for subset {sorted(subset)} do not partition it")
            mask = sum(1 << i for i in combo)
            # blocks ordered by lowest loop, as `_blocks` returns them
            big = masks[mask] = sorted((sum(1 << index[x] for x in b) for b in named), key=lambda b: b & -b)
            for i in combo:
                # every block left by the deletion must lie inside one block of the subset
                if any(all(small & ~b for b in big) for small in masks[mask & ~(1 << i)]):
                    raise MonotonicityError(
                        f"deleting {loops[i]!r} from {sorted(subset)} links previously unlinked loops"
                    )
    # every subset has been looked up, so a further entry names no subset
    if len(table.blocks_by_subset) > len(masks):
        raise ValueError(
            f"connectivity table has {len(table.blocks_by_subset)} entries, "
            f"more than the {len(masks)} subsets of its loops"
        )
    return masks


@dataclass(frozen=True, eq=False)
class LinkModel:
    """Weighted loop set with external labeling and a declared linking structure.

    Loop declaration order is significant: it fixes the deterministic
    tie-break between equal-weight min-cuts (lexicographically smallest
    cut as a sorted loop-index list).  Cuts are drawn from the finite
    internal loops that lie in some atom (with a table, every finite
    internal loop), and ties are broken within that set: a zero-weight
    loop in no atom never joins a cut, although adding it would keep the
    cut valid at the same weight.
    """

    loops: tuple[str, ...]
    weights: Mapping[str, Fraction | _Infinite]
    external: Mapping[int, str]
    structure: AtomicLinkages | ConnectivityTable
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    __reduce__ = _reduce

    def __post_init__(self) -> None:
        loops, external, loop_set = _declared(self.loops, self.external, "loop", "loops")
        weights = dict(self.weights)
        if set(weights) != loop_set:
            raise ValueError("weights must be given for every loop")
        for loop, w in weights.items():
            if type(w) is not Fraction:
                if isinstance(w, _Infinite):
                    continue
                w = weights[loop] = Fraction(w)
            if w.numerator < 0:
                raise ValueError(f"negative weight on loop {loop!r}")
        index = {name: i for i, name in enumerate(loops)}
        externals = frozenset(external.values())
        party_bits = {party: 1 << index[name] for party, name in external.items()}
        atoms = atoms_at = table = None
        if isinstance(self.structure, AtomicLinkages):
            for atom in self.structure.atoms:
                if not atom <= loop_set:
                    raise ValueError(f"atom {sorted(atom)} references unknown loops")
            atoms = [sum(1 << index[x] for x in atom) for atom in self.structure.atoms]
            atoms_at = [[] for _ in loops]  # the atoms at each loop
            for atom in atoms:
                for i in _indices(atom):
                    atoms_at[i].append(atom)
            # loops in no atom never affect connectivity, so no cut needs them
            linked = sum(1 << i for i, at in enumerate(atoms_at) if at)
        else:
            table = validate_connectivity_table(loops, self.structure)
            linked = (1 << len(loops)) - 1
        cuttable = sum(1 << index[x] for x in loop_set - externals if not isinstance(weights[x], _Infinite))
        # `_names` will hold the name set of every loop mask converted
        _store(
            self, loops=loops, weights=MappingProxyType(weights), external=external, _index=index, _names={},
            _externals=externals, _atoms=atoms, _atoms_at=atoms_at, _table=table, _cuttable=cuttable,
            _candidates=cuttable & linked, _party_bits=party_bits, _external_mask=sum(party_bits.values()),
        )

    @property
    def n(self) -> int:
        return len(self.external) - 1

    @property
    def external_loops(self) -> frozenset[str]:
        return self._externals

    @property
    def internal_loops(self) -> tuple[str, ...]:
        return tuple(name for name in self.loops if name not in self._externals)

    def loop_index(self, name: str) -> int:
        return self._index[name]

    def is_finite(self, name: str) -> bool:
        return not isinstance(self.weights[name], _Infinite)

    # `model`, not `self`: this method is also the public `link_entropy`
    def entropy(model: LinkModel, subsystem: Subsystem) -> Fraction:
        """Weight of the subsystem's minimum loop cut (see `link_min_cut`).

        Reads only the cached weight and loop masks, so it builds no name
        sets and no `LoopCutResult`.
        """
        return _min_cut(model, frozenset(subsystem))[0]


@dataclass(frozen=True)
class LoopCutResult:
    """A min-cut together with the interior/exterior split it induces."""

    cut: frozenset[str]
    weight: Fraction
    interior: frozenset[str]
    exterior: frozenset[str]
    tie_break: str


# ---------------------------------------------------------------------------
# connectivity


def _mask_of(model: LinkModel, names) -> int:
    """Mask of the loops `names`, any iterable; repeats are harmless."""
    index = model._index
    mask = 0
    try:
        for name in names:
            mask |= 1 << index[name]
    except KeyError as exc:
        # the failing name and the rest: right also when `names` is an iterator
        raise ValueError(f"unknown loops {sorted({exc.args[0], *names} - set(index))}") from None
    return mask


def _names_of(model: LinkModel, mask: int) -> frozenset[str]:
    """Name set of a loop mask, built once per model and mask."""
    names = model._names
    if mask not in names:
        names[mask] = frozenset(model.loops[i] for i in _indices(mask))
    return names[mask]


def _indices(mask: int) -> list[int]:
    """Bit positions set in `mask`, ascending; one step per set bit, however high."""
    indices = []
    while mask:
        low = mask & -mask
        indices.append(low.bit_length() - 1)
        mask ^= low
    return indices


def _blocks(model: LinkModel, present: int) -> list[int]:
    """Connected-sublink blocks of the loops in `present`, ordered by lowest bit.

    A table answers by lookup.  With atoms, one pass merges every atom
    inside `present` into the group of atoms it touches; each loop that no
    such atom covers is a block of its own.  The returned list may be
    shared: callers must not mutate it.
    """
    table = model._table
    if table is not None:
        return table[present]
    groups: list[int] = []
    for atom in model._atoms:
        if atom & ~present:
            continue
        # groups are disjoint, so one that meets the merged mask meets `atom`
        apart = []
        for group in groups:
            if group & atom:
                atom |= group
            else:
                apart.append(group)
        apart.append(atom)
        groups = apart
    lows = present  # the lowest loop of every block
    by_low = {}
    for group in groups:
        low = group & -group
        lows &= ~group | low
        by_low[low] = group
    blocks = []
    while lows:
        low = lows & -lows
        blocks.append(by_low.get(low, low))
        lows ^= low
    return blocks


def connected_sublinks(model: LinkModel, subset) -> list[frozenset[str]]:
    """Partition of `subset` into connected sublinks; singletons are their own blocks."""
    names = model._names
    return [names.get(b) or _names_of(model, b) for b in _blocks(model, _mask_of(model, subset))]


# ---------------------------------------------------------------------------
# loop cuts


def _subsystem_externals(model: LinkModel, subsystem: Subsystem) -> tuple[int, int]:
    """Masks of the subsystem's external loops and of every other external loop.

    Kept in the model's cache per valid subsystem; an invalid one raises
    on every call.
    """
    subsystem = frozenset(subsystem)
    sides = model._cache.get(("sides", subsystem))
    if sides is None:
        _check_subsystem(subsystem, model.n)
        # distinct parties name distinct loops, so the sum is the union of their bits
        inside = sum(model._party_bits[party] for party in subsystem)
        sides = model._cache[("sides", subsystem)] = (inside, model._external_mask & ~inside)
    return sides


def _touching(blocks: list[int], inside: int) -> int:
    """Union of the `blocks` that meet the loops `inside`."""
    interior = 0
    for block in blocks:
        if block & inside:
            interior |= block
    return interior


def _interior(model: LinkModel, inside: int, cut: int) -> int:
    """Union of the blocks left after removing the loops `cut` that meet the loops `inside`.

    The cut separates `inside` from any set of loops the interior misses;
    the loops neither cut nor interior form the exterior.
    """
    return _touching(_blocks(model, ((1 << len(model.loops)) - 1) & ~cut), inside)


class _CutSetup(NamedTuple):
    whole: list[int]  # blocks of the whole link
    severed: list[int]  # blocks left after cutting every candidate
    order: list[int]  # candidate indices, ascending
    scale: int  # `scale_of` the candidates' weights
    weight_of: dict[int, int]  # candidate index -> weight times `scale`
    zeros: int  # mask of the zero-weight candidates
    total: int  # scaled weight of cutting every candidate


def _cut_setup(model: LinkModel) -> _CutSetup:
    """What every min-cut of the model reads and no subsystem changes, built on the first min-cut."""
    setup = model._cache.get("cut_setup")
    if setup is None:
        everything = (1 << len(model.loops)) - 1
        order = _indices(model._candidates)
        scale = scale_of(model.weights[model.loops[i]] for i in order)
        weight_of = {i: scaled(model.weights[model.loops[i]], scale) for i in order}
        zeros = sum(1 << i for i in order if not weight_of[i])
        setup = model._cache["cut_setup"] = _CutSetup(
            _blocks(model, everything), _blocks(model, everything & ~model._candidates),
            order, scale, weight_of, zeros, sum(weight_of.values()),
        )
    return setup


def _check_cut(model: LinkModel, cut: int) -> None:
    """Raise ValueError when the loop mask `cut` holds an external or infinite-weight loop."""
    bad = cut & ~model._cuttable
    if bad:
        raise ValueError(f"cut contains external or infinite-weight loops: {sorted(_names_of(model, bad))}")


def is_valid_loop_cut(model: LinkModel, subsystem: Subsystem, cut) -> bool:
    """True when removing `cut` leaves the subsystem unlinked from all other externals."""
    inside, outside = _subsystem_externals(model, subsystem)
    cut = _mask_of(model, cut)
    _check_cut(model, cut)
    return not _interior(model, inside, cut) & outside


def _chain(model: LinkModel, inside: int, outside: int, cut: int) -> int:
    """Loops of a shortest chain of atoms that `cut` leaves whole, from `inside` to `outside`; 0 if none.

    A breadth-first search over loops, stepping through the atoms at each
    loop, so the chain has as few atoms as any.
    """
    atoms_at = model._atoms_at
    came: dict[int, tuple[int, int]] = {}  # loop -> (atom that reached it, loop it was reached from)
    reached = inside
    frontier = _indices(inside)
    while frontier:
        following = []
        for i in frontier:
            for atom in atoms_at[i]:
                new = atom & ~reached
                if not new or atom & cut:
                    continue
                reached |= new
                for j in _indices(new):
                    came[j] = (atom, i)
                    following.append(j)
                if new & outside:
                    j = (new & outside).bit_length() - 1
                    chain = 0
                    while j in came:
                        atom, j = came[j]
                        chain |= atom
                    return chain
        frontier = following
    return 0


def _search_min_cut(model: LinkModel, inside: int, outside: int) -> tuple[Fraction, int]:
    """Weight and mask of the tie-broken minimum cut by branching on witnesses.

    Removing loops only splits blocks, so every superset of a valid cut is
    valid.  A node is a cut S with a set of banned loops; while S fails, a
    witness holds candidate loops one of which every valid extension must
    cut.  Child i takes the i-th allowed witness loop and bans the ones
    before it, so the children split the node's valid extensions.  With
    atoms the witness is a shortest chain of whole atoms from the
    subsystem to the other externals.  A table may hold a block together
    through a loop outside it, so there every allowed candidate is the
    witness, which is the plain subset search in index order.

    Weights are the cut setup's scaled `int`s, keys are (weight, sorted
    loop indices) and nodes heavier than the best key so far are dropped.
    Under a valid S only zero-weight loops keep the weight; one below
    max(S) makes the index list smaller where it first differs, one above
    only lengthens it.  So S plus every allowed zero-weight loop below
    max(S) is the best cut under the node.  The search is exponential in
    the worst case.
    """
    candidates = model._candidates
    _, _, order, scale, weight_of, zeros, total = _cut_setup(model)
    table = model._table is not None
    # cutting every candidate is valid (the caller checked), so it bounds the search
    best = (total, order, candidates)

    def descend(cut: int, banned: int, weight: int) -> None:
        nonlocal best
        allowed = candidates & ~cut & ~banned
        if table:
            valid, witness = not _interior(model, inside, cut) & outside, allowed
        else:
            witness = _chain(model, inside, outside, cut)
            valid, witness = not witness, witness & allowed
        if valid:
            # the root cut (empty) never separates, so max(S) exists
            cut |= zeros & allowed & ((1 << cut.bit_length() - 1) - 1)
            key = (weight, _indices(cut), cut)
            if key < best:
                best = key
            return
        for i in _indices(witness):
            if weight + weight_of[i] <= best[0]:
                descend(cut | 1 << i, banned, weight + weight_of[i])
            banned |= 1 << i

    descend(0, 0, 0)
    return Fraction(best[0], scale), best[2]


def _pair_network(model: LinkModel) -> CutNetwork | None:
    """Node-split cut network of a pair-atom model; None for any other structure.

    Loop i splits into in(i) = 2i -> out(i) = 2i + 1 (arc 2i) of its scaled
    weight, or `big` if it is no candidate; atom {u, v} adds out(u) -> in(v)
    and out(v) -> in(u).  External and candidate loops are the terminals.
    A cut is then a vertex separator and the max flow its minimum weight.
    """
    if "pair_network" not in model._cache:
        network = None
        if model._atoms is not None and all(atom.bit_count() == 2 for atom in model._atoms):
            order = _indices(model._candidates)
            network = CutNetwork(2 * len(model.loops), [model.weights[model.loops[i]] for i in order])
            caps = dict(zip(order, network.capacities))
            for i in range(len(model.loops)):
                network.add(2 * i, 2 * i + 1, caps.get(i, network.big))
            for atom in model._atoms:
                u, v = _indices(atom)
                network.add(2 * u + 1, 2 * v, network.big)
                network.add(2 * v + 1, 2 * u, network.big)
            for i in _indices(model._candidates | model._external_mask):
                network.slot(i, 2 * i, 2 * i + 1)
        model._cache["pair_network"] = network
    return model._cache["pair_network"]


def _flow_min_cut(model: LinkModel, inside: int, outside: int) -> tuple[Fraction, int]:
    """Weight and mask of the tie-broken minimum cut of a pair-atom model by max-flow."""
    cut_network = _pair_network(model)
    total, cap = cut_network.solve(_indices(inside), _indices(outside))
    # Build the lexicographically smallest minimum cut in ascending index
    # order.  Loop i lies in some minimum cut iff the residual closure of
    # {source, in(i)} reaches neither out(i) nor the sink; that closure is
    # then the smallest minimum cut severing i.  A loop left out lies in no
    # minimum cut, so leaving it out changes nothing.  Taking i opens its
    # slots, which keeps exactly the minimum cuts that sever i without
    # changing the minimum, so one max-flow serves every decision.  Minimum
    # cuts are the source sides closed under residual arcs, the same sets
    # for every maximum flow, so no decision depends on which maximum flow
    # was found, on closed slots, or on whether externals are merged into
    # the source and sink or tied to them by `big` arcs.  The chosen loops
    # lie in one minimum cut and any separating set weighs at least the
    # flow, so separation is asked only once the chosen weight reaches it.
    chosen = weight = 0
    for i in _indices(model._candidates):
        if cap[2 * i]:
            continue  # a residual split arc leads from in(i) straight to out(i)
        closure = cut_network.reach(cap, (cut_network.source, 2 * i), cut_network.sink)
        if closure[2 * i + 1] != -1 or closure[cut_network.sink] != -1:
            continue
        chosen |= 1 << i
        weight += cut_network.cap[2 * i]
        for e in cut_network.slots[i]:
            cap[e] = cut_network.big
        if weight >= total and not _interior(model, inside, chosen) & outside:
            break
    else:
        raise RuntimeError("the flow tie-break ran out of loops before separating")
    if weight != total:
        raise RuntimeError("the flow tie-break built a cut whose weight differs from the max flow")
    return Fraction(total, cut_network.scale), chosen


def link_min_cut(model: LinkModel, subsystem: Subsystem) -> LoopCutResult:
    """Minimum-weight valid loop cut for the subsystem, with deterministic tie-break.

    Cuts are drawn from the candidate loops: the finite internal loops
    that lie in some atom, or every finite internal loop of a table.
    Among equal-weight candidate cuts the lexicographically smallest
    sorted list of loop indices wins.  A loop in no atom never changes
    connectivity, so it never joins a cut, not even at weight 0.  The
    interior collects every block that remains linked to the subsystem's
    external loops after the cut is removed.

    When every atom is a pair of loops, a minimum cut is a minimum vertex
    separator, found by one max-flow on the model's node-split network;
    the tie-break takes, in ascending index order until the cut separates,
    each loop that some minimum cut agreeing with the earlier choices
    contains, read off the residual network.  Larger atoms and connectivity
    tables use `_search_min_cut`, which branches on the loops of a witness
    every valid cut must meet; it is exponential in the worst case.

    The result, with its name sets, is built from the cached masks on the
    first request for a subsystem and cached apart from them, so
    `LinkModel.entropy` never pays for it.
    """
    subsystem = frozenset(subsystem)
    result = model._cache.get(("cut", subsystem))
    if result is None:
        weight, cut, interior, exterior = _min_cut(model, subsystem)
        result = model._cache[("cut", subsystem)] = LoopCutResult(
            cut=_names_of(model, cut),
            weight=weight,
            interior=_names_of(model, interior),
            exterior=_names_of(model, exterior),
            tie_break="minimum weight, then lexicographically smallest sorted loop-index list",
        )
    return result


def _min_cut(model: LinkModel, subsystem: Subsystem) -> tuple[Fraction, int, int, int]:
    """Weight of the subsystem's min-cut and the masks of its cut, interior and exterior, cached."""
    cached = model._cache.get(("mincut", subsystem))
    if cached is not None:
        return cached
    inside, outside = _subsystem_externals(model, subsystem)
    setup = _cut_setup(model)
    interior = _touching(setup.whole, inside)
    if not interior & outside:
        weight, cut = _ZERO, 0
    elif _touching(setup.severed, inside) & outside:
        raise UncuttableSubsystemError(
            f"externals of {sorted(subsystem)} stay linked to the rest after removing every internal loop"
        )
    else:
        search = _search_min_cut if _pair_network(model) is None else _flow_min_cut
        weight, cut = search(model, inside, outside)
        interior = _interior(model, inside, cut)
    exterior = ((1 << len(model.loops)) - 1) & ~cut & ~interior
    cached = model._cache[("mincut", subsystem)] = (weight, cut, interior, exterior)
    return cached


link_entropy = LinkModel.entropy
link_entropy_vector = entropy_vector


# ---------------------------------------------------------------------------
# irreducible sublinks and bridges


def is_irreducible(model: LinkModel, subset) -> bool:
    """True when the subset on its own forms a single linked block of size >= 2."""
    subset = frozenset(subset)
    return len(subset) >= 2 and len(_blocks(model, _mask_of(model, subset))) == 1


def bridge_oracle(model: LinkModel, subsystem: Subsystem, candidate) -> bool:
    """Decide whether `candidate` is a minimal bridge across the subsystem's min-cut.

    A bridge is an irreducible sublink meeting the cut interior, the cut
    exterior, and the min-cut itself; minimal means no proper subset is
    also a bridge.  The answer is membership in `minimal_bridges`, whose
    growth is exponential in the worst case and has no node budget;
    unknown loop names raise ValueError.
    """
    return _mask_of(model, candidate) in _bridges(model, frozenset(subsystem))


def minimal_bridges(model: LinkModel, subsystem: Subsystem) -> tuple[frozenset[str], ...]:
    """Every minimal bridge across the subsystem's min-cut, sorted by size then indices."""
    return tuple(_names_of(model, b) for b in _bridges(model, frozenset(subsystem)))


def _bridges(model: LinkModel, subsystem: Subsystem) -> tuple[int, ...]:
    """Masks of the minimal bridges of `minimal_bridges`, cached per subsystem.

    Neither structure tests the cut: a set of loops that is one block on
    its own and misses the cut lies, by deletion-monotonicity, inside one
    block of what the cut leaves, so it cannot meet both the interior and
    the exterior.

    A table's irreducible sublinks are its single-block entries, visited in
    table order: by size, then loop indices.  Every crossing proper subset
    of a bridge comes first and is either minimal or contains a minimal one.

    With atoms, bridges are grown from the subsystem.  A minimal bridge is
    the union of a chain of atoms, each adding loops, in which only the
    first meets the interior and only the last the exterior: cutting any
    crossing chain inside a bridge at its last interior atom and at its
    first exterior atom leaves a bridge.  So unions start from the atoms
    that meet the interior and grow by an atom at one of their loops that
    adds loops and misses the interior; a union meeting the exterior stops
    growing.  Unions are popped by size, then loop indices, so any bridge
    inside a union is recorded before it, and a union that contains one is
    dropped.  The growth visits irreducible sublinks only, each once; it is
    exponential in the worst case and has no node budget.
    """
    cached = model._cache.get(("bridges", subsystem))
    if cached is not None:
        return cached
    _, _, interior, exterior = _min_cut(model, subsystem)
    minimal: list[int] = []
    if model._table is not None:
        for b, blocks in model._table.items():
            if len(blocks) == 1 and b & interior and b & exterior and all(m & ~b for m in minimal):
                minimal.append(b)
    else:
        seen = {atom for atom in model._atoms if atom & interior}
        heap = [(b.bit_count(), _indices(b), b) for b in seen]
        heapify(heap)
        while heap:
            union = heappop(heap)[2]
            if any(not m & ~union for m in minimal):
                continue
            if union & exterior:
                minimal.append(union)
                continue
            for i in _indices(union):
                for atom in model._atoms_at[i]:
                    grown = union | atom
                    if grown not in seen and not atom & interior:
                        seen.add(grown)
                        heappush(heap, (grown.bit_count(), _indices(grown), grown))
    result = model._cache[("bridges", subsystem)] = tuple(minimal)
    return result


def has_single_crossing_bridges(model: LinkModel) -> bool:
    """True when every minimal bridge of every subsystem meets its min-cut in one loop.

    This is the applicability domain of the bridge-crediting machinery:
    declared structures can route a minimal bridge through two cut loops
    in series (a chain interior-cut-cut-exterior), which no crediting
    scheme that pays one loop per bridge can account for.
    """
    for subsystem in all_subsystems(model.n):
        cut = _min_cut(model, subsystem)[1]
        if any((b & cut).bit_count() != 1 for b in _bridges(model, subsystem)):
            return False
    return True


def satisfies_strong_subadditivity(model: LinkModel) -> bool:
    """Check S(XY) + S(YZ) >= S(Y) + S(XYZ) over all disjoint subsystem triples.

    Subadditivity is a theorem for every declared structure (the union of
    two cuts always cuts the union), but strong subadditivity is not:
    declared connectivity can make a lone subsystem expensive to isolate
    while larger groups cut around it cheaply.  Genuine links never do
    that, so failing models are combinatorial artifacts outside the
    geometry this class abstracts.
    """
    subs = all_subsystems(model.n)
    values = {sub: link_entropy(model, sub) for sub in subs}
    for x in subs:
        for y in subs:
            if x & y:
                continue
            for z in subs:
                if z & (x | y):
                    continue
                if values[x | y] + values[y | z] < values[y] + values[x | y | z]:
                    return False
    return True


def k_loop_stratification(model: LinkModel, subsystem: Subsystem) -> dict[str, int]:
    """Smallest minimal-bridge size through each min-cut loop.

    The strata partition the min-cut; a cut loop outside every minimal
    bridge signals a non-minimal cut or an inconsistent structure.
    Loops appear in the order their first bridge reaches them, a
    bridge's cut loops in declaration order.
    """
    subsystem = frozenset(subsystem)
    cut = _min_cut(model, subsystem)[1]
    strata: dict[int, int] = {}
    for bridge in _bridges(model, subsystem):
        for i in _indices(bridge & cut):
            strata.setdefault(i, bridge.bit_count())
    missing = sorted(model.loops[i] for i in _indices(cut) if i not in strata)
    if missing:
        raise StratificationError(
            f"min-cut loops {missing} for subsystem {sorted(subsystem)} lie in no minimal bridge"
        )
    return {model.loops[i]: size for i, size in strata.items()}


# ---------------------------------------------------------------------------
# conversions and built-ins


def hypergraph_to_link(hypergraph: Hypergraph) -> LinkModel:
    """Replace vertices with uncuttable loops and hyperedges with weighted loops.

    Each hyperedge loop is Hopf-linked (2-atom) to every member's vertex
    loop, which reproduces the hypergraph's min-cut weights exactly.
    """
    loops = list(hypergraph.vertices)
    taken = set(loops)
    weights: dict[str, Fraction | _Infinite] = {v: INFINITE for v in hypergraph.vertices}
    atoms: list[frozenset[str]] = []
    for i, (members, w) in enumerate(hypergraph.hyperedges):
        name = f"e{i}"
        while name in taken:
            name += "_"
        taken.add(name)
        loops.append(name)
        weights[name] = w
        for member in sorted(members):
            atoms.append(frozenset({name, member}))
    return LinkModel(loops=loops, weights=weights, external=hypergraph.external, structure=AtomicLinkages(atoms))


RAY15_SEPARATING_INEQUALITY = (
    "S(AB) + S(DE) + S(ACD) + 2 S(ACE) + S(BCD) + S(ABDE)"
    " >= S(AC) + S(AE) + S(BD) + 2 S(ABCD) + S(ACDE)"
)


def ray15_link() -> LinkModel:
    """Ten-loop model realizing the ray-15 entropy vector (five parties plus purifier F).

    One weight-2 hub loop and three weight-1 loops tie the external pairs
    (A,B), (D,E), (C,F) together through Brunnian triples.  Declaring the
    hub before the weight-1 loops makes the tie-break reproduce the
    expected cuts (for instance, the pair AC cuts the hub, not two
    weight-1 loops).
    """
    loops = ("A", "B", "C", "D", "E", "F", "w2", "u1", "u2", "u3")
    weights: dict[str, Fraction | _Infinite] = {name: Fraction(1) for name in loops}
    weights["w2"] = Fraction(2)
    atoms = (
        frozenset({"A", "u1", "w2"}),
        frozenset({"B", "u1", "w2"}),
        frozenset({"D", "u2", "w2"}),
        frozenset({"E", "u2", "w2"}),
        frozenset({"C", "u3", "w2"}),
        frozenset({"F", "u3", "w2"}),
    )
    external = {i + 1: name for i, name in enumerate("ABCDEF")}
    return LinkModel(loops=loops, weights=weights, external=external, structure=AtomicLinkages(atoms))
