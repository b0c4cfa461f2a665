"""Link model: connectivity, loop cuts, bridges, stratification, conversion."""

import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import linkcone
from linkcone.core import all_subsystems, evaluate_inequality, parse_inequality, party_letter
from linkcone.generate import (
    generate_bridge_regular_link_model,
    generate_hypergraph,
    generate_link_model,
)
from linkcone.hypergraphs import Hypergraph, hypergraph_entropy_vector
from linkcone.links import (
    INFINITE,
    AtomicLinkages,
    ConnectivityTable,
    LinkModel,
    MonotonicityError,
    StratificationError,
    UncuttableSubsystemError,
    _blocks,
    _indices,
    _interior,
    _irreducible_family,
    _names_of,
    _subsystem_externals,
    bridge_oracle,
    connected_sublinks,
    has_single_crossing_bridges,
    hypergraph_to_link,
    is_irreducible,
    is_valid_loop_cut,
    k_loop_stratification,
    link_entropy,
    link_entropy_vector,
    link_min_cut,
    minimal_bridges,
    ray15_link,
    validate_connectivity_table,
)

from oracles import (
    _bfs_blocks,
    bruteforce_irreducible_family,
    bruteforce_link_mincut,
    bruteforce_minimal_bridges,
    exhaustive_hypergraph_entropy,
    reference_cut_sides,
    reference_link_min_cut,
)

RAY15_ENTRIES = (1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 2, 2, 1) + (2,) * 10 + (2, 2, 1, 2, 2, 1)


def hopf_chain() -> LinkModel:
    # external a (party) and o (purifier) joined through one internal loop m
    return LinkModel(
        loops=("a", "m", "o"),
        weights={"a": Fraction(1), "m": Fraction(2), "o": Fraction(1)},
        external={1: "a", 2: "o"},
        structure=AtomicLinkages((frozenset({"a", "m"}), frozenset({"m", "o"}))),
    )


class TestConnectedSublinks:
    def test_hopf_chain_connected(self):
        m = hopf_chain()
        assert connected_sublinks(m, {"a", "m", "o"}) == [frozenset({"a", "m", "o"})]

    def test_no_atom_contained(self):
        m = hopf_chain()
        assert connected_sublinks(m, {"a", "o"}) == [frozenset({"a"}), frozenset({"o"})]

    def test_brunnian_pair_unlinked(self):
        m = LinkModel(
            loops=("x", "y", "z"),
            weights={"x": Fraction(1), "y": Fraction(1), "z": Fraction(1)},
            external={1: "x", 2: "y"},
            structure=AtomicLinkages((frozenset({"x", "y", "z"}),)),
        )
        assert connected_sublinks(m, {"x", "y"}) == [frozenset({"x"}), frozenset({"y"})]
        assert connected_sublinks(m, {"x", "y", "z"}) == [frozenset({"x", "y", "z"})]

    def test_unknown_loop(self):
        with pytest.raises(ValueError):
            connected_sublinks(hopf_chain(), {"nope"})

    @pytest.mark.parametrize("make", [set, list, iter], ids=["set", "list", "iterator"])
    def test_any_iterable_of_names(self, make):
        # repeats are harmless, and every unknown name is reported, also from a one-shot iterator
        m = hopf_chain()
        assert connected_sublinks(m, make(["a", "m", "a", "o"])) == [frozenset({"a", "m", "o"})]
        assert connected_sublinks(m, make(["o", "a"])) == [frozenset({"a"}), frozenset({"o"})]
        with pytest.raises(ValueError, match=r"^unknown loops \['nope', 'zz'\]$"):
            connected_sublinks(m, make(["a", "zz", "m", "nope", "zz"]))
        assert is_valid_loop_cut(m, frozenset({1}), make(["m", "m"]))
        with pytest.raises(ValueError, match=r"^unknown loops \['zz'\]$"):
            is_valid_loop_cut(m, frozenset({1}), make(["m", "zz"]))

    def test_name_sets_are_shared_per_model(self):
        # a block's name set is built once per model; repeated queries return the same object
        m = hopf_chain()
        first = connected_sublinks(m, {"a", "m", "o"})[0]
        assert connected_sublinks(m, ["o", "m", "a"])[0] is first
        assert link_min_cut(m, frozenset({1})).cut is connected_sublinks(m, {"m"})[0]

    @pytest.mark.parametrize("seed", range(16))
    def test_blocks_match_bfs_on_every_subset(self, seed):
        # atoms of 2-5 loops that overlap, plus atoms nested inside others
        rng = random.Random(seed)
        names = [f"x{i}" for i in range(rng.randint(6, 10))]
        atoms = [frozenset(rng.sample(names, rng.randint(2, 5))) for _ in range(rng.randint(1, 6))]
        atoms += [frozenset(rng.sample(sorted(a), 2)) for a in atoms if len(a) > 2 and rng.random() < 0.5]
        m = LinkModel(
            loops=tuple(names),
            weights={x: Fraction(1) for x in names},
            external={1: names[0], 2: names[-1]},
            structure=AtomicLinkages(tuple(atoms)),
        )
        for present in range(1 << len(names)):
            subset = frozenset(x for i, x in enumerate(names) if present >> i & 1)
            expected = sorted(
                (sum(1 << m.loop_index(x) for x in b) for b in _bfs_blocks(m, subset)), key=lambda b: b & -b
            )
            assert _blocks(m, present) == expected, (seed, sorted(subset))


def test_indices_match_the_bit_walk():
    # set bits only, ascending, at any width and density, and none for 0
    rng = random.Random(5)
    masks = [0, 1, 1 << 64, (1 << 64) - 1, (1 << 200) | 1]
    for width in (1, 12, 20, 63, 64, 65, 130):
        for density in (0.05, 0.3, 0.5, 0.8, 1.0):
            masks += [sum(1 << i for i in range(width) if rng.random() < density) for _ in range(20)]
    for mask in masks:
        assert _indices(mask) == [i for i in range(mask.bit_length()) if mask >> i & 1], hex(mask)


class TestConnectivityTable:
    def _table(self, blocks):
        return ConnectivityTable(blocks)

    def test_table_is_read_only(self):
        fs = frozenset
        blocks = {fs(): (), fs("a"): (fs("a"),), fs("b"): (fs("b"),), fs("ab"): (fs("ab"),)}
        table = ConnectivityTable(blocks)
        model = LinkModel(("a", "b"), {"a": 1, "b": 1}, {1: "a", 2: "b"}, table)
        with pytest.raises(TypeError):
            table.blocks_by_subset[fs("ab")] = (fs("a"), fs("b"))
        # the caller's dict is copied, so changing it leaves the table as validated
        blocks[fs("ab")] = (fs("a"), fs("b"))
        assert table.blocks(fs("ab")) == (fs("ab"),)
        assert connected_sublinks(model, {"a", "b"}) == [fs("ab")]

    def test_valid_table_loads(self):
        fs = frozenset
        blocks = {
            fs(): (),
            fs({"a"}): (fs({"a"}),),
            fs({"b"}): (fs({"b"}),),
            fs({"a", "b"}): (fs({"a", "b"}),),
        }
        model = LinkModel(
            loops=("a", "b"),
            weights={"a": Fraction(1), "b": Fraction(1)},
            external={1: "a", 2: "b"},
            structure=self._table(blocks),
        )
        assert connected_sublinks(model, {"a", "b"}) == [fs({"a", "b"})]

    def test_min_cut_through_table_structure(self):
        # four-loop chain a-m1-m2-o declared by an explicit table
        fs = frozenset
        loops = ("a", "m1", "m2", "o")
        adjacency = {("a", "m1"), ("m1", "m2"), ("m2", "o")}

        def blocks_of(subset):
            blocks = []
            seen = set()
            for start in subset:
                if start in seen:
                    continue
                component = {start}
                frontier = [start]
                while frontier:
                    node = frontier.pop()
                    for x in subset:
                        if x not in component and (
                            (node, x) in adjacency or (x, node) in adjacency
                        ):
                            component.add(x)
                            frontier.append(x)
                seen |= component
                blocks.append(fs(component))
            return tuple(blocks)

        import itertools as it

        table = {
            fs(c): blocks_of(c)
            for size in range(len(loops) + 1)
            for c in it.combinations(loops, size)
        }
        model = LinkModel(
            loops=loops,
            weights={"a": Fraction(1), "m1": Fraction(3), "m2": Fraction(1), "o": Fraction(1)},
            external={1: "a", 2: "o"},
            structure=ConnectivityTable(table),
        )
        cut = link_min_cut(model, frozenset({1}))
        assert (cut.cut, cut.weight) == (frozenset({"m2"}), 1)
        assert cut.interior == frozenset({"a", "m1"})

    def test_block_held_together_from_outside(self):
        # {a, b} is one block exactly when y is present too, so y lies in no
        # block that meets both externals; a witness drawn from such a block
        # would miss y and cut {y, z} at weight 6
        fs = frozenset
        loops = ("a", "b", "y", "z")
        table = {}
        for size in range(len(loops) + 1):
            for combo in itertools.combinations(loops, size):
                subset = fs(combo)
                if {"a", "b", "y"} <= subset:
                    table[subset] = (fs({"a", "b"}),) + tuple(fs({x}) for x in sorted(subset - {"a", "b"}))
                else:
                    table[subset] = tuple(fs({x}) for x in sorted(subset))
        model = LinkModel(
            loops=loops,
            weights={"a": Fraction(1), "b": Fraction(1), "y": Fraction(1), "z": Fraction(5)},
            external={1: "a", 2: "b"},
            structure=ConnectivityTable(table),
        )
        cut = link_min_cut(model, frozenset({1}))
        assert (cut.cut, cut.weight) == (fs({"y"}), 1)
        assert cut == reference_link_min_cut(model, frozenset({1}))

    def test_monotonicity_violation_detected(self):
        fs = frozenset
        # deleting c from {a,b,c} must not link a and b, but this table says it does
        blocks = {
            fs(): (),
            fs({"a"}): (fs({"a"}),),
            fs({"b"}): (fs({"b"}),),
            fs({"c"}): (fs({"c"}),),
            fs({"a", "b"}): (fs({"a", "b"}),),
            fs({"a", "c"}): (fs({"a"}), fs({"c"})),
            fs({"b", "c"}): (fs({"b"}), fs({"c"})),
            fs({"a", "b", "c"}): (fs({"a"}), fs({"b"}), fs({"c"})),
        }
        with pytest.raises(MonotonicityError):
            validate_connectivity_table(("a", "b", "c"), self._table(blocks))

    @staticmethod
    def _singletons(**blocks):
        """Table on loops a, b, c, d where every subset falls apart, except the subsets named in `blocks`."""
        table = {frozenset(c): tuple(frozenset({x}) for x in c) for k in range(5) for c in itertools.combinations("abcd", k)}
        for key, value in blocks.items():
            if value is None:
                del table[frozenset(key)]
            else:
                table[frozenset(key)] = tuple(frozenset(b) for b in value)
        return ConnectivityTable(table)

    # {a,b} is linked in {a,b}, {a,b,c} and {a,b,d} but not in {a,b,c,d}: deleting c or d
    # links it, and the error names the first loop in declaration order
    _UNMONOTONE = {"ab": ["ab"], "abc": ["ab", "c"], "abd": ["ab", "d"]}

    @pytest.mark.parametrize(
        "build, error, message",
        [
            (lambda t: LinkModel(tuple("abcd"), dict.fromkeys("abcd", 1), {1: "a", 2: "b"}, t._singletons(ac=None)),
             ValueError, "connectivity table has no entry for subset ['a', 'c']"),
            (lambda t: validate_connectivity_table(tuple("abcdefghijklmno"), ConnectivityTable({})),
             ValueError, "connectivity tables are supported for at most 14 loops"),
            (lambda t: validate_connectivity_table(tuple("abcd"), t._singletons(ac=["a", "c", ""])),
             ValueError, "empty block in connectivity table"),
            (lambda t: validate_connectivity_table(tuple("abcd"), t._singletons(ac=["ac", "a"])),
             ValueError, "overlapping blocks for subset ['a', 'c']"),
            (lambda t: validate_connectivity_table(tuple("abcd"), t._singletons(ac=["a"])),
             ValueError, "blocks for subset ['a', 'c'] do not partition it"),
            (lambda t: validate_connectivity_table(tuple("abcd"), t._singletons(**t._UNMONOTONE)),
             MonotonicityError, "deleting 'c' from ['a', 'b', 'c', 'd'] links previously unlinked loops"),
            (lambda t: LinkModel(tuple("abcd"), dict.fromkeys("abcd", 1), {1: "a", 2: "b"}, t._singletons(e=["e"])),
             ValueError, "connectivity table has 17 entries, more than the 16 subsets of its loops"),
            (lambda t: validate_connectivity_table(tuple("abc"), t._singletons()),
             ValueError, "connectivity table has 16 entries, more than the 8 subsets of its loops"),
            (lambda t: AtomicLinkages((frozenset({"a"}),)), ValueError, "atoms must contain at least two loops"),
            (lambda t: AtomicLinkages([["a", "a", "c"]]), ValueError, "repeated name 'a' in atom ['a', 'a', 'c']"),
            (lambda t: AtomicLinkages([("b", "c"), iter("cdc")]), ValueError,
             "repeated name 'c' in atom ['c', 'd', 'c']"),
        ],
    )
    def test_invalid_structure_messages(self, build, error, message):
        with pytest.raises(error) as raised:
            build(self)
        assert str(raised.value) == message

    @pytest.mark.parametrize("make", [set, frozenset, list, tuple, iter], ids=["set", "frozenset", "list", "tuple", "iterator"])
    def test_atoms_of_distinct_names_from_any_iterable(self, make):
        # each atom is read once, so a generator works; a set passes as it is
        atoms = AtomicLinkages([make(["a", "b"]), make(["b", "c", "d"])]).atoms
        assert atoms == (frozenset({"a", "b"}), frozenset({"b", "c", "d"}))
        assert all(type(a) is frozenset for a in atoms)

    def test_monotonicity_error_ignores_hash_seed(self):
        script = (
            "import itertools\n"
            "from linkcone.links import ConnectivityTable, validate_connectivity_table\n"
            "fs = frozenset\n"
            "table = {fs(c): tuple(fs(x) for x in c) for k in range(5) for c in itertools.combinations('abcd', k)}\n"
            "for key, blocks in %r.items():\n"
            "    table[fs(key)] = tuple(fs(b) for b in blocks)\n"
            "try:\n"
            "    validate_connectivity_table(tuple('abcd'), ConnectivityTable(table))\n"
            "except ValueError as exc:\n"
            "    print(exc)\n"
        ) % self._UNMONOTONE
        src = str(Path(linkcone.__file__).parent.parent)
        messages = set()
        for seed in ("1", "2"):
            env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
            proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
            assert proc.returncode == 0, proc.stderr
            messages.add(proc.stdout)
        assert messages == {"deleting 'c' from ['a', 'b', 'c', 'd'] links previously unlinked loops\n"}


class TestTableMatchesAtoms:
    """A table spelling out an atom structure's blocks must behave exactly like the atoms."""

    @staticmethod
    def _pair(seed):
        atoms_model = generate_link_model(2 + seed % 2, loops=6 + seed % 5, atoms=3 + seed % 6,
                                          max_arity=3, seed=seed)
        loops = atoms_model.loops
        table = {
            frozenset(c): tuple(_bfs_blocks(atoms_model, frozenset(c)))
            for size in range(len(loops) + 1)
            for c in itertools.combinations(loops, size)
        }
        table_model = LinkModel(
            loops=loops,
            weights=atoms_model.weights,
            external=atoms_model.external,
            structure=ConnectivityTable(table),
        )
        return atoms_model, table_model, table

    @pytest.mark.parametrize("seed", range(12))
    def test_same_answers(self, seed):
        atoms_model, table_model, table = self._pair(seed)
        for subset in table:
            assert connected_sublinks(table_model, subset) == connected_sublinks(atoms_model, subset)
        for sub in all_subsystems(atoms_model.n):
            a, t = link_min_cut(atoms_model, sub), link_min_cut(table_model, sub)
            assert (t.cut, t.weight, t.interior, t.exterior) == (a.cut, a.weight, a.interior, a.exterior)
            assert minimal_bridges(table_model, sub) == minimal_bridges(atoms_model, sub)
        assert _irreducible_family(table_model) == _irreducible_family(atoms_model)


class TestFamilyMatchesBruteForce:
    """Atom-union growth of the irreducible family against BFS over every loop subset."""

    @pytest.mark.parametrize("loops", range(6, 14))
    @pytest.mark.parametrize("atoms", [0, 3, 7])
    def test_family_and_bridges(self, loops, atoms):
        model = generate_link_model(2 + loops % 2, loops, atoms, max_arity=2 + (loops + atoms) % 3,
                                    seed=100 * loops + atoms)
        family = bruteforce_irreducible_family(model)
        assert list(_irreducible_family(model)) == family
        assert atoms or not family
        for sub in all_subsystems(model.n):
            expected = bruteforce_minimal_bridges(model, family, link_min_cut(model, sub))
            assert list(minimal_bridges(model, sub)) == expected


class TestLoopCuts:
    def test_ray15_valid_cut_examples(self):
        m = ray15_link()
        ac = frozenset({1, 3})
        assert is_valid_loop_cut(m, ac, {"w2"})
        assert not is_valid_loop_cut(m, ac, {"u3"})

    def test_cut_with_external_rejected(self):
        with pytest.raises(ValueError):
            is_valid_loop_cut(ray15_link(), frozenset({1}), {"A"})

    def test_cut_with_unknown_loop_rejected(self):
        with pytest.raises(ValueError, match=r"^unknown loops \['zz'\]$"):
            is_valid_loop_cut(ray15_link(), frozenset({1}), {"zz", "u1"})

    def test_cut_with_infinite_loop_rejected(self):
        h = Hypergraph(("a", "o"), {1: "a", 2: "o"}, ((frozenset({"a", "o"}), Fraction(1)),))
        m = hypergraph_to_link(h)
        with pytest.raises(ValueError):
            is_valid_loop_cut(m, frozenset({1}), {"a"})

    def test_bad_subsystem_raises_on_every_call(self):
        # the external masks are cached per valid subsystem only
        m = ray15_link()
        for _ in range(2):
            for bad in ({6}, set(), [0, 1]):
                with pytest.raises(ValueError, match=r"^subsystem must be a nonempty subset of \[5\]$"):
                    is_valid_loop_cut(m, bad, {"w2"})
            assert is_valid_loop_cut(m, [1, 3], {"w2"})
        assert _subsystem_externals(m, [3, 1]) is _subsystem_externals(m, frozenset({1, 3}))

    def test_maximal_cut_validity(self):
        m = ray15_link()
        internal = {"w2", "u1", "u2", "u3"}
        for sub in all_subsystems(5):
            assert is_valid_loop_cut(m, sub, internal)

    def test_ray15_min_cuts(self):
        m = ray15_link()
        ab = link_min_cut(m, frozenset({1, 2}))
        assert (ab.cut, ab.weight) == (frozenset({"u1"}), 1)
        bcd = link_min_cut(m, frozenset({2, 3, 4}))
        assert (bcd.cut, bcd.weight) == (frozenset({"w2"}), 2)
        ac = link_min_cut(m, frozenset({1, 3}))
        assert ac.cut == frozenset({"w2"})
        assert ac.interior == frozenset({"A", "C"})
        assert ac.exterior == frozenset({"u1", "u2", "u3", "B", "D", "E", "F"})

    def test_hopf_chain_min_cut(self):
        m = hopf_chain()
        cut = link_min_cut(m, frozenset({1}))
        assert (cut.cut, cut.weight) == (frozenset({"m"}), 2)
        assert cut.interior == frozenset({"a"})

    def test_cut_partitions_loops(self):
        m = ray15_link()
        for sub in all_subsystems(5):
            cut = link_min_cut(m, sub)
            pieces = [cut.cut, cut.interior, cut.exterior]
            assert frozenset().union(*pieces) == frozenset(m.loops)
            assert sum(len(p) for p in pieces) == len(m.loops)
            inside = {m.external[i] for i in sub}
            assert cut.interior & m.external_loops == inside

    def test_uncuttable_externals(self):
        m = LinkModel(
            loops=("a", "b", "u"),
            weights={"a": Fraction(1), "b": Fraction(1), "u": Fraction(1)},
            external={1: "a", 2: "b"},
            structure=AtomicLinkages((frozenset({"a", "b"}),)),
        )
        # the error is not cached: the second call, on a warm cut setup, raises too
        for _ in range(2):
            with pytest.raises(UncuttableSubsystemError):
                link_min_cut(m, frozenset({1}))

    def test_no_atoms_zero_vector(self):
        m = LinkModel(
            loops=("a", "b", "o", "u"),
            weights={k: Fraction(1) for k in ("a", "b", "o", "u")},
            external={1: "a", 2: "b", 3: "o"},
            structure=AtomicLinkages(()),
        )
        assert link_entropy_vector(m).entries == (Fraction(0),) * 3

    def test_zero_weight_loop_in_no_atom_never_joins_a_cut(self):
        # cuts are drawn from loops in some atom, so u0 stays out although
        # {u0, u1} is valid at the same weight and sorts first by index
        m = LinkModel(
            loops=("A", "u0", "u1", "B"),
            weights={"A": Fraction(1), "u0": Fraction(0), "u1": Fraction(1), "B": Fraction(1)},
            external={1: "A", 2: "B"},
            structure=AtomicLinkages((frozenset({"A", "u1"}), frozenset({"u1", "B"}))),
        )
        result = link_min_cut(m, frozenset({1}))
        assert (result.cut, result.weight) == (frozenset({"u1"}), 1)
        weight, cut = bruteforce_link_mincut(m, frozenset({1}))
        assert (cut, weight) == (frozenset({"u0", "u1"}), result.weight)

    def test_matches_bruteforce_oracle(self):
        for seed in range(60):
            m = generate_link_model(2 + seed % 2, loops=6 + seed % 4, atoms=2 + seed % 6,
                                    max_arity=4, seed=seed)
            for sub in all_subsystems(m.n):
                weight, cut = bruteforce_link_mincut(m, sub)
                result = link_min_cut(m, sub)
                assert result.weight == weight, (seed, sub)
                assert result.cut == cut, (seed, sub)


PAIR_WEIGHTS = (
    Fraction(0), Fraction(1), Fraction(2), Fraction(3), Fraction(1, 2), Fraction(2, 3), Fraction(5, 7), INFINITE
)


def pair_atom_model(seed: int, attach_all: bool = False) -> LinkModel:
    """Seeded model whose atoms are all loop pairs, on 2-4 parties and up to 14 loops.

    Internal weights mix zero, denominators 2, 3 and 7 and INFINITE; loops
    are declared in shuffled order.  Each loop is tied to an earlier one
    (always with `attach_all`, else most of the time), then random pairs
    are added.  One model in ten may tie two externals together, which
    makes some subsystems uncuttable.
    """
    rng = random.Random(seed)
    parties = rng.randint(2, 4)
    externals = [party_letter(i) for i in range(1, parties + 2)]
    loops = rng.randint(parties + 2, 14)
    names = externals + [f"u{i}" for i in range(loops - len(externals))]
    rng.shuffle(names)
    weights = {x: Fraction(1) if x in externals else rng.choice(PAIR_WEIGHTS) for x in names}
    direct = rng.random() < 0.1
    atoms = set()

    def add(u, v):
        if direct or u not in externals or v not in externals:
            atoms.add(frozenset({u, v}))

    for k in range(1, loops):
        if attach_all or rng.random() < 0.8:
            add(names[k], rng.choice(names[:k]))
    for _ in range(rng.randint(0, loops)):
        add(*rng.sample(names, 2))
    return LinkModel(
        loops=tuple(names),
        weights=weights,
        external={i + 1: x for i, x in enumerate(externals)},
        structure=AtomicLinkages(tuple(sorted(atoms, key=sorted))),
    )


def _min_cut_or_error(solve, model, sub):
    try:
        return solve(model, sub)
    except UncuttableSubsystemError as exc:
        return str(exc)


class TestPairAtomFlow:
    """Pair-atom min-cuts run on max-flow; the subset search is the reference."""

    @pytest.mark.parametrize("block", range(4))
    def test_matches_subset_search(self, block):
        outcomes = set()
        for seed in range(block * 60, block * 60 + 60):
            m = pair_atom_model(seed)
            family = list(_irreducible_family(m))
            # the model's one cut network serves every subsystem, in either order
            subsystems = all_subsystems(m.n)[::-1] if seed % 2 else all_subsystems(m.n)
            results = {}
            for sub in subsystems:
                expected = results[sub] = _min_cut_or_error(reference_link_min_cut, m, sub)
                # equal results: cut, weight, interior, exterior and tie-break text
                assert _min_cut_or_error(link_min_cut, m, sub) == expected, (seed, sub)
                if isinstance(expected, str):
                    outcomes.add("uncuttable")
                    continue
                outcomes.add(("zero" if expected.weight == 0 else "positive", min(len(expected.cut), 2)))
                bridges = bruteforce_minimal_bridges(m, family, expected)
                assert list(minimal_bridges(m, sub)) == bridges, (seed, sub)
            for sub in subsystems:
                assert _min_cut_or_error(link_min_cut, m, sub) == results[sub], (seed, sub)
        # every kind of answer occurs: uncuttable, an empty cut, zero-weight
        # and positive cuts of one and of several loops
        assert outcomes >= {"uncuttable", ("zero", 0), ("zero", 2), ("positive", 1), ("positive", 2)}

    def test_matches_bruteforce(self):
        checked = 0
        for seed in range(120):
            m = pair_atom_model(seed, attach_all=True)
            finite = [x for x in m.internal_loops if m.is_finite(x)]
            if len(finite) > 10:
                continue
            checked += 1
            for sub in all_subsystems(m.n):
                inside = {m.external[i] for i in sub}
                outside = m.external_loops - inside
                remaining = frozenset(m.loops) - set(finite)
                if any(b & inside and b & outside for b in _bfs_blocks(m, remaining)):
                    with pytest.raises(UncuttableSubsystemError):
                        link_min_cut(m, sub)
                    continue
                weight, cut = bruteforce_link_mincut(m, sub)
                result = link_min_cut(m, sub)
                assert (result.weight, result.cut) == (weight, cut), (seed, sub)
        assert checked >= 100

    def test_large_conversion_matches_plain_enumeration(self):
        # 24 hyperedges give 24 candidate loops, far past what the subset search finishes
        h = generate_hypergraph(3, vertices=8, hyperedges=24, max_arity=4, seed=24)
        vector = link_entropy_vector(hypergraph_to_link(h))
        assert vector.entries == tuple(exhaustive_hypergraph_entropy(h, sub) for sub in all_subsystems(3))


MIXED_WEIGHTS = (Fraction(0), Fraction(1, 2), Fraction(2, 3), Fraction(1), Fraction(2), INFINITE)


def brunnian_model(seed: int) -> LinkModel:
    """Seeded model with atoms of up to 3 (even seeds) or 4 loops, on 2-4 parties and up to 12 loops.

    Internal weights mix zero, halves, thirds and INFINITE, and loops are
    declared in shuffled order, so ties, zero-weight additions and
    uncuttable subsystems all occur.
    """
    rng = random.Random(seed)
    parties = rng.randint(2, 4)
    loops = rng.randint(parties + 3, 12)
    base = generate_link_model(parties, loops, rng.randint(2, loops), 3 + seed % 2, seed=seed)
    weights = dict(base.weights)
    for x in base.internal_loops:
        weights[x] = rng.choice(MIXED_WEIGHTS)
    names = list(base.loops)
    rng.shuffle(names)
    return LinkModel(tuple(names), weights, base.external, base.structure)


def held_table_model(seed: int) -> LinkModel:
    """Seeded table model on up to 9 loops whose blocks may be held together by loops outside them.

    Each rule joins its members into one block while all of its holders
    (the members plus 0-2 further loops) are present; fewer loops activate
    fewer rules, so the table is deletion-monotone.
    """
    rng = random.Random(seed)
    parties = rng.randint(2, 3)
    externals = [party_letter(i) for i in range(1, parties + 2)]
    names = externals + [f"u{i}" for i in range(rng.randint(parties + 3, 9) - len(externals))]
    rng.shuffle(names)
    rules = []
    for _ in range(rng.randint(2, 7)):
        members = frozenset(rng.sample(names, rng.randint(2, 3)))
        rules.append((members, members | frozenset(rng.sample(names, rng.randint(0, 2)))))
    table = {}
    for size in range(len(names) + 1):
        for combo in itertools.combinations(names, size):
            subset = frozenset(combo)
            blocks = [frozenset({x}) for x in subset]
            for members, holders in rules:
                if holders <= subset:
                    touching = [b for b in blocks if b & members]
                    blocks = [b for b in blocks if not b & members] + [frozenset().union(*touching)]
            table[subset] = tuple(blocks)
    weights = {x: Fraction(1) if x in externals else rng.choice(MIXED_WEIGHTS) for x in names}
    return LinkModel(
        loops=tuple(names),
        weights=weights,
        external={i + 1: x for i, x in enumerate(externals)},
        structure=ConnectivityTable(table),
    )


class TestWitnessSearch:
    """Atoms of three or more loops and tables run the witness branching; the subset search is the reference."""

    @staticmethod
    def _check_model(m, rng, bridges=True):
        family = bruteforce_irreducible_family(m) if bridges else None
        outcomes = set()
        for sub in all_subsystems(m.n):
            expected = _min_cut_or_error(reference_link_min_cut, m, sub)
            # equal results: cut, weight, interior, exterior and tie-break text
            assert _min_cut_or_error(link_min_cut, m, sub) == expected, sub
            if isinstance(expected, str):
                outcomes.add("uncuttable")
                continue
            outcomes.add(("zero" if expected.weight == 0 else "positive", min(len(expected.cut), 2)))
            cuts = [expected.cut, frozenset(rng.sample(m.internal_loops, rng.randint(0, len(m.internal_loops))))]
            inside, _ = _subsystem_externals(m, sub)
            for cut in cuts:
                mask = sum(1 << m.loop_index(x) for x in cut)
                interior = _interior(m, inside, mask)
                exterior = ((1 << len(m.loops)) - 1) & ~mask & ~interior
                sides = (_names_of(m, interior), _names_of(m, exterior))
                assert sides == reference_cut_sides(m, sub, cut), (sub, cut)
            if bridges:
                assert list(minimal_bridges(m, sub)) == bruteforce_minimal_bridges(m, family, expected), sub
        return outcomes

    @pytest.mark.parametrize("block", range(4))
    def test_atoms_match_subset_search(self, block):
        outcomes = set()
        for seed in range(block * 50, block * 50 + 50):
            m = brunnian_model(seed)
            outcomes |= self._check_model(m, random.Random(seed))
        assert outcomes >= {"uncuttable", ("zero", 2), ("positive", 1), ("positive", 2)}

    def test_atoms_match_bruteforce(self):
        checked = 0
        for seed in range(80):
            m = brunnian_model(seed)
            linked = frozenset().union(*m.structure.atoms)
            if any(m.weights[x] == 0 and x not in linked for x in m.internal_loops):
                continue  # the oracle may add a zero-weight loop in no atom to its cut
            for sub in all_subsystems(m.n):
                result = _min_cut_or_error(link_min_cut, m, sub)
                if isinstance(result, str):
                    continue
                checked += 1
                weight, cut = bruteforce_link_mincut(m, sub)
                assert (result.weight, result.cut) == (weight, cut), (seed, sub)
        assert checked >= 300

    @pytest.mark.parametrize("seed", range(24))
    def test_tables_match_subset_search(self, seed):
        self._check_model(held_table_model(seed), random.Random(seed), bridges=False)

    def test_cliff_model_full_vector(self):
        # 34 candidate loops: the subset search did not finish this vector in a minute
        m = generate_link_model(4, 40, 60, 3, seed=1)
        assert all(m.weights[x] > 0 for x in m.internal_loops)
        universe = frozenset(m.loops)
        for sub in all_subsystems(m.n):
            result = link_min_cut(m, sub)
            inside = {m.external[i] for i in sub}
            outside = m.external_loops - inside

            def separates(cut):
                return not any(b & inside and b & outside for b in _bfs_blocks(m, universe - cut))

            assert separates(result.cut), sub
            assert not any(separates(result.cut - {x}) for x in result.cut), sub
            assert result.weight == sum(m.weights[x] for x in result.cut)

    def test_larger_model_matches_subset_search(self):
        m = generate_link_model(4, 28, 36, 3, seed=1)
        for sub in all_subsystems(m.n):
            assert link_min_cut(m, sub) == reference_link_min_cut(m, sub), sub


class TestCutSetup:
    """One cut setup per model serves every subsystem, whatever was asked before."""

    @pytest.mark.parametrize("build", [brunnian_model, held_table_model, pair_atom_model])
    def test_query_order_does_not_matter(self, build):
        outcomes = set()
        for seed in range(30):
            m = build(seed)
            rng = random.Random(seed)
            subsystems = list(all_subsystems(m.n))
            rng.shuffle(subsystems)
            finite = [x for x in m.internal_loops if m.is_finite(x)]
            for sub in subsystems:
                # an arbitrary cut of an arbitrary subsystem between the min-cuts
                other = rng.choice(all_subsystems(m.n))
                cut = rng.sample(finite, rng.randint(0, len(finite)))
                interior, _ = reference_cut_sides(m, other, cut)
                inside = {m.external[i] for i in other}
                assert is_valid_loop_cut(m, other, cut) == (not interior & (m.external_loops - inside))
                expected = _min_cut_or_error(reference_link_min_cut, m, sub)
                if rng.random() < 0.5:
                    # the weight-only reader
                    weight = _min_cut_or_error(link_entropy, m, sub)
                    assert weight == (expected if isinstance(expected, str) else expected.weight), (seed, sub)
                    outcomes.add("uncuttable" if isinstance(weight, str) else weight == 0)
                    continue
                result = _min_cut_or_error(link_min_cut, m, sub)
                fresh = LinkModel(m.loops, dict(m.weights), dict(m.external), m.structure)
                assert result == _min_cut_or_error(link_min_cut, fresh, sub), (seed, sub)
                assert result == expected, (seed, sub)
                outcomes.add("uncuttable" if isinstance(result, str) else result.weight == 0)
        assert outcomes == {"uncuttable", True, False}

    @pytest.mark.parametrize("build", [brunnian_model, held_table_model, pair_atom_model])
    def test_result_after_entropy_matches_a_fresh_model(self, build):
        # `entropy` caches only the weight and masks; the full result built
        # from them later is the one a cold model or the reference gives
        for seed in range(12):
            m = build(seed)
            subsystems = all_subsystems(m.n)
            weights = [_min_cut_or_error(link_entropy, m, sub) for sub in subsystems]
            for sub, weight in zip(subsystems, weights):
                result = _min_cut_or_error(link_min_cut, m, sub)
                fresh = LinkModel(m.loops, dict(m.weights), dict(m.external), m.structure)
                assert result == _min_cut_or_error(link_min_cut, fresh, sub), (seed, sub)
                assert result == _min_cut_or_error(reference_link_min_cut, m, sub), (seed, sub)
                assert weight == (result if isinstance(result, str) else result.weight), (seed, sub)
                if not isinstance(result, str):
                    assert link_min_cut(m, sub) is result, (seed, sub)
                    assert type(result.weight) is Fraction
                    assert result.tie_break == "minimum weight, then lexicographically smallest sorted loop-index list"

    def test_uncuttable_entropy_raises_on_every_call(self):
        # a failure is never cached as a weight, whichever reader asks first
        m = LinkModel(
            loops=("a", "b", "u", "o"),
            weights={"a": Fraction(1), "b": Fraction(1), "u": Fraction(1), "o": Fraction(1)},
            external={1: "a", 2: "b", 3: "o"},
            structure=AtomicLinkages((frozenset({"a", "b"}), frozenset({"a", "u"}), frozenset({"u", "o"}))),
        )
        for reader in (link_entropy, link_min_cut, link_entropy):
            for sub in (frozenset({1}), frozenset({2})):
                with pytest.raises(UncuttableSubsystemError):
                    reader(m, sub)
        # the cuttable subsystem {1, 2}: loop u alone separates a and b from o
        assert link_entropy(m, {1, 2}) == 1
        assert link_min_cut(m, {1, 2}).cut == frozenset({"u"})
        with pytest.raises(UncuttableSubsystemError):
            link_entropy_vector(m)


class _FractionSubclass(Fraction):
    pass


class TestWeightTypes:
    @staticmethod
    def _chain(weight) -> LinkModel:
        return LinkModel(
            loops=("a", "m", "o"),
            weights={"a": 1, "m": weight, "o": INFINITE},
            external={1: "a", 2: "o"},
            structure=AtomicLinkages((frozenset({"a", "m"}), frozenset({"m", "o"}))),
        )

    @pytest.mark.parametrize(
        "weight, value",
        [(2, 2), (0, 0), ("2/3", Fraction(2, 3)), (Fraction(1, 2), Fraction(1, 2)),
         (_FractionSubclass(3, 4), Fraction(3, 4))],
    )
    def test_weights_are_stored_as_fractions(self, weight, value):
        m = self._chain(weight)
        assert type(m.weights["m"]) is Fraction and m.weights["m"] == value
        assert type(m.weights["a"]) is Fraction and m.weights["o"] is INFINITE
        result = link_min_cut(m, {1})
        assert type(result.weight) is Fraction and result.weight == value

    @pytest.mark.parametrize("weight", [-1, "-1/2", Fraction(-2, 3), _FractionSubclass(-1, 5)])
    def test_negative_weights_raise(self, weight):
        with pytest.raises(ValueError, match=r"^negative weight on loop 'm'$"):
            self._chain(weight)

    def test_zero_cut_weight_is_a_fraction(self):
        m = LinkModel(
            loops=("a", "b", "m", "o"),
            weights={"a": 1, "b": 1, "m": 1, "o": 1},
            external={1: "a", 2: "b", 3: "o"},
            structure=AtomicLinkages((frozenset({"b", "m"}), frozenset({"m", "o"}))),
        )
        result = link_min_cut(m, {1})
        assert (result.cut, result.weight) == (frozenset(), 0)
        assert type(result.weight) is Fraction
        vector = link_entropy_vector(m)
        assert vector.entries == (0, 1, 1) and all(type(e) is Fraction for e in vector.entries)


class TestRay15Vector:
    def test_matches_expected_entries(self):
        vec = link_entropy_vector(ray15_link())
        assert vec.entries == tuple(Fraction(e) for e in RAY15_ENTRIES)

    def test_violates_separating_inequality(self):
        from linkcone.links import RAY15_SEPARATING_INEQUALITY

        ineq = parse_inequality(RAY15_SEPARATING_INEQUALITY, 5)
        holds, lhs, rhs = evaluate_inequality(ineq, link_entropy_vector(ray15_link()))
        assert (holds, lhs, rhs) == (False, 11, 12)

    def test_matches_bruteforce(self):
        m = ray15_link()
        for sub in all_subsystems(5):
            weight, _ = bruteforce_link_mincut(m, sub)
            assert link_entropy(m, sub) == weight


class TestIrreducibleAndBridges:
    def test_brunnian_cases(self):
        m = LinkModel(
            loops=("x", "y", "z"),
            weights={k: Fraction(1) for k in ("x", "y", "z")},
            external={1: "x", 2: "y"},
            structure=AtomicLinkages((frozenset({"x", "y", "z"}),)),
        )
        assert is_irreducible(m, {"x", "y", "z"})
        assert not is_irreducible(m, {"x", "y"})
        assert not is_irreducible(m, {"x"})

    def test_hopf_chain_irreducible(self):
        assert is_irreducible(hopf_chain(), {"a", "m", "o"})

    def test_ray15_bridge_examples(self):
        m = ray15_link()
        bcd = frozenset({2, 3, 4})
        assert bridge_oracle(m, bcd, {"B", "u1", "w2"})
        assert not bridge_oracle(m, bcd, {"B", "u1"})
        # a superset of a bridge is never minimal
        assert not bridge_oracle(m, bcd, {"B", "u1", "w2", "A"})
        assert not bridge_oracle(m, bcd, {"B", "u1", "w2", "u2"})

    def test_bridge_oracle_rejects_unknown_loops(self):
        bcd = frozenset({2, 3, 4})
        for candidate in ({"B", "u1", "nope"}, {"nope"}):
            with pytest.raises(ValueError):
                bridge_oracle(ray15_link(), bcd, candidate)

    def test_bridge_oracle_agrees_with_family(self):
        for seed in range(25):
            m = generate_link_model(2, loops=6 + seed % 3, atoms=2 + seed % 5, max_arity=3, seed=seed)
            for sub in all_subsystems(2):
                family = set(minimal_bridges(m, sub))
                import itertools

                for size in (3, 4):
                    for combo in itertools.combinations(m.loops, size):
                        assert bridge_oracle(m, sub, frozenset(combo)) == (
                            frozenset(combo) in family
                        ), (seed, sub, combo)

    def test_hub_sits_in_irreducible_quads(self):
        assert is_irreducible(ray15_link(), {"A", "B", "u1", "w2"})

    def test_bridge_functions_refuse_more_than_16_loops(self):
        # the irreducible family behind every bridge function is capped at
        # 16 loops, while the min-cut search has no such cap
        from linkcone.certificates import compute_oracular_indicator

        m = generate_link_model(2, 17, 9, 3, seed=3)
        assert len(m.loops) == 17
        assert [link_min_cut(m, sub).weight for sub in all_subsystems(2)] == [1, 1, 1]
        a = frozenset({1})
        calls = [
            lambda: minimal_bridges(m, a),
            lambda: bridge_oracle(m, a, {"A", "u0"}),
            lambda: k_loop_stratification(m, a),
            lambda: has_single_crossing_bridges(m),
            lambda: compute_oracular_indicator(m, parse_inequality("S(A) + S(B) >= S(AB)", 2)),
        ]
        for call in calls:
            with pytest.raises(ValueError) as raised:
                call()
            assert str(raised.value) == "irreducible-sublink enumeration is supported for at most 16 loops"


class TestStratification:
    def test_ray15_bcd(self):
        assert k_loop_stratification(ray15_link(), frozenset({2, 3, 4})) == {"w2": 3}

    def test_hopf_chain(self):
        assert k_loop_stratification(hopf_chain(), frozenset({1})) == {"m": 3}

    def test_converted_graph_edges_are_three_loops(self):
        for seed in range(20):
            h = generate_hypergraph(2, vertices=5, hyperedges=2 + seed % 5, max_arity=2, seed=seed)
            m = hypergraph_to_link(h)
            for sub in all_subsystems(2):
                for loop, k in k_loop_stratification(m, sub).items():
                    assert k == 3, (seed, sub, loop)

    def test_strata_cover_the_cut(self):
        for seed in range(25):
            m = generate_bridge_regular_link_model(2, loops=6 + seed % 4, atoms=2 + seed % 6,
                                                   max_arity=4, seed=seed)
            for sub in all_subsystems(2):
                cut = link_min_cut(m, sub)
                strata = k_loop_stratification(m, sub)
                assert set(strata) == set(cut.cut)
                assert all(k >= 3 for k in strata.values())

    def test_cut_loop_in_no_minimal_bridge_raises_on_every_call(self):
        # the tie-broken min-cut of {1} is {u0, u1} at weight 0, and the one
        # minimal bridge of {1}, {A, u1, u3}, misses u0
        m = generate_link_model(2, 8, 5, 3, seed=4, weight_choices=(0, 1, 2))
        message = r"^min-cut loops \['u0'\] for subsystem \[1\] lie in no minimal bridge$"
        for _ in range(2):
            with pytest.raises(StratificationError, match=message):
                k_loop_stratification(m, {1})

    def test_strata_order_ignores_hash_seed(self):
        # the first minimal bridge of B meets its min-cut in u3, the second in
        # u0 and u2 together, which then follow in declaration order
        script = (
            "from linkcone.generate import generate_link_model\n"
            "from linkcone.links import k_loop_stratification\n"
            "m = generate_link_model(2, 11, 7, 4, seed=104, weight_choices=(0, 1, 2))\n"
            "print(k_loop_stratification(m, {2}))\n"
        )
        src = str(Path(linkcone.__file__).parent.parent)
        orders = set()
        for seed in ("0", "1"):
            env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
            proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
            assert proc.returncode == 0, proc.stderr
            orders.add(proc.stdout)
        assert orders == {"{'u3': 3, 'u0': 5, 'u2': 5}\n"}


class TestLinkLikeBoundaries:
    """Declared structures that no genuine link could realize, pinned as examples.

    These document why the random suites redraw: the combinatorial
    structure class is strictly larger than the geometry it abstracts.
    """

    def test_series_crossing_bridge(self):
        # chain B-u3-u0-C forces a two-loop cut crossed twice by one minimal
        # bridge; the crediting machinery must refuse rather than miscount
        m = LinkModel(
            loops=("A", "B", "C", "D", "u0", "u1", "u3"),
            weights={"A": Fraction(1), "B": Fraction(1), "C": Fraction(1), "D": Fraction(1),
                     "u0": Fraction(2), "u1": Fraction(3), "u3": Fraction(4)},
            external={1: "A", 2: "B", 3: "C", 4: "D"},
            structure=AtomicLinkages((
                frozenset({"B", "u1"}), frozenset({"B", "u3"}), frozenset({"C", "u0"}),
                frozenset({"D", "u3"}), frozenset({"u0", "u1"}), frozenset({"u0", "u3"}),
            )),
        )
        assert not has_single_crossing_bridges(m)
        cut = link_min_cut(m, frozenset({2}))
        assert cut.cut == frozenset({"u0", "u3"})
        bad = [b for b in minimal_bridges(m, frozenset({2})) if len(b & cut.cut) != 1]
        assert frozenset({"B", "C", "u0", "u3"}) in bad

    def test_strong_subadditivity_can_fail_on_declared_structures(self):
        # isolating C alone costs 4 (its atom needs a heavy loop cut), while
        # AC and BC cut around C cheaply by isolating the other externals;
        # a genuine link could never price cuts this way
        from linkcone.links import link_entropy, satisfies_strong_subadditivity

        m = LinkModel(
            loops=("A", "B", "C", "D", "u0", "u1", "u2", "u3", "u4", "u5"),
            weights={"A": Fraction(1), "B": Fraction(1), "C": Fraction(1), "D": Fraction(1),
                     "u0": Fraction(4), "u1": Fraction(1), "u2": Fraction(4),
                     "u3": Fraction(2), "u4": Fraction(1), "u5": Fraction(1)},
            external={1: "A", 2: "B", 3: "C", 4: "D"},
            structure=AtomicLinkages((
                frozenset({"A", "u0", "u2", "u3"}),
                frozenset({"B", "u2", "u4", "u5"}),
                frozenset({"C", "u0", "u2"}),
                frozenset({"D", "u0", "u1"}),
                frozenset({"D", "u3", "u4"}),
                frozenset({"u0", "u1", "u3"}),
            )),
        )
        assert not satisfies_strong_subadditivity(m)
        ac = link_entropy(m, frozenset({1, 3}))
        bc = link_entropy(m, frozenset({2, 3}))
        c = link_entropy(m, frozenset({3}))
        abc = link_entropy(m, frozenset({1, 2, 3}))
        assert (ac, bc, c, abc) == (2, 3, 4, 2)
        assert ac + bc < c + abc
        # subadditivity still holds here, as it must on every structure
        for sub_a in all_subsystems(3):
            for sub_b in all_subsystems(3):
                if sub_a & sub_b:
                    continue
                both = link_entropy(m, sub_a) + link_entropy(m, sub_b)
                assert both >= link_entropy(m, sub_a | sub_b)


class TestSingleCrossingOnRegularModels:
    def test_single_crossing_on_suite_models(self):
        for seed in range(30):
            m = generate_bridge_regular_link_model(3, loops=8 + seed % 3, atoms=3 + seed % 6,
                                                   max_arity=4, seed=seed)
            for sub in all_subsystems(3):
                cut = link_min_cut(m, sub)
                for bridge in minimal_bridges(m, sub):
                    assert len(bridge & cut.cut) == 1


class TestDeletionMonotonicity:
    def test_partition_refines_under_deletion(self):
        import random

        for seed in range(30):
            m = generate_link_model(2, loops=7, atoms=3 + seed % 5, max_arity=4, seed=seed)
            rng = random.Random(seed)
            big = frozenset(rng.sample(m.loops, rng.randint(1, len(m.loops))))
            small = frozenset(rng.sample(sorted(big), rng.randint(1, len(big))))
            big_blocks = connected_sublinks(m, big)
            for block in connected_sublinks(m, small):
                holders = {next(b for b in big_blocks if x in b) for x in block}
                assert len(holders) == 1


class TestPurificationSymmetry:
    def test_entropy_matches_complement_side(self):
        for seed in range(20):
            m = generate_link_model(3, loops=8, atoms=3 + seed % 5, max_arity=4, seed=seed)
            for sub in all_subsystems(3):
                complement = sorted(set(range(1, 5)) - sub)
                relabeled = LinkModel(
                    loops=m.loops,
                    weights=dict(m.weights),
                    external={pos + 1: m.external[party]
                              for pos, party in enumerate(complement + sorted(sub))},
                    structure=m.structure,
                )
                assert link_entropy(m, sub) == link_entropy(
                    relabeled, frozenset(range(1, len(complement) + 1))
                )


class TestConversion:
    def test_unit_two_edge(self):
        h = Hypergraph(("a", "o"), {1: "a", 2: "o"}, ((frozenset({"a", "o"}), Fraction(1)),))
        m = hypergraph_to_link(h)
        assert len(m.loops) == 3
        assert set(m.structure.atoms) == {frozenset({"e0", "a"}), frozenset({"e0", "o"})}
        assert m.weights["a"] is INFINITE and m.weights["o"] is INFINITE
        assert link_entropy(m, frozenset({1})) == 1

    def test_unit_four_edge(self):
        h = Hypergraph(
            ("a", "b", "c", "o"),
            {1: "a", 2: "b", 3: "c", 4: "o"},
            ((frozenset({"a", "b", "c", "o"}), Fraction(1)),),
        )
        m = hypergraph_to_link(h)
        assert len(m.loops) == 5 and len(m.structure.atoms) == 4
        assert link_entropy_vector(m).entries == (Fraction(1),) * 7

    def test_zero_weight_edge_preserved(self):
        h = Hypergraph(
            ("a", "o"),
            {1: "a", 2: "o"},
            ((frozenset({"a", "o"}), Fraction(0)), (frozenset({"a", "o"}), Fraction(2))),
        )
        m = hypergraph_to_link(h)
        assert m.weights["e0"] == 0
        assert link_entropy_vector(m) == hypergraph_entropy_vector(h)

    def test_randomized_equivalence(self):
        for seed in range(40):
            h = generate_hypergraph(2 + seed % 2, vertices=4 + seed % 5, hyperedges=seed % 7,
                                    max_arity=4, seed=seed)
            assert hypergraph_entropy_vector(h) == link_entropy_vector(hypergraph_to_link(h))

    def test_edge_name_collision_avoided(self):
        h = Hypergraph(("e0", "o"), {1: "e0", 2: "o"}, ((frozenset({"e0", "o"}), Fraction(1)),))
        m = hypergraph_to_link(h)
        assert len(set(m.loops)) == 3


class TestSubadditivityProperties:
    def test_sa_ssa_and_union_witness(self):
        for seed in range(40):
            m = generate_link_model(3, loops=7 + seed % 4, atoms=2 + seed % 7, max_arity=4, seed=seed)
            vec = link_entropy_vector(m)
            subs = all_subsystems(3)
            for a in subs:
                for b in subs:
                    if a & b:
                        continue
                    assert vec.value(a) + vec.value(b) >= vec.value(a | b)
                    union_cut = link_min_cut(m, a).cut | link_min_cut(m, b).cut
                    assert is_valid_loop_cut(m, a | b, union_cut)
            ab, b_, bc, abc = (frozenset({1, 2}), frozenset({2}), frozenset({2, 3}),
                               frozenset({1, 2, 3}))
            assert vec.value(ab) + vec.value(bc) >= vec.value(b_) + vec.value(abc)
