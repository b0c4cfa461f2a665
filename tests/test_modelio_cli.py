"""File formats and the command-line surface, including the exit-code contract."""

import argparse
import builtins
import hashlib
import json
import random
import re
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from io import StringIO

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linkcone import cli
from linkcone.cli import main
from linkcone.generate import generate_hypergraph, generate_link_model
from linkcone.graphs import WeightedGraph
from linkcone.hypergraphs import Hypergraph
from linkcone.links import ray15_link
from linkcone.modelio import (
    ModelFileError,
    bit_map_from_json,
    bit_map_to_json,
    dumps_json,
    model_from_json,
    model_to_json,
    parse_rational,
    trit_map_from_json,
    trit_map_to_json,
)

from oracles import reference_generate_link_model

RAY15_LABELED = {
    "A": 1, "AB": 1, "AC": 2, "ABDE": 1, "ABCDE": 1, "ABCD": 2,
}


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(payload if isinstance(payload, str) else dumps_json(payload))
    return str(path)


class TestModelIO:
    def test_rationals(self):
        assert parse_rational(3) == 3
        assert parse_rational("3/2") == Fraction(3, 2)
        for bad in (1.5, "x", True, None):
            with pytest.raises(ModelFileError):
                parse_rational(bad)

    def test_round_trip_fixed_point_all_kinds(self):
        graph = WeightedGraph(("a", "o"), {1: "a", 2: "o"}, (("a", "o", Fraction(3, 2)),))
        hyper = generate_hypergraph(2, vertices=5, hyperedges=4, max_arity=3, seed=3)
        link = generate_link_model(2, loops=7, atoms=4, max_arity=3, seed=3)
        for model in (graph, hyper, link, ray15_link()):
            emitted = dumps_json(model_to_json(model))
            again = dumps_json(model_to_json(model_from_json(json.loads(emitted))))
            assert emitted == again

    def test_unknown_kind(self):
        with pytest.raises(ModelFileError):
            model_from_json({"kind": "tensor"})

    def test_unknown_loop_in_atom(self):
        with pytest.raises(ModelFileError):
            model_from_json(
                {
                    "kind": "link",
                    "loops": ["a", "o"],
                    "weights": {"a": 1, "o": 1},
                    "external": {"A": "a", "B": "o"},
                    "structure": {"atoms": [["a", "nope"]]},
                }
            )

    def test_infinite_weights(self):
        obj = {
            "kind": "link",
            "loops": ["a", "e", "o"],
            "weights": {"a": "inf", "e": 2, "o": "inf"},
            "external": {"A": "a", "B": "o"},
            "structure": {"atoms": [["a", "e"], ["e", "o"]]},
        }
        model = model_from_json(obj)
        assert not model.is_finite("a") and model.is_finite("e")
        assert model_to_json(model)["weights"]["a"] == "inf"

    def test_connectivity_table_round_trip(self):
        obj = {
            "kind": "link",
            "loops": ["a", "b"],
            "weights": {"a": 1, "b": 1},
            "external": {"A": "a", "B": "b"},
            "structure": {"table": {"": [], "a": [["a"]], "b": [["b"]], "a,b": [["a", "b"]]}},
        }
        model = model_from_json(obj)
        emitted = dumps_json(model_to_json(model))
        assert dumps_json(model_to_json(model_from_json(json.loads(emitted)))) == emitted

    # a two-loop table, with the extra keys of each case added to its four
    TABLE = {"": [], "a": [["a"]], "b": [["b"]], "a,b": [["a", "b"]]}

    @classmethod
    def _table_model(cls, **extra):
        return {
            "kind": "link",
            "loops": ["a", "b"],
            "weights": {"a": 1, "b": 1},
            "external": {"A": "a", "B": "b"},
            "structure": {"table": {**cls.TABLE, **extra}},
        }

    @pytest.mark.parametrize(
        "extra, message",
        [
            ({"zz": [["zz"]]}, "invalid link file: connectivity table has 5 entries, more than the 4 subsets of its loops"),
            ({"b,a": [["a"], ["b"]]}, "connectivity table key 'b,a' names a subset already named"),
            ({",a": [["a"]]}, "connectivity table key ',a' has an empty loop name"),
            ({"a,": [["a"]]}, "connectivity table key 'a,' has an empty loop name"),
            ({",": []}, "connectivity table key ',' has an empty loop name"),
        ],
    )
    def test_table_keys_name_distinct_subsets(self, tmp_path, capsys, extra, message):
        # each key names one subset of the loops, once: an extra or repeated
        # subset would otherwise load, and the last entry would silently win
        self._assert_rejected(tmp_path, capsys, self._table_model(**extra), message)

    def test_table_key_repeating_a_loop_name(self, tmp_path, capsys):
        # "a,a" in place of "a" would otherwise load as {a} and be written
        # back as "a"
        obj = self._table_model()
        table = obj["structure"]["table"]
        table["a,a"] = table.pop("a")
        self._assert_rejected(tmp_path, capsys, obj, "connectivity table key 'a,a' repeats a loop name")

    @pytest.mark.parametrize(
        "obj, message",
        [
            (
                {"kind": "link", "loops": ["a", "b", "c"], "weights": {"a": 1, "b": 1, "c": 1},
                 "external": {"A": "a", "B": "b"}, "structure": {"atoms": [["a", "a", "c"], ["c", "b"]]}},
                "repeated name 'a' in an atom ['a', 'a', 'c']",
            ),
            (
                {"kind": "link", "loops": ["a", "b"], "weights": {"a": 1, "b": 1}, "external": {"A": "a", "B": "b"},
                 "structure": {"table": {**TABLE, "a,b": [["a", "b", "a"]]}}},
                "repeated name 'a' in a block ['a', 'b', 'a']",
            ),
            (
                {"kind": "hypergraph", "vertices": ["a", "m"], "external": {"A": "a", "B": "m"},
                 "hyperedges": [{"members": ["a", "a", "m"], "weight": 1}]},
                "repeated name 'a' in hyperedge members ['a', 'a', 'm']",
            ),
        ],
        ids=["atom", "block", "hyperedge"],
    )
    def test_list_repeating_a_name(self, tmp_path, capsys, obj, message):
        # each list is read as a set, so a repeat would load silently and
        # be written back once
        self._assert_rejected(tmp_path, capsys, obj, message)

    @staticmethod
    def _assert_rejected(tmp_path, capsys, obj, message):
        with pytest.raises(ModelFileError) as raised:
            model_from_json(obj)
        assert str(raised.value) == message
        assert main(["entropy", "--model", write(tmp_path, "table.json", obj), "--subsystem", "A"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"parse error: {message}\n"

    def test_bit_map_round_trip(self):
        mapping = {(0, 0): (0,), (1, 0): (1,), (0, 1): (1,), (1, 1): (1,)}
        assert bit_map_from_json(bit_map_to_json(mapping)) == mapping

    def test_trit_map_round_trip(self):
        from linkcone.certificates import TritContractionMap

        cmap = TritContractionMap(images={(0, 1): (1,), (-1, 0): (0,)}, length=2, width=1)
        again = trit_map_from_json(trit_map_to_json(cmap), 2, 1)
        assert again.images == cmap.images


class TestCli:
    def _ray15_file(self, tmp_path):
        return write(tmp_path, "ray15.json", model_to_json(ray15_link()))

    def test_entropy_single_pair(self, tmp_path, capsys):
        model = self._ray15_file(tmp_path)
        assert main(["entropy", "--model", model, "--subsystem", "AB"]) == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_entropy_builtin(self, capsys):
        assert main(["entropy", "--builtin", "ray15", "--subsystem", "AC"]) == 0
        assert capsys.readouterr().out.strip() == "2"

    def test_entropy_vector_matches_expected(self, tmp_path, capsys):
        model = self._ray15_file(tmp_path)
        assert main(["entropy-vector", "--model", model]) == 0
        report = json.loads(capsys.readouterr().out)
        values = dict((label, value) for label, value in report["vector"])
        for label, expected in RAY15_LABELED.items():
            assert values[label] == expected
        assert report["digest"].startswith("sha256:")

    def test_check_ineq_direct_violated(self, tmp_path, capsys):
        model = self._ray15_file(tmp_path)
        ineq = write(
            tmp_path,
            "sep.txt",
            "S(AB) + S(DE) + S(ACD) + 2 S(ACE) + S(BCD) + S(ABDE)"
            " >= S(AC) + S(AE) + S(BD) + 2 S(ABCD) + S(ACDE)",
        )
        code = main(["check-ineq", "--model", model, "--ineq", ineq, "--method", "direct"])
        out = capsys.readouterr().out
        assert code == 1
        assert "violated 11 < 12" in out

    def test_check_ineq_direct_holds(self, tmp_path, capsys):
        model = self._ray15_file(tmp_path)
        ineq = write(tmp_path, "sa.txt", "S(A) + S(B) >= S(AB)")
        assert main(["check-ineq", "--model", model, "--ineq", ineq]) == 0
        assert "holds" in capsys.readouterr().out

    def test_check_ineq_certificate_roundtrip(self, tmp_path, capsys):
        from linkcone.certificates import (
            build_trit_partition,
            derive_rhs_assignment,
            union_cut_zero_assignment,
        )

        m = ray15_link()
        ineq_text = "S(AB) + S(C) >= S(ABC)"
        ineq = write(tmp_path, "ineq.txt", ineq_text)
        model = self._ray15_file(tmp_path)
        from linkcone.core import parse_inequality

        parsed = parse_inequality(ineq_text, 5)
        part = build_trit_partition(m, parsed)
        cmap = derive_rhs_assignment(m, parsed, union_cut_zero_assignment(part), part)
        map_path = write(tmp_path, "map.json", trit_map_to_json(cmap))
        code = main(
            ["check-ineq", "--model", model, "--ineq", ineq,
             "--method", "certificate", "--map", map_path]
        )
        report = json.loads(capsys.readouterr().out)
        assert code == 0 and report["ok"] is True

    def test_check_ineq_direct_on_hypergraph(self, tmp_path, capsys):
        four_edge = Hypergraph(
            ("a", "b", "c", "o"),
            {1: "a", 2: "b", 3: "c", 4: "o"},
            ((frozenset({"a", "b", "c", "o"}), Fraction(1)),),
        )
        model = write(tmp_path, "h.json", model_to_json(four_edge))
        ineq = write(tmp_path, "mmi.txt",
                     "S(AB) + S(BC) + S(AC) >= S(A) + S(B) + S(C) + S(ABC)")
        code = main(["check-ineq", "--model", model, "--ineq", ineq])
        assert code == 1
        assert "violated 3 < 4" in capsys.readouterr().out

    def test_certificate_check_refuses_more_than_16_loops(self, tmp_path, capsys):
        # check 1 passes on the union-cut map; the indicator table behind
        # check 2 needs the irreducible family, capped at 16 loops
        from linkcone.certificates import build_trit_partition, derive_rhs_assignment, union_cut_zero_assignment
        from linkcone.core import parse_inequality

        link = generate_link_model(2, 17, 9, 3, seed=3)
        ineq = parse_inequality("S(A) + S(B) >= S(AB)", 2)
        partition = build_trit_partition(link, ineq)
        cmap = derive_rhs_assignment(link, ineq, union_cut_zero_assignment(partition), partition)
        argv = [
            "check-ineq", "--model", write(tmp_path, "big.json", model_to_json(link)),
            "--ineq", write(tmp_path, "sa.txt", "S(A) + S(B) >= S(AB)"),
            "--method", "certificate", "--map", write(tmp_path, "cert.json", trit_map_to_json(cmap)),
        ]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: irreducible-sublink enumeration is supported for at most 16 loops\n"

    def test_check_ineq_certificate_failure_reported(self, tmp_path, capsys):
        # a map sending every cell to +1 cannot give a valid RHS cut
        from linkcone.certificates import build_trit_partition
        from linkcone.core import parse_inequality

        m = ray15_link()
        ineq_text = "S(AB) + S(C) >= S(ABC)"
        parsed = parse_inequality(ineq_text, 5)
        part = build_trit_partition(m, parsed)
        bogus = {",".join(map(str, cell)): "1" for cell in part.cells}
        model = self._ray15_file(tmp_path)
        ineq = write(tmp_path, "ineq.txt", ineq_text)
        map_path = write(tmp_path, "bogus.json", bogus)
        code = main(["check-ineq", "--model", model, "--ineq", ineq,
                     "--method", "certificate", "--map", map_path])
        report = json.loads(capsys.readouterr().out)
        assert code == 1
        assert report["ok"] is False and report["reason"]

    def test_check_ineq_certificate_violation_reported(self, tmp_path, capsys):
        # strong subadditivity on ray15, with both RHS cuts made of the two LHS cut cells: the
        # cell tuple that credits the first term's cut loop recycles it into both RHS terms
        ineq = write(tmp_path, "ssa.txt", "S(AB) + S(BC) >= S(B) + S(ABC)")
        images = {"1,-1": "-1,1", "1,1": "1,1", "-1,1": "-1,1", "-1,-1": "-1,-1", "-1,0": "0,0", "0,-1": "0,0"}
        map_path = write(tmp_path, "map.json", images)
        code = main(["check-ineq", "--builtin", "ray15", "--ineq", ineq, "--method", "certificate", "--map", map_path])
        report = json.loads(capsys.readouterr().out)
        assert code == 1
        del report["digest"]
        assert report == {
            "command": "check-ineq",
            "diagnostics": {"lhs": 1, "rhs": 2},
            "method": "certificate",
            "ok": False,
            "reason": "contraction condition violated on a covering tuple",
            "violation": {"bridge_size": 3, "cells": ["0,-1", "-1,0", "1,-1"], "cover_size": 3},
        }

    @pytest.mark.parametrize(
        "argv, message",
        [
            ([], "the following arguments are required: command"),
            (["entropy-vector", "--bogus"], "unrecognized arguments: --bogus"),
            (["entropy", "--builtin", "nope", "--subsystem", "A"], "unknown builtin 'nope'"),
            (["generate", "--builtin", "nope"], "unknown builtin 'nope'"),
            (["entropy-vector"], "one of --model or --builtin is required"),
            (["generate", "--loops", "5", "--atoms", "2", "--max-arity", "2", "--seed", "0"],
             "--parties is required without --builtin"),
        ],
    )
    def test_usage_errors(self, capsys, argv, message):
        assert main(argv) == 4
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"usage error: {message}\n")

    def test_convert_on_link_model_is_semantic_error(self, capsys):
        assert main(["convert", "--builtin", "ray15"]) == 3
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: convert expects a hypergraph model file\n")

    def test_certificate_without_map_is_usage_error(self, tmp_path, capsys):
        model = self._ray15_file(tmp_path)
        ineq = write(tmp_path, "sa.txt", "S(A) + S(B) >= S(AB)")
        code = main(["check-ineq", "--model", model, "--ineq", ineq, "--method", "certificate"])
        assert code == 4

    def test_missing_map_is_parse_error(self, tmp_path, capsys):
        ineq = write(tmp_path, "sa.txt", "S(A) + S(B) >= S(AB)")
        missing = str(tmp_path / "missing.json")
        code = main(["check-ineq", "--builtin", "ray15", "--ineq", ineq,
                     "--method", "certificate", "--map", missing])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("parse error: cannot read")

    @pytest.mark.parametrize("which", ["model", "ineq", "find-ineq", "map"])
    def test_undecodable_input_is_parse_error(self, tmp_path, capsys, which):
        undecodable = tmp_path / "latin1.txt"
        undecodable.write_bytes(b"S(A) + S(B) >= S(AB) caf\xe9")  # Latin-1, not UTF-8
        files = {
            "model": self._ray15_file(tmp_path),
            "ineq": write(tmp_path, "sa.txt", "S(A) + S(B) >= S(AB)"),
            "map": write(tmp_path, "map.json", {}),
        }
        files[which.removeprefix("find-")] = str(undecodable)
        argv = {
            "model": ["entropy-vector", "--model", files["model"]],
            "ineq": ["check-ineq", "--model", files["model"], "--ineq", files["ineq"]],
            "find-ineq": ["find-contraction", "--ineq", files["ineq"]],
            "map": ["check-ineq", "--model", files["model"], "--ineq", files["ineq"],
                    "--method", "certificate", "--map", files["map"]],
        }[which]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("parse error: cannot read")

    def test_parse_error_exit_code(self, tmp_path, capsys):
        bad = write(tmp_path, "bad.json", "{not json")
        assert main(["entropy", "--model", bad, "--subsystem", "A"]) == 2

    def test_bad_subsystem_is_semantic_error(self, tmp_path, capsys):
        model = self._ray15_file(tmp_path)
        assert main(["entropy", "--model", model, "--subsystem", "AA"]) == 3
        assert main(["entropy", "--model", model, "--subsystem", "F"]) == 3

    def test_find_contraction_not_found(self, tmp_path, capsys):
        ineq = write(tmp_path, "mmi.txt",
                     "S(AB) + S(BC) + S(AC) >= S(A) + S(B) + S(C) + S(ABC)")
        code = main(["find-contraction", "--ineq", ineq, "--mode", "hypergraph:4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "NotFound" in out

    def test_indicator_table_export(self):
        from linkcone.certificates import compute_oracular_indicator
        from linkcone.core import parse_inequality
        from linkcone.modelio import indicator_table_to_json

        table = compute_oracular_indicator(ray15_link(), parse_inequality("S(AB) >= S(A)", 5))
        obj = indicator_table_to_json(table)
        assert obj["entries"] and obj["entries"][0]["bridge_size"] == 3
        assert json.loads(dumps_json(obj)) == obj

    def test_semantic_error_exit_code(self, tmp_path, capsys):
        uncuttable = {
            "kind": "link",
            "loops": ["a", "b", "u"],
            "weights": {"a": 1, "b": 1, "u": 1},
            "external": {"A": "a", "B": "b"},
            "structure": {"atoms": [["a", "b"]]},
        }
        model = write(tmp_path, "stuck.json", uncuttable)
        assert main(["entropy", "--model", model, "--subsystem", "A"]) == 3

    def test_find_contraction_writes_verified_map(self, tmp_path, capsys):
        ineq = write(tmp_path, "sa.txt", "S(A) + S(B) >= S(AB)")
        out = str(tmp_path / "map.json")
        code = main(["find-contraction", "--ineq", ineq, "--mode", "graph", "--out", out])
        assert code == 0
        mapping = bit_map_from_json(json.loads((tmp_path / "map.json").read_text()))
        from linkcone.contraction import check_graph_contraction
        from linkcone.core import parse_inequality

        assert check_graph_contraction(mapping, parse_inequality("S(A) + S(B) >= S(AB)", 2)).ok

    def test_find_contraction_budget_exit(self, tmp_path, capsys):
        ineq = write(
            tmp_path,
            "sep.txt",
            "S(AB) + S(DE) + S(ACD) + 2 S(ACE) + S(BCD) + S(ABDE)"
            " >= S(AC) + S(AE) + S(BD) + 2 S(ABCD) + S(ACDE)",
        )
        assert main(["find-contraction", "--ineq", ineq, "--mode", "graph", "--budget", "10"]) == 5

    def test_find_contraction_infers_party_s(self, tmp_path, capsys):
        # S is the 19th party letter, not only the entropy symbol
        ineq = write(tmp_path, "s19.txt", "S(AS) + S(B) >= S(ABS)")
        out = str(tmp_path / "map.json")
        assert main(["find-contraction", "--ineq", ineq, "--out", out]) == 0
        assert capsys.readouterr().out.startswith("found nodes=")
        from linkcone.contraction import check_graph_contraction
        from linkcone.core import parse_inequality

        mapping = bit_map_from_json(json.loads((tmp_path / "map.json").read_text()))
        assert check_graph_contraction(mapping, parse_inequality("S(AS) + S(B) >= S(ABS)", 19)).ok

    @pytest.mark.parametrize("text", ["", "x >= y"])
    def test_find_contraction_without_terms_is_parse_error(self, tmp_path, capsys, text):
        ineq = write(tmp_path, "blank.txt", text)
        assert main(["find-contraction", "--ineq", ineq]) == 2
        assert capsys.readouterr().err.startswith("parse error:")

    @pytest.mark.parametrize("argv", [["find-contraction"], ["check-ineq", "--builtin", "ray15"]])
    def test_zero_denominator_is_parse_error(self, tmp_path, capsys, argv):
        # exit 1 would read as "violated"
        ineq = write(tmp_path, "zero.txt", "1/0 S(A) + S(B) >= S(AB)")
        assert main([*argv, "--ineq", ineq]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("parse error: zero denominator")

    @pytest.mark.parametrize(
        "options",
        [
            ["--budget", "0"],
            ["--budget", "-3"],
            ["--mode", "hypergraph:1"],
            ["--mode", "hypergraph:x"],
            ["--parties", "0"],
            ["--parties", "-2"],
            ["--mode", "foo"],
        ],
    )
    def test_find_contraction_bad_option_is_usage_error(self, tmp_path, capsys, options):
        ineq = write(tmp_path, "sa.txt", "S(A) + S(B) >= S(AB)")
        assert main(["find-contraction", "--ineq", ineq, *options]) == 4
        assert capsys.readouterr().err.startswith("usage error:")

    @pytest.mark.parametrize("options", [["--budget", "0"], ["--parties", "0"]])
    def test_find_contraction_bad_option_checked_before_reading(self, tmp_path, capsys, options):
        missing = str(tmp_path / "missing.txt")
        assert main(["find-contraction", "--ineq", missing, *options]) == 4
        assert capsys.readouterr().err.startswith("usage error:")

    def test_convert_reports_equal_vectors(self, tmp_path, capsys):
        h = Hypergraph(
            ("a", "b", "c", "o"),
            {1: "a", 2: "b", 3: "c", 4: "o"},
            ((frozenset({"a", "b", "c", "o"}), Fraction(1)),),
        )
        model = write(tmp_path, "h.json", model_to_json(h))
        out = str(tmp_path / "link.json")
        assert main(["convert", "--model", model, "--out", out]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["equal"] is True
        converted = model_from_json(json.loads((tmp_path / "link.json").read_text()))
        assert len(converted.loops) == 5

    def test_generate_deterministic(self, tmp_path, capsys):
        args = ["generate", "--kind", "link", "--parties", "3", "--loops", "9",
                "--atoms", "6", "--max-arity", "4", "--seed", "7"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first

    def test_generated_models_match_reference_sampler(self):
        rng = random.Random(5)
        compared = 0
        for _ in range(200):
            parties = rng.randint(1, 4)
            loops = rng.randint(parties + 1, 20)
            args = (parties, loops, rng.randint(0, 12), rng.randint(2, min(5, loops)), rng.randrange(2**31))
            try:
                expected = model_to_json(reference_generate_link_model(*args))
            except ValueError as exc:
                with pytest.raises(ValueError) as raised:
                    generate_link_model(*args)
                assert str(raised.value) == str(exc)
                continue
            assert dumps_json(model_to_json(generate_link_model(*args))) == dumps_json(expected)
            compared += 1
        assert compared >= 150

    def test_generate_zero_atoms_zero_vector(self, tmp_path, capsys):
        out = str(tmp_path / "m.json")
        assert main(["generate", "--kind", "link", "--parties", "2", "--loops", "5",
                     "--atoms", "0", "--max-arity", "3", "--seed", "1", "--out", out]) == 0
        assert main(["entropy-vector", "--model", out]) == 0
        report = json.loads(capsys.readouterr().out)
        assert all(value == 0 for _, value in report["vector"])

    def test_generate_parameter_validation(self, capsys):
        code = main(["generate", "--kind", "link", "--parties", "3", "--loops", "2",
                     "--atoms", "1", "--max-arity", "2", "--seed", "0"])
        assert code == 4

    def test_generate_builtin(self, capsys):
        assert main(["generate", "--builtin", "ray15"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["kind"] == "link" and len(obj["loops"]) == 10

    def test_generate_unsupported_kind(self, capsys):
        assert main(["generate", "--kind", "graph", "--parties", "2", "--loops", "5",
                     "--atoms", "2", "--max-arity", "2", "--seed", "0"]) == 4


SCHEMA_MODELS = {
    "graph": {
        "kind": "graph",
        "vertices": ["a", "v", "o"],
        "external": {"A": "a", "B": "o"},
        "edges": [["a", "v", 1], ["v", "o", "1/2"]],
    },
    "hypergraph": {
        "kind": "hypergraph",
        "vertices": ["a", "v", "o"],
        "external": {"A": "a", "B": "o"},
        "hyperedges": [{"members": ["a", "v", "o"], "weight": 1}],
    },
    "atoms": {
        "kind": "link",
        "loops": ["a", "e", "o"],
        "weights": {"a": 1, "e": 2, "o": 1},
        "external": {"A": "a", "B": "o"},
        "structure": {"atoms": [["a", "e"], ["e", "o"]]},
    },
    "table": {
        "kind": "link",
        "loops": ["a", "o"],
        "weights": {"a": 1, "o": 1},
        "external": {"A": "a", "B": "o"},
        "structure": {"table": {"": [], "a": [["a"]], "o": [["o"]], "a,o": [["a"], ["o"]]}},
    },
}

# (model, path to the field): lists, objects and single names of every kind
LIST_FIELDS = [
    ("graph", ("vertices",)),
    ("graph", ("edges",)),
    ("graph", ("edges", 0)),
    ("hypergraph", ("vertices",)),
    ("hypergraph", ("hyperedges",)),
    ("hypergraph", ("hyperedges", 0, "members")),
    ("atoms", ("loops",)),
    ("atoms", ("structure", "atoms")),
    ("atoms", ("structure", "atoms", 0)),
    ("table", ("structure", "table", "a,o")),
    ("table", ("structure", "table", "a,o", 0)),
]
OBJECT_FIELDS = [
    ("hypergraph", ("hyperedges", 0)),
    ("atoms", ("weights",)),
    ("atoms", ("structure",)),
    ("table", ("structure", "table")),
]
NAME_FIELDS = [
    ("graph", ("vertices", 1)),
    ("graph", ("edges", 0, 0)),
    ("hypergraph", ("hyperedges", 0, "members", 2)),
    ("atoms", ("loops", 1)),
    ("atoms", ("structure", "atoms", 0, 1)),
    ("table", ("structure", "table", "a,o", 0, 0)),
]
# "joined" is a string of the list's own entries, which tuple() used to split back into them
SCHEMA_CASES = (
    [(kind, path, value) for kind, path in LIST_FIELDS for value in ("joined", 7, {"x": 1})]
    + [(kind, path, value) for kind, path in OBJECT_FIELDS for value in ("av", 7, ["a"])]
    + [(kind, path, value) for kind, path in NAME_FIELDS for value in (7, ["v"], {"x": 1})]
)


@pytest.mark.parametrize("kind, path, value", SCHEMA_CASES)
def test_off_schema_field_is_parse_error(tmp_path, capsys, kind, path, value):
    obj = json.loads(json.dumps(SCHEMA_MODELS[kind]))
    assert main(["entropy", "--model", write(tmp_path, "ok.json", obj), "--subsystem", "A"]) == 0
    capsys.readouterr()
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    if value == "joined":
        value = "".join(x if isinstance(x, str) else "1" for x in parent[path[-1]])
    parent[path[-1]] = value
    code = main(["entropy", "--model", write(tmp_path, "bad.json", obj), "--subsystem", "A"])
    captured = capsys.readouterr()
    assert code == 2, captured
    assert captured.out == ""
    assert captured.err.startswith("parse error:")


# Exit-code fuzz: valid files of every kind, one field replaced by a random JSON value.
FUZZ_FILES = {
    "graph": {
        "kind": "graph",
        "vertices": ["a", "b", "v", "o", "w"],
        "external": {"A": "a", "B": "b", "C": "o"},
        "edges": [["a", "v", 1], ["b", "v", "1/2"], ["v", "o", 2]],
    },
    "hypergraph": {
        "kind": "hypergraph",
        "vertices": ["a", "b", "v", "o", "w"],
        "external": {"A": "a", "B": "b", "C": "o"},
        "hyperedges": [{"members": ["a", "b", "v"], "weight": "3/2"}, {"members": ["v", "o"], "weight": 1}],
    },
    "atoms": {
        "kind": "link",
        "loops": ["a", "b", "e", "f", "o"],
        "weights": {"a": 1, "b": 1, "e": 2, "f": "1/2", "o": 1},
        "external": {"A": "a", "B": "b", "C": "o"},
        "structure": {"atoms": [["a", "e"], ["b", "e", "f"], ["e", "o"]]},
    },
    "table": {
        "kind": "link",
        "loops": ["a", "b", "o"],
        "weights": {"a": 1, "b": 1, "o": "inf"},
        "external": {"A": "a", "B": "b", "C": "o"},
        "structure": {"table": {
            "": [], "a": [["a"]], "b": [["b"]], "o": [["o"]], "a,b": [["a"], ["b"]],
            "a,o": [["a"], ["o"]], "b,o": [["b"], ["o"]], "a,b,o": [["a"], ["b"], ["o"]],
        }},
    },
    # the union-cut certificate of SA on the "atoms" model
    "map": {"-1,-1": "-1", "-1,0": "0", "-1,1": "1", "0,-1": "0", "1,-1": "1"},
}
FUZZ_SA = "S(A) + S(B) >= S(AB)"


def _fields(value, prefix=()):
    """Every (path, value) below the root of a JSON value."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield prefix + (key,), child
        yield from _fields(child, prefix + (key,))


def _is_weight(path) -> bool:
    return path[0] == "weights" or path[-1] == "weight" or (path[0] == "edges" and len(path) == 3 and path[2] == 2)


FUZZ_FIELDS = [(name, path, old) for name, obj in FUZZ_FILES.items() for path, old in _fields(obj)]
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 10**6) | st.text(max_size=5)
    | st.sampled_from(["a", "b", "e", "o", "1/2", "inf", "-1,0"]),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=3), children, max_size=3),
    max_leaves=5,
)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("fuzz")
    for name, obj in FUZZ_FILES.items():
        write(directory, f"{name}.json", obj)
    write(directory, "sa.txt", FUZZ_SA)
    return directory


def _quiet_main(argv) -> int:
    with redirect_stdout(StringIO()), redirect_stderr(StringIO()):
        return main(argv)


def _fuzz_commands(directory, model, cmap):
    ineq = str(directory / "sa.txt")
    return [
        ["entropy", "--model", model, "--subsystem", "A"],
        ["entropy-vector", "--model", model],
        ["check-ineq", "--model", model, "--ineq", ineq],
        ["check-ineq", "--model", model, "--ineq", ineq, "--method", "certificate", "--map", cmap],
    ]


def test_fuzz_files_are_valid(fuzz_dir):
    cmap = str(fuzz_dir / "map.json")
    for name in ("graph", "hypergraph", "atoms", "table"):
        codes = [_quiet_main(argv) for argv in _fuzz_commands(fuzz_dir, str(fuzz_dir / f"{name}.json"), cmap)]
        # certificates apply to link models only
        assert codes == [0, 0, 0, 0 if name in ("atoms", "table") else 3], name


@settings(max_examples=2, deadline=None, derandomize=True)
@given(st.data())
def test_one_bad_field_never_escapes_the_exit_codes(fuzz_dir, data):
    # every example replaces each field in turn, one at a time
    for name, path, old in FUZZ_FIELDS:
        value = data.draw(JSON_VALUES, label=f"{name} {path}")
        obj = json.loads(json.dumps(FUZZ_FILES[name]))
        parent = obj
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        mutated = write(fuzz_dir, f"bad-{name}.json", obj)
        if name == "map":
            commands = _fuzz_commands(fuzz_dir, str(fuzz_dir / "atoms.json"), mutated)[-1:]
        else:
            commands = _fuzz_commands(fuzz_dir, mutated, str(fuzz_dir / "map.json"))
        must_fail = (isinstance(old, list) and not isinstance(value, list)) or (
            isinstance(old, str) and not _is_weight(path) and not isinstance(value, str)
        )
        for argv in commands:
            code = _quiet_main(argv)
            assert code in (0, 1, 2, 3), (argv[0], name, path, value, code)
            if must_fail:
                assert code == 2, (argv[0], name, path, value, code)


def _renamed(obj, old: str, new: str) -> str:
    """The file's JSON text with the name `old` replaced by `new` in every string and key.

    Connectivity-table keys are comma-joined names, so each comma-separated
    part is renamed; keys that collide after the rename are kept twice.
    """

    def swap(match):
        parts = json.loads(match.group(0)).split(",")
        return json.dumps(",".join(new if part == old else part for part in parts))

    return re.sub(r'"[^"\\]*"', swap, dumps_json(obj))


def _model_names(obj) -> list[str]:
    return obj["vertices"] if obj["kind"] in ("graph", "hypergraph") else obj["loops"]


def _captured_main(argv) -> tuple[int, str, str]:
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _without_digest(result):
    code, out, err = result
    if out.startswith("{"):
        report = json.loads(out)
        del report["digest"]
        out = dumps_json(report)
    return code, out, err


def test_fresh_name_keeps_every_result(fuzz_dir):
    cmap = str(fuzz_dir / "map.json")
    renamed = str(fuzz_dir / "renamed.json")
    for name in ("graph", "hypergraph", "atoms", "table"):
        obj = FUZZ_FILES[name]
        expected = [
            _without_digest(_captured_main(argv))
            for argv in _fuzz_commands(fuzz_dir, str(fuzz_dir / f"{name}.json"), cmap)
        ]
        assert expected[1][0] == 0
        for old in _model_names(obj):
            with open(renamed, "w", encoding="utf-8") as handle:
                handle.write(_renamed(obj, old, "x"))
            got = [_without_digest(_captured_main(argv)) for argv in _fuzz_commands(fuzz_dir, renamed, cmap)]
            assert got == expected, (name, old)


def test_name_renamed_onto_another_is_an_error(fuzz_dir):
    cmap = str(fuzz_dir / "map.json")
    renamed = str(fuzz_dir / "renamed.json")
    for name in ("graph", "hypergraph", "atoms", "table"):
        obj = FUZZ_FILES[name]
        for old in _model_names(obj):
            for other in _model_names(obj):
                if other == old:
                    continue
                with open(renamed, "w", encoding="utf-8") as handle:
                    handle.write(_renamed(obj, old, other))
                for argv in _fuzz_commands(fuzz_dir, renamed, cmap):
                    code, out, err = _captured_main(argv)
                    assert code in (2, 3) and out == "", (argv[0], name, old, other, code, err)


def test_help_lists_the_exit_codes_and_no_python_notes(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    for code in ("0 success", "1 inequality/certificate violated", "2 parse error", "3 semantic error",
                 "4 usage error", "5 search budget exhausted"):
        assert code in text
    assert "main(argv)" not in text and "`" not in text


# The parser is built once per process and keeps no state between calls.


def test_twenty_calls_build_one_parser(monkeypatch, fuzz_dir):
    inits = []
    init = argparse.ArgumentParser.__init__

    def counted(parser, *args, **kwargs):
        inits.append(parser)
        init(parser, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli.build_parser.__wrapped__()
    per_build = len(inits)
    inits.clear()
    cli.build_parser.cache_clear()
    commands = _fuzz_commands(fuzz_dir, str(fuzz_dir / "atoms.json"), str(fuzz_dir / "map.json"))
    for i in range(20):
        assert _quiet_main(commands[i % len(commands)]) == 0
    assert len(inits) == per_build


def test_reused_parser_answers_as_a_fresh_one(tmp_path, monkeypatch):
    sa = write(tmp_path, "sa.txt", FUZZ_SA)
    sum5 = write(tmp_path, "sum.txt", "S(AB) + S(C) >= S(ABC)")
    model = write(tmp_path, "ray15.json", model_to_json(ray15_link()))
    bad = write(tmp_path, "bad.json", "{not json")
    found = str(tmp_path / "found.json")
    from linkcone.certificates import build_trit_partition, derive_rhs_assignment, union_cut_zero_assignment
    from linkcone.core import parse_inequality

    m, ineq = ray15_link(), parse_inequality("S(AB) + S(C) >= S(ABC)", 5)
    cmap = derive_rhs_assignment(m, ineq, union_cut_zero_assignment(build_trit_partition(m, ineq)))
    certificate = write(tmp_path, "cert.json", trit_map_to_json(cmap))
    sequence = [
        ["find-contraction", "--ineq", sa, "--out", found],
        ["find-contraction", "--ineq", sa],
        ["check-ineq", "--model", model, "--ineq", sum5, "--method", "certificate", "--map", certificate],
        ["entropy-vector", "--bogus"],
        ["check-ineq", "--model", model, "--ineq", sum5],
        ["entropy", "--model", bad, "--subsystem", "A"],
        ["check-ineq", "--model", model, "--ineq", sum5, "--method", "certificate"],
        ["find-contraction", "--ineq", sa, "--mode", "hypergraph:3", "--budget", "50"],
        ["find-contraction", "--ineq", sa],
        [],
        ["entropy-vector", "--builtin", "ray15"],
        ["generate", "--parties", "2", "--loops", "5", "--atoms", "2", "--max-arity", "2", "--seed", "3"],
        ["generate", "--builtin", "ray15"],
        ["check-ineq", "--builtin", "ray15", "--ineq", sum5, "--map", certificate],
    ]
    reused = [_captured_main(argv) for argv in sequence]
    assert {code for code, _, _ in reused} == {0, 2, 4}
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    assert [_captured_main(argv) for argv in sequence] == reused


# Each model file is read once; the digest names the bytes parsed.


def test_model_file_opened_once(tmp_path, monkeypatch):
    model = write(tmp_path, "ray15.json", model_to_json(ray15_link()))
    opened = []
    real_open = builtins.open

    def counted(file, *args, **kwargs):
        if file == model:
            opened.append(args)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counted)
    assert _quiet_main(["entropy-vector", "--model", model]) == 0
    assert len(opened) == 1


def test_crlf_file_digest_is_of_its_raw_bytes(tmp_path, capsys):
    data = dumps_json(model_to_json(ray15_link())).replace("\n", "\r\n").encode("utf-8")
    path = tmp_path / "crlf.json"
    path.write_bytes(data)
    assert main(["entropy-vector", "--model", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["digest"] == "sha256:" + hashlib.sha256(data).hexdigest()
    assert report["vector"] == json.loads(_captured_main(["entropy-vector", "--builtin", "ray15"])[1])["vector"]


def test_json_error_positions_ignore_line_endings(tmp_path):
    text = '{\n  "kind": "link",\n  "loops": ["a",\n}\n'
    errors = []
    for ending in ("\n", "\r\n", "\r"):
        path = tmp_path / "bad.json"
        path.write_bytes(text.replace("\n", ending).encode("utf-8"))
        code, out, err = _captured_main(["entropy-vector", "--model", str(path)])
        assert (code, out) == (2, "")
        errors.append(err)
    assert errors[0] == errors[1] == errors[2]
    assert "line 4 column 1" in errors[0]
