"""Command-line surface; `DESCRIPTION`, which `linkcone --help` prints, lists the exit codes.

`main(argv)` returns the exit code and may be called repeatedly in one
process.  The `digest` of a report read from `--model` is the sha256 of
the exact bytes parsed.
"""

from __future__ import annotations

import argparse
import json
import re
import string
import sys
from functools import cache

from .certificates import (
    CertificateError,
    InconsistentAssignment,
    check_cut_contraction_certificate,
    check_inequality_direct,
)
from .contraction import BUDGET_EXCEEDED, FOUND, search_contraction_map
from .core import InequalityParseError, entropy_vector, parse_inequality, subsystem_from_letters
from .generate import generate_link_model
from .hypergraphs import Hypergraph
from .links import LinkModel, UncuttableSubsystemError, hypergraph_to_link, ray15_link
from .modelio import (
    ModelFileError,
    bit_map_to_json,
    dumps_json,
    format_rational,
    load_model_with_digest,
    model_to_json,
    read_text,
    text_digest,
    trit_map_from_json,
)

EXIT_OK = 0
EXIT_VIOLATED = 1
EXIT_PARSE = 2
EXIT_SEMANTIC = 3
EXIT_USAGE = 4
EXIT_BUDGET = 5

DESCRIPTION = """Exit codes: 0 success (or "holds"), 1 inequality/certificate violated,
2 parse error, 3 semantic error, 4 usage error, 5 search budget
exhausted.  A violated inequality is a first-class result, not an error,
so cone experiments stay scriptable."""

BUILTINS = {"ray15": ray15_link}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _builtin(name):
    if name not in BUILTINS:
        raise _UsageError(f"unknown builtin {name!r}")
    return BUILTINS[name]()


def _resolve_model(args):
    if getattr(args, "builtin", None):
        model = _builtin(args.builtin)
        return model, text_digest(dumps_json(model_to_json(model)))
    if not getattr(args, "model", None):
        raise _UsageError("one of --model or --builtin is required")
    return load_model_with_digest(args.model)


def _emit(obj, out_path):
    payload = dumps_json(obj)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(payload)
    else:
        sys.stdout.write(payload)


def _cmd_entropy(args) -> int:
    model, _digest = _resolve_model(args)
    try:
        subsystem = subsystem_from_letters(args.subsystem, model.n)
    except InequalityParseError as exc:
        # the model file parsed fine; a bad subsystem is a semantic error
        raise ValueError(str(exc)) from exc
    print(format_rational(model.entropy(subsystem)))
    return EXIT_OK


def _cmd_entropy_vector(args) -> int:
    model, digest = _resolve_model(args)
    vector = entropy_vector(model)
    report = {
        "command": "entropy-vector",
        "digest": digest,
        "n": vector.n,
        "vector": [[label, format_rational(value)] for label, value in vector.labeled()],
    }
    print(dumps_json(report), end="")
    return EXIT_OK


def _cmd_check_ineq(args) -> int:
    model, digest = _resolve_model(args)
    ineq = parse_inequality(read_text(args.ineq).strip(), model.n)
    if args.method == "direct":
        holds, lhs, rhs = check_inequality_direct(model, ineq)
        word = "holds" if holds else "violated"
        sign = ">=" if holds else "<"
        print(f"{word} {format_rational(lhs)} {sign} {format_rational(rhs)}")
        return EXIT_OK if holds else EXIT_VIOLATED
    # certificate method
    if not args.map:
        raise _UsageError("--method certificate requires --map")
    if not isinstance(model, LinkModel):
        raise UncuttableSubsystemError("certificate checking applies to link models")
    obj = json.loads(read_text(args.map))
    cmap = trit_map_from_json(obj, length=len(ineq.lhs), width=len(ineq.rhs))
    result = check_cut_contraction_certificate(model, ineq, cmap, exhaustive=args.exhaustive)
    violation = None
    if result.violation is not None:
        cover, size, cells = result.violation
        violation = {
            "cover_size": cover,
            "bridge_size": size,
            "cells": [",".join(map(str, cell)) for cell in cells],
        }
    report = {
        "command": "check-ineq",
        "digest": digest,
        "method": "certificate",
        "ok": result.ok,
        "reason": result.reason,
        "violation": violation,
        "diagnostics": {k: format_rational(v) for k, v in result.diagnostics.items()},
    }
    print(dumps_json(report), end="")
    return EXIT_OK if result.ok else EXIT_VIOLATED


def _cmd_find_contraction(args) -> int:
    if args.mode == "graph":
        mode, rank = "graph", None
    elif args.mode.startswith("hypergraph:"):
        mode = "hypergraph"
        try:
            rank = int(args.mode.split(":", 1)[1])
        except ValueError:
            raise _UsageError(f"bad mode {args.mode!r}") from None
        if rank < 2:
            raise _UsageError(f"bad mode {args.mode!r}; the rank must be at least 2")
    else:
        raise _UsageError(f"bad mode {args.mode!r}; expected graph or hypergraph:K")
    if args.budget is not None and args.budget <= 0:
        raise _UsageError("--budget must be positive")
    if args.parties is not None and args.parties <= 0:
        raise _UsageError("--parties must be positive")
    text = read_text(args.ineq).strip()
    parties = args.parties
    if parties is None:
        letters = "".join(re.findall(r"S\(\s*([A-Z]+)", text))
        if not letters:
            raise InequalityParseError("no S(...) term to infer the party count from")
        parties = max(string.ascii_uppercase.index(ch) + 1 for ch in letters)
    ineq = parse_inequality(text, parties)
    result = search_contraction_map(ineq, mode=mode, rank=rank, budget=args.budget)
    if result.status == BUDGET_EXCEEDED:
        print(f"BudgetExceeded nodes={result.nodes}", file=sys.stderr)
        return EXIT_BUDGET
    if result.status == FOUND:
        _emit(bit_map_to_json(result.mapping), args.out)
        print(f"found nodes={result.nodes} depth={result.depth}")
        return EXIT_OK
    print("NotFound")
    print(f"nodes={result.nodes} depth={result.depth}")
    return EXIT_OK


def _cmd_convert(args) -> int:
    model, digest = _resolve_model(args)
    if not isinstance(model, Hypergraph):
        raise UncuttableSubsystemError("convert expects a hypergraph model file")
    link = hypergraph_to_link(model)
    source_vector = entropy_vector(model)
    link_vector = entropy_vector(link)
    _emit(model_to_json(link), args.out)
    report = {
        "command": "convert",
        "digest": digest,
        "hypergraph_vector": [[lab, format_rational(v)] for lab, v in source_vector.labeled()],
        "link_vector": [[lab, format_rational(v)] for lab, v in link_vector.labeled()],
        "equal": source_vector == link_vector,
    }
    stream = sys.stdout if args.out else sys.stderr
    stream.write(dumps_json(report))
    return EXIT_OK


def _cmd_generate(args) -> int:
    if args.builtin:
        _emit(model_to_json(_builtin(args.builtin)), args.out)
        return EXIT_OK
    if args.kind != "link":
        raise _UsageError("only --kind link is supported")
    for name in ("parties", "loops", "atoms", "max_arity", "seed"):
        if getattr(args, name) is None:
            raise _UsageError(f"--{name.replace('_', '-')} is required without --builtin")
    try:
        model = generate_link_model(
            parties=args.parties,
            loops=args.loops,
            atoms=args.atoms,
            max_arity=args.max_arity,
            seed=args.seed,
        )
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    _emit(model_to_json(model), args.out)
    return EXIT_OK


@cache
def build_parser() -> _Parser:
    """The CLI's parser, built on first use and shared by every later `main` call.

    Parsing keeps no state between calls: each gets a fresh namespace, and
    help text is formatted when it is printed.
    """
    parser = _Parser(prog="linkcone", description=DESCRIPTION)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_model_args(p):
        p.add_argument("--model", help="model file (JSON)")
        p.add_argument("--builtin", help="packaged model name (ray15)")

    p = sub.add_parser("entropy", help="entropy of one subsystem")
    add_model_args(p)
    p.add_argument("--subsystem", required=True, help="party letters, e.g. AB")
    p.set_defaults(func=_cmd_entropy)

    p = sub.add_parser("entropy-vector", help="all subsystem entropies in canonical order")
    add_model_args(p)
    p.set_defaults(func=_cmd_entropy_vector)

    p = sub.add_parser("check-ineq", help="evaluate an inequality on a model")
    add_model_args(p)
    p.add_argument("--ineq", required=True, help="inequality text file")
    p.add_argument("--method", choices=["direct", "certificate"], default="direct")
    p.add_argument("--map", help="trit map file for the certificate method")
    p.add_argument("--exhaustive", action="store_true", help="no effect: every tuple that can fail is always checked")
    p.set_defaults(func=_cmd_check_ineq)

    p = sub.add_parser("find-contraction", help="search for a contraction map")
    p.add_argument("--ineq", required=True, help="inequality text file")
    p.add_argument("--parties", type=int, help="party count (default: inferred from letters)")
    p.add_argument("--mode", default="graph", help="graph or hypergraph:K")
    p.add_argument("--budget", type=int, help="node budget for the search")
    p.add_argument("--out", help="write the found map here (default: stdout)")
    p.set_defaults(func=_cmd_find_contraction)

    p = sub.add_parser("convert", help="convert a hypergraph model to a link model")
    add_model_args(p)
    p.add_argument("--out", help="write the link model here (default: stdout)")
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser("generate", help="emit a seeded random link model or a builtin")
    p.add_argument("--kind", default="link")
    p.add_argument("--parties", type=int)
    p.add_argument("--loops", type=int)
    p.add_argument("--atoms", type=int)
    p.add_argument("--max-arity", type=int, dest="max_arity")
    p.add_argument("--seed", type=int)
    p.add_argument("--builtin", help="emit a packaged model instead (ray15)")
    p.add_argument("--out", help="write the model here (default: stdout)")
    p.set_defaults(func=_cmd_generate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ModelFileError, InequalityParseError, json.JSONDecodeError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (UncuttableSubsystemError, CertificateError, InconsistentAssignment, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SEMANTIC


if __name__ == "__main__":
    sys.exit(main())
