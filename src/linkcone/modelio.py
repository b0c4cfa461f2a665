"""JSON file formats for models, inequalities, and maps.

All structured output is JSON with sorted keys, so emit-parse-emit is a
fixed point and the files are friendly to golden-file testing.  Rational
values are written as plain integers when integral and as ``"p/q"``
strings otherwise; link weights additionally allow ``"inf"``.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

from .certificates import IndicatorEntry, OracularIndicatorTable, TritContractionMap, Trits
from .core import Bits, _distinct, party_index, party_letter
from .graphs import WeightedGraph
from .hypergraphs import Hypergraph
from .links import INFINITE, AtomicLinkages, ConnectivityTable, LinkModel, _Infinite


class ModelFileError(ValueError):
    """Unreadable or schema-invalid model/map file."""


def parse_rational(value) -> Fraction:
    if isinstance(value, bool):
        raise ModelFileError(f"expected a rational, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ModelFileError(f"bad rational {value!r}") from exc
    raise ModelFileError(f"expected an integer or 'p/q' string, got {value!r}")


def format_rational(value: Fraction):
    value = Fraction(value)
    return int(value) if value.denominator == 1 else str(value)


def _parse_external(obj) -> dict[int, str]:
    if not isinstance(obj, dict) or not obj:
        raise ModelFileError("external mapping must be a nonempty object")
    parties = len(obj)
    mapping: dict[int, str] = {}
    for letter, name in obj.items():
        try:
            idx = party_index(letter, parties)
        except ValueError as exc:
            raise ModelFileError(f"bad external party letter {letter!r}") from exc
        if not isinstance(name, str):
            raise ModelFileError(f"external target for {letter!r} must be a name")
        mapping[idx] = name
    if sorted(mapping) != list(range(1, parties + 1)):
        raise ModelFileError("external letters must be consecutive from 'A'")
    return mapping


def _format_external(mapping: dict[int, str]) -> dict[str, str]:
    return {party_letter(i): name for i, name in sorted(mapping.items())}


def _object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ModelFileError(f"{what} must be a JSON object, got {value!r}")
    return value


def _list(value, what: str) -> list:
    if not isinstance(value, list):
        raise ModelFileError(f"{what} must be a JSON list, got {value!r}")
    return value


def _names(value, what: str) -> tuple[str, ...]:
    """A JSON list of names; a string is not read as its characters."""
    names = tuple(_list(value, what))
    for name in names:
        if not isinstance(name, str):
            raise ModelFileError(f"{what} must hold names (strings), got {name!r}")
    return names


def _name_set(value, what: str) -> frozenset[str]:
    """A JSON list of distinct names, as a set: a repeat is an error, not silently dropped."""
    names = _names(value, what)
    try:
        return _distinct(names, what)
    except ValueError as exc:
        raise ModelFileError(str(exc)) from None


def _edge(value) -> tuple[str, str, Fraction]:
    edge = _list(value, "an edge")
    if len(edge) != 3:
        raise ModelFileError(f"an edge must be [u, v, weight], got {value!r}")
    u, v = _names(edge[:2], "edge endpoints")
    return u, v, parse_rational(edge[2])


def model_from_json(obj) -> WeightedGraph | Hypergraph | LinkModel:
    """Build a model from its JSON object, rejecting anything off the schema.

    Vertex, loop, edge, member, atom and block lists must be JSON lists
    and every name a string, the names of one hyperedge, atom or block
    distinct, and each connectivity-table key must name a distinct subset
    of the loops; anything else is a `ModelFileError`.
    """
    if not isinstance(obj, dict):
        raise ModelFileError("model file must contain a JSON object")
    kind = obj.get("kind")
    try:
        if kind == "graph":
            return WeightedGraph(
                vertices=_names(obj["vertices"], "vertices"),
                external=_parse_external(obj["external"]),
                edges=tuple(_edge(e) for e in _list(obj["edges"], "edges")),
            )
        if kind == "hypergraph":
            return Hypergraph(
                vertices=_names(obj["vertices"], "vertices"),
                external=_parse_external(obj["external"]),
                hyperedges=tuple(
                    (
                        _name_set(_object(e, "a hyperedge")["members"], "hyperedge members"),
                        parse_rational(e["weight"]),
                    )
                    for e in _list(obj["hyperedges"], "hyperedges")
                ),
            )
        if kind == "link":
            weights = {}
            for name, w in _object(obj["weights"], "weights").items():
                weights[name] = INFINITE if w == "inf" else parse_rational(w)
            structure_obj = _object(obj["structure"], "link structure")
            if "atoms" in structure_obj:
                structure = AtomicLinkages(
                    tuple(_name_set(a, "an atom") for a in _list(structure_obj["atoms"], "atoms"))
                )
            elif "table" in structure_obj:
                table = {}
                for key, blocks in _object(structure_obj["table"], "connectivity table").items():
                    parts = key.split(",") if key else []
                    if "" in parts:
                        raise ModelFileError(f"connectivity table key {key!r} has an empty loop name")
                    subset = frozenset(parts)
                    if len(subset) != len(parts):
                        raise ModelFileError(f"connectivity table key {key!r} repeats a loop name")
                    if subset in table:
                        raise ModelFileError(f"connectivity table key {key!r} names a subset already named")
                    table[subset] = tuple(_name_set(b, "a block") for b in _list(blocks, "table blocks"))
                structure = ConnectivityTable(table)
            else:
                raise ModelFileError("link structure needs either 'atoms' or 'table'")
            return LinkModel(
                loops=_names(obj["loops"], "loops"),
                weights=weights,
                external=_parse_external(obj["external"]),
                structure=structure,
            )
    except ModelFileError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFileError(f"invalid {kind or 'model'} file: {exc}") from exc
    raise ModelFileError(f"unknown model kind {kind!r}")


def model_to_json(model) -> dict:
    if isinstance(model, WeightedGraph):
        return {
            "kind": "graph",
            "vertices": list(model.vertices),
            "external": _format_external(model.external),
            "edges": [[u, v, format_rational(w)] for u, v, w in model.edges],
        }
    if isinstance(model, Hypergraph):
        return {
            "kind": "hypergraph",
            "vertices": list(model.vertices),
            "external": _format_external(model.external),
            "hyperedges": [
                {"members": sorted(members), "weight": format_rational(w)}
                for members, w in model.hyperedges
            ],
        }
    if isinstance(model, LinkModel):
        weights = {
            name: ("inf" if isinstance(w, _Infinite) else format_rational(w))
            for name, w in model.weights.items()
        }
        if isinstance(model.structure, AtomicLinkages):
            structure = {
                "atoms": sorted(
                    sorted(atom, key=model.loop_index) for atom in model.structure.atoms
                )
            }
        else:
            structure = {
                "table": {
                    ",".join(sorted(subset, key=model.loop_index)): sorted(
                        (sorted(b, key=model.loop_index) for b in blocks),
                        key=lambda b: model.loop_index(b[0]),
                    )
                    for subset, blocks in sorted(
                        model.structure.blocks_by_subset.items(),
                        key=lambda kv: (len(kv[0]), sorted(kv[0])),
                    )
                }
            }
        return {
            "kind": "link",
            "loops": list(model.loops),
            "weights": weights,
            "external": _format_external(model.external),
            "structure": structure,
        }
    raise TypeError(f"not a model: {model!r}")


def dumps_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _read_bytes(path: str) -> bytes:
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except OSError as exc:
        raise ModelFileError(f"cannot read {path}: {exc}") from exc


def _decode(data: bytes, path: str) -> str:
    """UTF-8 text with universal newlines, as a text-mode `open` reads it."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ModelFileError(f"cannot read {path}: {exc}") from exc
    return text.replace("\r\n", "\n").replace("\r", "\n")


def read_text(path: str) -> str:
    """The UTF-8 text of an input file; an unreadable or undecodable file is a `ModelFileError`."""
    return _decode(_read_bytes(path), path)


def load_model_with_digest(path: str):
    """The model in a file and the sha256 digest of the exact bytes parsed, from one read."""
    data = _read_bytes(path)
    try:
        obj = json.loads(_decode(data, path))
    except json.JSONDecodeError as exc:
        raise ModelFileError(f"{path} is not valid JSON: {exc}") from exc
    return model_from_json(obj), "sha256:" + hashlib.sha256(data).hexdigest()


def load_model(path: str):
    return load_model_with_digest(path)[0]


def save_model(model, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps_json(model_to_json(model)))


def text_digest(text: str) -> str:
    return "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# bitstring and trit-string map files


def _bits_from_key(key: str, name: str) -> Bits:
    if not key or any(ch not in "01" for ch in key):
        raise ModelFileError(f"bad {name} bitstring {key!r}")
    return tuple(int(ch) for ch in key)


def bit_map_from_json(obj) -> dict[Bits, Bits]:
    if not isinstance(obj, dict) or not obj:
        raise ModelFileError("map file must contain a nonempty JSON object")
    mapping = {}
    for key, value in obj.items():
        if not isinstance(value, str):
            raise ModelFileError(f"image of {key!r} must be a bitstring")
        mapping[_bits_from_key(key, "domain")] = _bits_from_key(value, "image")
    return mapping


def bit_map_to_json(mapping: dict[Bits, Bits]) -> dict[str, str]:
    return {
        "".join(map(str, x)): "".join(map(str, y))
        for x, y in sorted(mapping.items(), key=lambda kv: (sum(kv[0]), kv[0]))
    }


def _trits_from_key(key: str) -> Trits:
    try:
        trits = tuple(int(part) for part in key.split(","))
    except ValueError as exc:
        raise ModelFileError(f"bad trit-string {key!r}") from exc
    if not trits or any(t not in (-1, 0, 1) for t in trits):
        raise ModelFileError(f"bad trit-string {key!r}")
    return trits


def trit_map_from_json(obj, length: int, width: int) -> TritContractionMap:
    if not isinstance(obj, dict) or not obj:
        raise ModelFileError("trit map file must contain a nonempty JSON object")
    images = {}
    for key, value in obj.items():
        if not isinstance(value, str):
            raise ModelFileError(f"image of {key!r} must be a trit-string")
        images[_trits_from_key(key)] = _trits_from_key(value)
    try:
        return TritContractionMap(images=images, length=length, width=width)
    except ValueError as exc:
        raise ModelFileError(str(exc)) from exc


def trit_map_to_json(cmap: TritContractionMap) -> dict[str, str]:
    return {
        ",".join(map(str, cell)): ",".join(map(str, image))
        for cell, image in sorted(cmap.images.items())
    }


def indicator_table_to_json(table: OracularIndicatorTable) -> dict:
    def entry_obj(entry: IndicatorEntry) -> dict:
        return {
            "term": entry.term_index,
            "cover_size": entry.cover_size,
            "bridge_size": entry.bridge_size,
            "cells": [",".join(map(str, cell)) for cell in entry.cells],
            "loop": entry.loop,
            "bridge": sorted(entry.bridge),
        }

    return {
        "entries": [entry_obj(e) for e in table.entries],
        "coloring": {str(l): dict(sorted(colors.items())) for l, colors in table.coloring.items()},
    }
