"""Checks on the library source itself."""

import ast
import dataclasses
import sys
from pathlib import Path

import linkcone
from mutants import CATALOGUE, ROOT

SOURCES = sorted(Path(linkcone.__file__).parent.glob("*.py"))


def _nodes():
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            yield path, node


def test_library_raises_invariants_instead_of_asserting():
    # `python -O` strips assert statements, so an invariant the library
    # relies on must be raised as an exception (for example RuntimeError)
    assert len(SOURCES) >= 10
    asserts = [f"{path.name}:{node.lineno}" for path, node in _nodes() if isinstance(node, ast.Assert)]
    assert asserts == []


def test_library_imports_only_the_standard_library():
    # zero runtime dependencies: every import is relative or names a stdlib module
    imported = set()
    for _, node in _nodes():
        if isinstance(node, ast.Import):
            imported |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and not node.level:
            imported.add(node.module.split(".")[0])
    assert "fractions" in imported
    assert imported - sys.stdlib_module_names == set()


def test_exported_dataclasses_are_frozen():
    # models cache what they derive, so a type that could be mutated would
    # answer stale; results are shared between calls, so they stay fixed too
    exported = [getattr(linkcone, name) for name in linkcone.__all__]
    classes = [obj for obj in exported if isinstance(obj, type) and dataclasses.is_dataclass(obj)]
    assert {"WeightedGraph", "Hypergraph", "LinkModel", "ConnectivityTable"} <= {c.__name__ for c in classes}
    assert [c.__name__ for c in classes if not c.__dataclass_params__.frozen] == []


def test_mutant_catalogue_targets_occur_once():
    # each entry's old text must name one place in the library, so a change
    # that moves or rewrites mutated code has to update the catalogue with it
    assert len(CATALOGUE) >= 6
    assert len({m.name for m in CATALOGUE}) == len(CATALOGUE)
    texts = {path.name: path.read_text(encoding="utf-8") for path in SOURCES}
    for mutant in CATALOGUE:
        assert sum(text.count(mutant.old) for text in texts.values()) == 1, mutant.name
        assert texts[Path(mutant.file).name].count(mutant.old) == 1, mutant.name
        assert mutant.old != mutant.new, mutant.name
        # a run over its timeout counts as killed, which an equivalent entry must never be
        assert mutant.timeout is None or (mutant.timeout > 0 and not mutant.equivalent), mutant.name
        assert all((ROOT / test.split("::")[0]).is_file() for test in mutant.tests), mutant.name
