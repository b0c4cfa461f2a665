"""Mutant catalogue: small changes to the library that the tests must catch.

Each entry replaces one exact string, which occurs once in `src/`, and
names the tests that should fail on the result.  Its expected outcome is
"killed", or "equivalent" with a one-line argument why no test can tell
the mutant from the library.  `tests/test_source.py` checks that every
entry's old text still occurs exactly once, so a change that moves
mutated code must update the entry with it.

Run from the repository root:

    python tests/mutants.py [NAME ...] [--timeout SECONDS]

Every mutant runs in a fresh temporary copy of `src/` and `tests/`, with
`pytest -x` on its tests; a run over the timeout counts as killed.  An
entry whose mutant can only hang sets a shorter timeout of its own, with
the reason next to it; `--timeout` still caps every run.  The unmutated
copy runs each test selection once first, with the `--timeout`, and must
pass; a selection inside another one (the same paths or node ids below
them) passes with it and gets no run of its own.  The
runner prints a table and exits 1 if any mutant is killed or survives
against its record.  pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIR_FLOW = "tests/test_links.py::TestPairAtomFlow::test_matches_subset_search"


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # relative to the repository root
    old: str
    new: str
    tests: tuple[str, ...]  # pytest paths or node ids, relative to the repository root
    equivalent: str = ""  # why the mutant cannot be told apart; empty if it must be killed
    timeout: float | None = None  # seconds for this entry's run when shorter than --timeout


CATALOGUE = (
    Mutant(
        "flow-tiebreak-no-sink-test",
        "src/linkcone/links.py",
        " or closure[cut_network.sink] != -1",
        "",
        (PAIR_FLOW,),
    ),
    Mutant(
        "flow-no-reverse-residual",
        "src/linkcone/flow.py",
        "cap[e ^ 1] += push",
        "cap[e ^ 1] += 0",
        (PAIR_FLOW,),
    ),
    Mutant(
        "flow-reach-never-advances",
        "src/linkcone/flow.py",
        "            frontier = following\n        return via",
        "            frontier = frontier\n        return via",
        (PAIR_FLOW,),
        # the BFS loops forever on its first frontier, so the tests can only
        # time out; the unmutated selection takes about 5 s
        timeout=15.0,
    ),
    Mutant(
        "flow-tiebreak-no-split-arc-shortcut",
        "src/linkcone/links.py",
        "if cap[2 * i]:",
        "if False:",
        ("tests/test_links.py::TestPairAtomFlow",),
        "an unsaturated split arc lets the closure of in(i) reach out(i), so the loop is skipped anyway",
    ),
    Mutant(
        "search-ties-replace-best",
        "src/linkcone/links.py",
        "key < best",
        "key <= best",
        ("tests/test_links.py::TestWitnessSearch",),
        "keys carry the full sorted index list, so equal keys are the same cut",
    ),
    Mutant(
        "blocks-no-atom-merging",
        "src/linkcone/links.py",
        "if group & atom:",
        "if False:",
        ("tests/test_links.py::TestConnectedSublinks",),
    ),
    Mutant(
        "graph-edge-one-way",
        "src/linkcone/hypergraphs.py",
        "network.add(node[u], node[v], c, c)",
        "network.add(node[u], node[v], c)",
        ("tests/test_graphs.py",),
    ),
    Mutant(
        "lawler-gadget-no-exit-arcs",
        "src/linkcone/hypergraphs.py",
        "network.add(gadget + 1, node[v], network.big)",
        "network.add(gadget + 1, node[v], 0)",
        ("tests/test_hypergraphs.py",),
    ),
    Mutant(
        "contraction-scale-lhs-only",
        "src/linkcone/contraction.py",
        "scale = scale_of(c for _, c in ineq.lhs + ineq.rhs)",
        "scale = scale_of(c for _, c in ineq.lhs)",
        ("tests/test_contraction.py",),
    ),
    Mutant(
        "inequality-allows-zero-coefficient",
        "src/linkcone/core.py",
        'if coeff <= 0:\n                    raise ValueError("coefficients must be strictly positive")',
        'if coeff < 0:\n                    raise ValueError("coefficients must be strictly positive")',
        ("tests/test_core.py",),
    ),
    Mutant(
        "direct-check-no-party-count",
        "src/linkcone/certificates.py",
        "own terms are computed.\n    \"\"\"\n    if ineq.n != model.n:",
        "own terms are computed.\n    \"\"\"\n    if False:",
        ("tests/test_certificates.py::TestCertificateCache::test_party_count_mismatch_raises_on_a_warm_cache",),
    ),
    Mutant(
        "table-key-repeats-a-name",
        "src/linkcone/modelio.py",
        "if len(subset) != len(parts):",
        "if False:",
        ("tests/test_modelio_cli.py::TestModelIO",),
    ),
    Mutant(
        "uncuttable-test-reads-whole-blocks",
        "src/linkcone/links.py",
        "elif _touching(setup.severed, inside) & outside:",
        "elif _touching(setup.whole, inside) & outside:",
        ("tests/test_links.py::TestCutSetup",),
    ),
    Mutant(
        "cut-setup-no-zero-mask",
        "src/linkcone/links.py",
        "zeros = sum(1 << i for i in order if not weight_of[i])",
        "zeros = 0",
        ("tests/test_links.py::TestCutSetup",),
    ),
    Mutant(
        "external-mask-without-purifier",
        "src/linkcone/links.py",
        "_external_mask=sum(party_bits.values())",
        "_external_mask=sum(party_bits[p] for p in range(1, len(party_bits)))",
        ("tests/test_links.py::TestRay15Vector",),
    ),
    Mutant(
        "link-weights-keep-fraction-subclasses",
        "src/linkcone/links.py",
        "if type(w) is not Fraction:",
        "if not isinstance(w, Fraction):",
        ("tests/test_links.py::TestWeightTypes",),
    ),
    Mutant(
        "vector-keeps-fraction-subclasses",
        "src/linkcone/core.py",
        "e if type(e) is Fraction else Fraction(e)",
        "e if isinstance(e, Fraction) else Fraction(e)",
        ("tests/test_core.py::TestEvaluationAndComplements::test_vector_entries_are_stored_as_fractions",),
    ),
    Mutant(
        "constructor-list-repeats-a-name",
        "src/linkcone/core.py",
        "if len(distinct) < len(members):",
        "if False:",
        (
            "tests/test_links.py::TestConnectivityTable::test_invalid_structure_messages",
            "tests/test_hypergraphs.py::test_repeated_member_rejected",
        ),
    ),
    Mutant(
        "lazy-result-reads-exterior-as-interior",
        "src/linkcone/links.py",
        "interior=_names_of(model, interior),",
        "interior=_names_of(model, exterior),",
        ("tests/test_links.py::TestCutSetup::test_result_after_entropy_matches_a_fresh_model",),
    ),
    Mutant(
        "lazy-result-shares-the-mask-key",
        "src/linkcone/links.py",
        'result = model._cache.get(("cut", subsystem))',
        'result = model._cache.get(("mincut", subsystem))',
        ("tests/test_links.py::TestCutSetup::test_result_after_entropy_matches_a_fresh_model",),
    ),
    Mutant(
        "uncuttable-cached-as-zero-weight",
        "src/linkcone/links.py",
        'raise UncuttableSubsystemError(\n            f"externals of',
        'model._cache[("mincut", subsystem)] = (_ZERO, 0, 0, 0)\n'
        '        raise UncuttableSubsystemError(\n            f"externals of',
        ("tests/test_links.py::TestCutSetup::test_uncuttable_entropy_raises_on_every_call",),
    ),
    Mutant(
        "model-file-list-repeats-a-name",
        "src/linkcone/modelio.py",
        'tuple(_name_set(b, "a block")',
        'tuple(frozenset(_names(b, "a block"))',
        ("tests/test_modelio_cli.py::TestModelIO::test_list_repeating_a_name",),
    ),
)


def _copy_tree(into: Path) -> None:
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, into / part, ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))


def _covers(wide: tuple[str, ...], narrow: tuple[str, ...]) -> bool:
    """Whether every test path or node id in `narrow` is one in `wide` or lies below it."""
    return all(any(test == w or test.startswith(w + "::") for w in wide) for test in narrow)


def _pytest(tree: Path, tests: tuple[str, ...], timeout: float) -> tuple[str, str]:
    """Run `pytest -x` on `tests` inside `tree`: ("passed" | "failed" | "timeout" | "error", first failure)."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    # a session of its own, so a timeout also stops any subprocess a test started
    proc = subprocess.Popen(
        command, cwd=tree, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return "timeout", f"over {timeout:g} s"
    first = next((line for line in out.splitlines() if line.startswith(("FAILED ", "ERROR "))), "")
    # 1: tests failed; 2: interrupted, as by a collection error
    outcome = {0: "passed", 1: "failed", 2: "failed"}.get(proc.returncode, "error")
    if outcome == "error":
        first = f"pytest exit {proc.returncode}: " + (out.strip().splitlines() or [""])[-1]
    return outcome, first


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run the mutant catalogue against the tests.")
    parser.add_argument("names", nargs="*", help="entries to run (default: all)")
    parser.add_argument("--timeout", type=float, default=60.0, help="seconds per pytest run (default 60)")
    args = parser.parse_args(argv)
    known = {m.name: m for m in CATALOGUE}
    unknown = [name for name in args.names if name not in known]
    if unknown:
        parser.error(f"unknown entries: {', '.join(unknown)}")
    chosen = [known[name] for name in args.names] or list(CATALOGUE)

    rows = []
    with tempfile.TemporaryDirectory(prefix="linkcone-mutants-") as scratch:
        clean = Path(scratch) / "clean"
        _copy_tree(clean)
        selections = list(dict.fromkeys(m.tests for m in chosen))
        for i, tests in enumerate(selections):
            if any(_covers(wider, tests) and (j < i or not _covers(tests, wider))
                   for j, wider in enumerate(selections) if j != i):
                continue
            start = time.perf_counter()
            outcome, detail = _pytest(clean, tests, args.timeout)
            rows.append(("(unmutated)", "passed", outcome, time.perf_counter() - start, detail or " ".join(tests)))
        for mutant in chosen:
            tree = Path(scratch) / mutant.name
            shutil.copytree(clean, tree)
            target = tree / mutant.file
            text = target.read_text(encoding="utf-8")
            if text.count(mutant.old) != 1:
                rows.append((mutant.name, "", "stale", 0.0, f"old text does not occur exactly once in {mutant.file}"))
                continue
            target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
            start = time.perf_counter()
            outcome, detail = _pytest(tree, mutant.tests, min(args.timeout, mutant.timeout or args.timeout))
            got = {"passed": "survived", "failed": "killed", "timeout": "killed"}.get(outcome, outcome)
            expected = "survived" if mutant.equivalent else "killed"
            rows.append((mutant.name, expected, got, time.perf_counter() - start, detail or mutant.equivalent))
            shutil.rmtree(tree)

    bad = 0
    print(f"{'mutant':38} {'expected':9} {'got':9} {'s':>6}  detail")
    for name, expected, got, seconds, detail in rows:
        ok = got == expected
        bad += not ok
        print(f"{name:38} {expected:9} {got:9} {seconds:6.1f}  {detail}{'' if ok else '  <-- UNEXPECTED'}")
    print(f"{len(chosen)} mutants, {bad} unexpected results")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
