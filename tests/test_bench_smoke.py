"""The benchmark's independent oracles, run at smoke size.

`bench/run.py` checks every operation against brute-force min-cuts, BFS
connectivity, brute-force minimal bridges, bipartition graph and
hypergraph cuts, and an integer contraction-map checker and search, none
of which import linkcone.  A short run is a second, independent check of
the link kernel, the flow, the contraction search and checkers, and the
CLI commands that `models-cli` drives.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent.parent / "bench" / "run.py"


@pytest.mark.parametrize("workload", ["link-mincut", "link-certify", "contraction-search", "models-cli"])
def test_bench_oracles_pass(workload):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "1", "--seconds", "1", "--size", "smoke"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert summary["correct"] is True
    assert summary["failed"] == 0
    assert summary["attempted"] > 0
