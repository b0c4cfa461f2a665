"""Repeat workloads over several seeds and report how steady each metric is.

    python3 bench/steady.py --workloads link-mincut,models-cli --runs 10
    python3 bench/steady.py --workloads contraction-search --runs 3 --overhead

Run i uses seed `--first-seed + i`; the workload order is reversed on
every other run so that slow drift of the machine does not always hit
the same workload.  For each end-to-end metric the report gives the
median, the quartiles (`statistics.quantiles(values, n=4)`) and the
spread, (q3 - q1) / median, next to the bound in BENCHMARK.json and a
third of it.  Set bounds from this output: a bound must exceed the
spread seen here, or two sets of runs of the same code disagree.

With `--overhead` every run is repeated traced on the same seed, in
alternating order, and the report adds traced ops_per_s as a share of
untraced ops_per_s and the median of every nonzero per-layer metric.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(argv)} exited {done.returncode}:\n{done.stderr[-2000:]}")
    return json.loads(lines[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / median


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--overhead", action="store_true")
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    results: dict[str, list[dict]] = {w: [] for w in workloads}
    traced: dict[str, list[dict]] = {w: [] for w in workloads}
    for i in range(args.runs):
        seed = args.first_seed + i
        for w in workloads if i % 2 == 0 else workloads[::-1]:
            modes = (0, 1) if args.overhead else (0,)
            for trace in modes if i % 2 == 0 else modes[::-1]:
                result = run_once(w, seed, args.seconds, trace)
                (traced if trace else results)[w].append(result)
                print(f"# {w} seed={seed} trace={trace} correct={result['correct']} "
                      f"attempted={result['attempted']} failed={result['failed']}", flush=True)

    worst = 0.0
    for w in workloads:
        runs = results[w]
        print(f"\n{w}: {len(runs)} runs, failed share "
              f"{sorted({r['failed'] / r['attempted'] for r in runs})}")
        print(f"  {'metric':<14}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>8}{'bound/3':>9}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]
            if len(values) < 2:
                continue
            median, q1, q3, s = spread(values)
            flag = "" if s < bound / 3 else ("  above bound/3" if s <= bound else "  ABOVE BOUND")
            worst = max(worst, s / bound)
            print(f"  {name:<14}{median:>12.5g}{q1:>12.5g}{q3:>12.5g}{s:>9.3f}{bound:>8.3f}{bound / 3:>9.3f}{flag}")
            print("  " + " " * 14 + " ".join(f"{v:.4g}" for v in values))
        if args.overhead and traced[w]:
            shares = [t["metrics"]["traced_ops_per_s"]["value"] / u["metrics"]["ops_per_s"]["value"]
                      for t, u in zip(traced[w], runs)]
            print(f"  traced/untraced ops_per_s: median {statistics.median(shares):.3f} "
                  f"(min {min(shares):.3f}, max {max(shares):.3f})")
            for name in traced[w][0]["metrics"]:
                values = [t["metrics"][name]["value"] for t in traced[w]]
                if any(values):
                    print(f"  {name:<36}{statistics.median(values):>14.6g} {traced[w][0]['metrics'][name]['unit']}")
    print(f"\nlargest spread as a share of its bound: {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
