"""Run one linkcone benchmark workload and print its metrics.

    python3 bench/run.py --workload link-mincut --seed 1 --seconds 20 --trace 0

Run from anywhere; the benchmark imports linkcone from the `src/`
directory next to this one and exits with code 1, printing no result,
when it is missing.

A run imports linkcone eleven times and sets the workload up three to
eleven times (the medians are reported), warms linkcone's module-level caches, then
issues the workload's pool of operations one after another, in a
seeded order that changes every pass, until `--seconds` have passed
and at least 40 operations have been attempted; only whole passes are
run.  Every completed operation is one latency sample; `ops_per_s` is
completed operations over the wall time of the timed passes, and
`op_tail_ms` is taken at a percentile fixed by the pool size (see
`tail`).  After timing, every operation's first output is checked and
every repetition must have reproduced it.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  With `--trace 0` the
metrics are the end-to-end ones; with `--trace 1` the same run is
traced and the metrics are per-layer self times and counts, per pass
over the pool, and the spans are written to `bench/out/`.  The line
before it reports the Python version, `nproc` and the run's shape.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
# set-up runs SETUP_REPEATS times, or fewer once SETUP_BUDGET_S is spent, but at least
# SETUP_MIN_REPEATS: cheap set-ups last tens of milliseconds and need many samples
SETUP_REPEATS = 11
SETUP_MIN_REPEATS = 3
SETUP_BUDGET_S = 3.0
# a run goes on past --seconds until it has attempted this many operations, so it has a tail
MIN_SAMPLES = 40

# contraction search modes, one nodes-per-second metric each
NODE_RATES = ("graph", "hypergraph3", "hypergraph4")
# name, unit: end-to-end metrics of an untraced run
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)
# name, unit, span names whose self time it sums (or count names it sums)
PER_LAYER = (
    ("links.connectivity_s", "s", ("links.connectivity",)),
    ("links.connectivity_calls", "count", ("links.connectivity_calls",)),
    ("links.min_cut_s", "s", ("links.min_cut",)),
    ("links.min_cuts", "count", ("links.min_cuts",)),
    ("links.convert_s", "s", ("links.convert",)),
    ("links.bridges_s", "s", ("links.bridges",)),
    ("links.bridges", "count", ("links.bridges",)),
    ("certificates.partition_s", "s", ("certificates.partition",)),
    ("certificates.indicator_s", "s", ("certificates.indicator",)),
    ("certificates.check_s", "s", ("certificates.check",)),
    ("certificates.cells", "count", ("certificates.cells",)),
    ("certificates.checks", "count", ("certificates.checks",)),
    ("contraction.search_s", "s", tuple(f"contraction.search.{mode}" for mode in NODE_RATES)),
    ("contraction.check_s", "s", ("contraction.check",)),
    ("contraction.nodes", "count", tuple(f"contraction.search.{mode}.nodes" for mode in NODE_RATES)),
    ("graphs.flow_s", "s", ("graphs.flow",)),
    ("graphs.subsystems", "count", ("graphs.subsystems",)),
    ("hypergraphs.cut_s", "s", ("hypergraphs.cut",)),
    ("hypergraphs.subsystems", "count", ("hypergraphs.subsystems",)),
    ("modelio.load_s", "s", ("modelio.load",)),
    ("modelio.dump_s", "s", ("modelio.dump",)),
    ("modelio.bytes", "count", ("modelio.bytes",)),
    ("cli.main_s", "s", ("cli.main",)),
    ("cli.commands", "count", ("cli.commands",)),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: tiny inputs with every check on, to exercise the harness")
    return parser.parse_args(argv)


def import_linkcone() -> float:
    """Import linkcone from this checkout's sources; returns the median import time.

    linkcone's modules are dropped from `sys.modules` and imported afresh
    SETUP_REPEATS times; the standard-library modules they use stay loaded
    after the first import, as in any program that imports linkcone late.
    """
    if not (SRC / "linkcone" / "__init__.py").is_file():
        raise SystemExit(f"error: no linkcone sources under {SRC}")
    sys.path.insert(0, str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        for name in [m for m in sys.modules if m == "linkcone" or m.startswith("linkcone.")]:
            del sys.modules[name]
        start = time.perf_counter()
        for module in ("linkcone", "linkcone.cli", "linkcone.modelio"):
            importlib.import_module(module)
        times.append(time.perf_counter() - start)
    linkcone = sys.modules["linkcone"]
    if not Path(linkcone.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: linkcone was imported from {linkcone.__file__}, not {SRC}")
    return statistics.median(times)


def tail(latencies: list[float], pool: int) -> tuple[float, float] | None:
    """Latency at the tail percentile of a run over `pool` operations, and that percentile.

    The percentile, 1 - 10/n with n = pool * ceil(MIN_SAMPLES / pool), leaves
    exactly ten samples beyond it in the shortest run the sample floor allows
    and at least ten in every longer run.  It depends on the pool, not on how
    many passes a run makes, so a slow run does not move the tail to another
    operation.  None below MIN_SAMPLES samples.
    """
    if len(latencies) < MIN_SAMPLES:
        return None
    share = 1 - 10 / (pool * math.ceil(MIN_SAMPLES / pool))
    ordered = sorted(latencies)
    position = share * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low), 100 * share


def measure(ops, seconds: float, seed: int, tracer):
    """Closed loop over the pool in whole passes; returns per-op samples and outcomes."""
    order_rng = random.Random(seed * 7919 + 1)
    samples: list[list[float]] = [[] for _ in ops]
    first: list[object] = [None] * len(ops)
    mismatches: list[str] = []
    attempted = failed = 0
    pass_times: list[float] = []
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        order = list(range(len(ops)))
        order_rng.shuffle(order)
        for i in order:
            op = ops[i]
            attempted += 1
            tracer.op_id = i
            try:
                with tracer.span("op"):
                    began = time.perf_counter()
                    out = op.run()
                    took = time.perf_counter() - began
            except Exception:
                failed += 1
                print(f"operation {op.name} failed:\n{traceback.format_exc()}", file=sys.stderr)
                continue
            samples[i].append(took)
            record = op.record(out)
            if first[i] is None:
                first[i] = record
            elif record != first[i]:
                mismatches.append(f"{op.name}: a repetition changed the output")
        pass_times.append(time.perf_counter() - pass_start)
        # keep the harness's records out of the collections the operations pay for
        gc.collect()
        gc.freeze()
        if time.perf_counter() - start >= seconds and attempted >= MIN_SAMPLES:
            return samples, first, mismatches, attempted, failed, pass_times


def check_outputs(ops, first) -> tuple[int, list[str]]:
    from workloads import CheckFailed

    facts = 0
    problems = []
    for op, out in zip(ops, first):
        if out is None:
            continue
        try:
            facts += op.check(out)
        except CheckFailed as exc:
            problems.append(f"{op.name}: {exc}")
    return facts, problems


def per_layer_metrics(tracer, passes: int, ops_per_s: float) -> dict:
    self_time = tracer.self_times()
    counts = tracer.counts
    metrics = {}
    for name, unit, sources in PER_LAYER:
        pool = counts if unit == "count" else self_time
        metrics[name] = {"value": sum(pool[s] for s in sources) / passes, "unit": unit}
    for mode in NODE_RATES:
        busy = self_time[f"contraction.search.{mode}"]
        nodes = counts[f"contraction.search.{mode}.nodes"]
        metrics[f"contraction.nodes_per_s.{mode}"] = {"value": nodes / busy if busy else 0.0, "unit": "1/s"}
    metrics["generate.models_s"] = {"value": self_time["generate.models"], "unit": "s"}
    metrics["traced_ops_per_s"] = {"value": ops_per_s, "unit": "1/s"}
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    import_s = import_linkcone()
    from tracing import Tracer
    from workloads import WORKLOADS, warm_caches

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    tracer = Tracer(enabled=bool(args.trace))
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        setup_times = []
        for repeat in range(SETUP_REPEATS):
            tracer.enabled = bool(args.trace) and repeat == 0
            ops = None
            gc.collect()
            began = time.perf_counter()
            ops = workload.setup(args.seed, args.size, tracer, workdir)
            warm_caches()
            setup_times.append(time.perf_counter() - began)
            if repeat + 1 >= SETUP_MIN_REPEATS and sum(setup_times) >= SETUP_BUDGET_S:
                break
        tracer.enabled = bool(args.trace)
        gc.collect()
        gc.freeze()
        samples, first, mismatches, attempted, failed, pass_times = measure(ops, args.seconds, args.seed, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        tracer.enabled = False
        facts, problems = check_outputs(ops, first)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    problems = mismatches + problems
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)

    latencies = [took for s in samples for took in s]
    ops_per_s = len(latencies) / sum(pass_times)
    tail_point = tail(latencies, len(ops))
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "pool": len(ops),
        "pass_s": pass_times,
        "checked_facts": facts,
        "setup_runs_s": setup_times,
        "import_s": import_s,
        "tail_percentile": tail_point[1] if tail_point else None,
    }
    if args.trace:
        metrics = per_layer_metrics(tracer, len(pass_times), ops_per_s)
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.dump(spans_path)
        info["spans"] = str(spans_path.relative_to(ROOT))
    else:
        values = {
            "setup_s": import_s + statistics.median(setup_times),
            "ops_per_s": ops_per_s,
            "op_p50_ms": 1000 * statistics.median(latencies) if latencies else 0.0,
            "op_tail_ms": 1000 * tail_point[0] if tail_point else None,
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END if values[name] is not None}
    print(json.dumps({"info": info}))
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
