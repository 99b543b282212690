"""Benchmark for the peskine package, run from the root of a checkout.

    python3 bench/run.py --workload appendix --seed 0 --seconds 30 --trace 0

The package is imported from the checkout's src/ directory.  One process
runs the workload as a closed loop with one client: each item starts
when the previous one has finished, with no threads and no pool.

With --trace 0 the last line of stdout is a JSON object holding the
end-to-end metrics; per-stage figures go to stderr.  With --trace 1 the
loop alternates an untraced and a traced run of the first item until the
time is up; the JSON then holds the per-layer spans and counters per
traced item, and the spans are written to bench/out/.  --smoke shrinks
the generated inputs for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

from spans import Tracer, per_layer_units
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
MODULES = ("cli", "trivector", "polyring", "associations", "markings", "lattice", "ntheory", "fixtures")
SETUP_REPEATS = 9

END_TO_END_UNITS = {
    "setup_s": "s",
    "item_s": "s",
    "peak_rss_mb": "MB",
    "success_ratio": "ratio",
}


def load_package() -> SimpleNamespace:
    """Import peskine afresh from the checkout, so set-up pays the import."""
    for name in [n for n in sys.modules if n == "peskine" or n.startswith("peskine.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    pkg = importlib.import_module("peskine")
    where = Path(pkg.__file__).resolve().parent
    if where != SRC / "peskine":
        raise ImportError(f"peskine imported from {where}, expected {SRC / 'peskine'}")
    return SimpleNamespace(**{m: importlib.import_module(f"peskine.{m}") for m in MODULES})


def set_up(name: str, seed: int, smoke: bool):
    """Median set-up time over SETUP_REPEATS fresh imports and builds."""
    times, checks, failures = [], 0, 0
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        pk = load_package()
        workload = WORKLOADS[name](pk, seed, smoke)
        times.append(time.perf_counter() - start)
        checks += 1
        failures += workload.setup_failures
    return pk, workload, statistics.median(times), checks, failures


def run_items(workload, seconds: float) -> list:
    items = []
    start = time.perf_counter()
    while not items or time.perf_counter() - start < seconds:
        gc.collect()
        items.append(workload.item(len(items)))
    return items


def run_traced(workload, tracer: Tracer, seconds: float):
    """Alternate untraced and traced runs of item 0 until time is up."""
    plain, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        gc.collect()
        plain.append(workload.item(0))
        gc.collect()
        with tracer.installed(len(traced)):
            traced.append(workload.item(0))
    return plain, traced


def report_stages(name: str, seed: int, items, elapsed: float) -> None:
    """Per-command figures on stderr, for reading a run by eye."""
    stages: dict[str, list[float]] = {}
    for it in items:
        for key, values in it.stages.items():
            stages.setdefault(key, []).extend(values)
    lines = [f"{name} seed={seed}: {len(items)} items in {elapsed:.1f} s"]
    for key, unit in (
        ("verify_appendix_s", "s"),
        ("cubic_s", "s"),
        ("smooth_s", "s"),
        ("equations_s", "s"),
        ("assoc_ms", "ms"),
    ):
        if key in stages:
            values = stages[key]
            lines.append(f"  {key} {statistics.median(values):.4f} {unit} (median of {len(values)})")
    for key, count, seconds in (
        ("table_rows_per_s", "table_rows", "table_s"),
        ("markings_per_s", "markings", "markings_s"),
    ):
        if count in stages:
            total = sum(stages[count])
            lines.append(f"  {key} {total / sum(stages[seconds]):.2f} 1/s ({total:.0f} in total)")
    print("\n".join(lines), file=sys.stderr)


def untraced_metrics(workload, args, setup_s: float):
    start = time.perf_counter()
    items = run_items(workload, args.seconds)
    report_stages(args.workload, args.seed, items, time.perf_counter() - start)
    metrics = {
        "setup_s": setup_s,
        "item_s": statistics.median(it.seconds for it in items),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return items, metrics, 0, END_TO_END_UNITS


def traced_metrics(pk, workload, args):
    tracer = Tracer(pk)
    workload.paused = tracer.paused
    plain, traced = run_traced(workload, tracer, args.seconds)
    items = plain + traced
    digests = {it.digest.hexdigest() for it in items}
    metrics = tracer.layer_metrics(len(traced))
    metrics["trace.overhead_ratio"] = statistics.median(
        it.seconds for it in traced
    ) / statistics.median(it.seconds for it in plain)
    tracer.write_spans(OUT / f"spans-{args.workload}-{args.seed}.jsonl")
    print(
        f"{args.workload} seed={args.seed}: {len(traced)} traced runs of item 0, "
        f"{len(digests)} output digest(s)",
        file=sys.stderr,
    )
    # a traced item must produce exactly the outputs of an untraced one
    return items, metrics, len(digests) - 1, per_layer_units()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for tests")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    try:
        pk, workload, setup_s, attempted, failed = set_up(args.workload, args.seed, args.smoke)
    except ImportError as exc:
        print(f"error: cannot import peskine from {SRC}: {exc}", file=sys.stderr)
        return 2
    if args.trace:
        items, metrics, mismatches, units = traced_metrics(pk, workload, args)
    else:
        items, metrics, mismatches, units = untraced_metrics(workload, args, setup_s)
    attempted += sum(it.attempted for it in items) + mismatches
    failed += sum(it.failed for it in items) + mismatches
    metrics["success_ratio"] = (attempted - failed) / attempted
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
