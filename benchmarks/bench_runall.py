"""Wall-clock benchmarks for the parallel experiment runner.

Four timed configurations of the same experiment selection:

* **serial**   — ``--jobs 1``, cache disabled (the historical runner);
* **parallel** — ``--jobs N``, cache disabled (process-pool fan-out);
* **cold**     — ``--jobs N`` into an empty ``.repro-cache`` root;
* **warm**     — the same run again, everything served from cache.

Usage::

    PYTHONPATH=src python benchmarks/bench_runall.py                 # full
    PYTHONPATH=src python benchmarks/bench_runall.py --quick         # smoke
    PYTHONPATH=src python benchmarks/bench_runall.py e24 e25 --jobs 2  # a selection
    PYTHONPATH=src python benchmarks/bench_runall.py --out BENCH_runall.json

The JSON report records host core counts alongside the timings: the
pool cannot beat the serial runner on a single-core container, so the
≥3x parallel target is only meaningful where ``cpus_available >=
jobs`` (the cache speedup is core-count independent).
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
import tempfile
import time
from contextlib import redirect_stdout

from repro.exp.cache import ResultCache
from repro.exp.jobs import EXPERIMENT_SPECS, run_experiments

QUICK_SELECTION = ["e1", "e8", "e10"]


def _timed_run(selected, jobs, cache) -> float:
    sink = io.StringIO()
    started = time.perf_counter()
    with redirect_stdout(sink):
        outcome = run_experiments(selected, jobs=jobs, cache=cache)
    elapsed = time.perf_counter() - started
    if outcome.failed:
        raise RuntimeError(f"benchmark run failed (jobs={jobs})")
    return elapsed


def bench(selected, jobs: int) -> dict:
    try:
        cpus_available = len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        cpus_available = os.cpu_count() or 1

    print(f"serial:   --jobs 1, no cache ({len(selected)} experiments)...")
    serial_s = _timed_run(selected, jobs=1, cache=None)
    print(f"          {serial_s:.2f} s")
    print(f"parallel: --jobs {jobs}, no cache...")
    parallel_s = _timed_run(selected, jobs=jobs, cache=None)
    print(f"          {parallel_s:.2f} s")

    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as root:
        print(f"cold:     --jobs {jobs}, empty cache...")
        cold_s = _timed_run(selected, jobs=jobs, cache=ResultCache(root=root))
        print(f"          {cold_s:.2f} s")
        print(f"warm:     --jobs {jobs}, all cached...")
        warm_cache = ResultCache(root=root)
        warm_s = _timed_run(selected, jobs=jobs, cache=warm_cache)
        print(f"          {warm_s:.2f} s "
              f"({warm_cache.hits} hits, {warm_cache.misses} misses)")

    return {
        "benchmark": "run_all",
        "selected": list(selected),
        "jobs": jobs,
        "host": {
            "cpus_total": os.cpu_count(),
            "cpus_available": cpus_available,
            "platform": sys.platform,
        },
        "serial_s": round(serial_s, 3),
        "parallel_s": round(parallel_s, 3),
        "parallel_speedup": round(serial_s / parallel_s, 2),
        "cache_cold_s": round(cold_s, 3),
        "cache_warm_s": round(warm_s, 3),
        "warm_speedup": round(cold_s / warm_s, 2),
        "warm_hits": warm_cache.hits,
        "note": (
            "parallel_speedup is bounded by cpus_available; the >=3x "
            "target for --jobs 4 assumes a host with >=4 usable cores"
        ),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("selection", nargs="*", metavar="EXPERIMENT",
                        help="experiments or job ids to time (default: all)")
    parser.add_argument("--jobs", type=int, default=4,
                        help="worker count for the parallel runs")
    parser.add_argument("--quick", action="store_true",
                        help=f"CI smoke: only {' '.join(QUICK_SELECTION)}")
    parser.add_argument("--out", help="write the JSON report here")
    args = parser.parse_args(argv)

    if args.quick:
        selected = QUICK_SELECTION
    else:
        selected = [name.lower() for name in args.selection] or list(
            EXPERIMENT_SPECS)
    unknown = [name for name in selected
               if name.partition("/")[0] not in EXPERIMENT_SPECS]
    if unknown:
        parser.error(f"unknown experiments: {', '.join(unknown)}")
    report = bench(selected, jobs=max(2, args.jobs))
    print(json.dumps(report, indent=2))
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")
        print(f"report written to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
