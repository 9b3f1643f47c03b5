"""End-to-end simulator benchmark: one workload per invocation.

Usage (from the repository root)::

    python3 perfbench/run.py --workload rpc-mix-lauberhorn --seed 1 \\
        --seconds 25 --trace 0

``--trace 0`` repeats the workload, untraced, until ``--seconds`` of host
time have passed and prints the end-to-end metrics (medians over the
repetitions).  ``--trace 1`` does the same, then runs the workload once
more under cProfile and prints the per-layer metrics.  Every repetition
uses the same seed, so every repetition must reproduce the same simulated
RTT digest; the traced run must reproduce it too.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The run exits 2
without a result if the simulator sources (``src/repro``) are missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

from layers import LAYERS, LayerSplit

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("rpc-mix-lauberhorn", "rpc-mix-linux-observed",
             "tenant-bulk-flood")

#: fresh processes timed from start to the first simulated event
SETUP_PROBES = 9
PROBE_TIMEOUT_S = 60

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "host_us_per_req": "us",
    "peak_rss_mb": "MB",
    "sim_p50_us": "us",
    "sim_p99_us": "us",
    "sim_cpu_us_per_req": "us",
    "done_frac": "ratio",
}

#: per-layer metrics besides ``<layer>.self_s/.share/.calls_in``
COUNTERS = {
    "sim.events": "count",
    "sim.host_ns_per_event": "ns",
    "sim.wheel_pushes": "count",
    "sim.fast_path_ratio": "ratio",
    "net.checksum_calls": "count",
    "net.wire_frames": "count",
    "net.wire_bytes": "bytes",
    "nic.lauberhorn.tryagain_ratio": "ratio",
    "nic.lauberhorn.dma_fallbacks": "count",
    "os.context_switches": "count",
    "os.irqs": "count",
    "os.syscalls": "count",
    "obs.spans": "count",
    "obs.windows": "count",
    "obs.flight_events": "count",
    "check.samples": "count",
    "check.violations": "count",
    "tenancy.rate_dropped": "count",
    "tenancy.police_ratio": "ratio",
    "hw.busy_ns": "ns",
    "hw.stall_ns": "ns",
    "trace.overhead_x": "x",
    "trace.coverage": "ratio",
    "fail_frac": "ratio",
}

LAYER_SUFFIXES = {"self_s": "s", "share": "ratio", "calls_in": "count"}


def per_layer_units() -> dict:
    units = {f"{layer}.{suffix}": unit
             for layer in LAYERS for suffix, unit in LAYER_SUFFIXES.items()}
    units.update(COUNTERS)
    return units


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="request-count multiplier (smoke tests only)")
    parser.add_argument("--probes", type=int, default=SETUP_PROBES,
                        help="fresh processes timed for setup_s")
    parser.add_argument("--inject-incomplete", action="store_true",
                        help="add one measured request that can never "
                             "complete (correctness-gate self-test)")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def setup_probe(args) -> int:
    """Child process: import, build, deploy and arm, then print the
    monotonic clock at the point the first simulated event would run."""
    import scenarios

    scenarios.build(args.workload, args.seed, args.scale)
    print(repr(time.perf_counter()))
    return 0


def measure_setup(args) -> list[float]:
    """Host seconds from process start to the first simulated event,
    once per fresh process (``perf_counter`` is system-wide monotonic)."""
    times = []
    for _ in range(args.probes):
        command = [sys.executable, os.path.abspath(__file__),
                   "--setup-probe", "--workload", args.workload,
                   "--seed", str(args.seed), "--scale", str(args.scale)]
        started = time.perf_counter()
        child = subprocess.run(command, capture_output=True, text=True,
                               timeout=PROBE_TIMEOUT_S, cwd=ROOT)
        if child.returncode != 0:
            raise RuntimeError(f"setup probe failed:\n{child.stderr}")
        times.append(float(child.stdout.split()[-1]) - started)
    return times


def head_commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_metadata() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "commit": head_commit(),
        "processes": "one measuring process; setup_s probes run one at a "
                     "time in fresh child processes",
    }


def repeat_untraced(args, scenarios) -> list:
    """Drive the workload, tracing off, until ``--seconds`` have passed."""
    outcomes = []
    started = time.perf_counter()
    while True:
        outcomes.append(scenarios.run_once(
            args.workload, args.seed, args.scale,
            inject_incomplete=args.inject_incomplete))
        gc.collect()
        if time.perf_counter() - started >= args.seconds:
            return outcomes


def gate(outcomes: list, traced=None) -> list[str]:
    """Correctness problems of a run (empty means it passes)."""
    first = outcomes[0]
    problems = list(first.gate_problems())
    for other in outcomes[1:]:
        if (other.digest, other.counters) != (first.digest, first.counters):
            problems.append("repetitions of one seed differ")
            break
    if traced is not None:
        problems += [f"traced run: {p}" for p in traced.gate_problems()]
        if traced.digest != first.digest:
            problems.append(f"traced digest {traced.digest} != untraced "
                            f"{first.digest}")
    return problems


def median_wall(outcomes: list) -> float:
    return statistics.median(o.wall_s for o in outcomes)


def percentile(samples: list, q: float) -> float:
    """Nearest-rank percentile, the convention the experiments use."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def end_to_end(outcomes: list, setup_times: list[float]) -> dict:
    first = outcomes[0]
    wall_s = median_wall(outcomes)
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": wall_s,
        "host_us_per_req": wall_s / first.sent * 1e6,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "sim_p50_us": percentile(first.rtts, 0.50) / 1e3,
        "sim_p99_us": percentile(first.rtts, 0.99) / 1e3,
        "sim_cpu_us_per_req":
            first.counters["hw.busy_ns"] / max(1, first.responses) / 1e3,
        "done_frac": first.completed / first.attempted,
    }


def per_layer(outcomes: list, traced, split) -> dict:
    first = outcomes[0]
    values = split.metrics()
    values.update(first.counters)
    values["sim.host_ns_per_event"] = median_wall(outcomes) \
        / first.counters["sim.events"] * 1e9
    values["net.checksum_calls"] = split.calls_to_file(
        os.path.join("net", "checksum.py"))
    values["trace.overhead_x"] = traced.wall_s / median_wall(outcomes)
    values["trace.coverage"] = split.total_s / traced.wall_s
    values["fail_frac"] = 1.0 - first.completed / first.attempted
    return values


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: simulator sources not found under {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.setup_probe:
        return setup_probe(args)

    setup_times = measure_setup(args)
    import scenarios

    outcomes = repeat_untraced(args, scenarios)
    traced = split = None
    if args.trace:
        import cProfile

        profiler = cProfile.Profile()
        traced = scenarios.run_once(args.workload, args.seed, args.scale,
                                    profiler=profiler,
                                    inject_incomplete=args.inject_incomplete)
        split = LayerSplit(profiler)
    problems = gate(outcomes, traced)
    if args.trace:
        values = per_layer(outcomes, traced, split)
        units = per_layer_units()
        # the per-layer split must account for the whole traced wall
        if not 0.9 <= values["trace.coverage"] <= 1.05:
            problems.append(f"layer self times cover "
                            f"{values['trace.coverage']:.3f} of traced wall")
    else:
        values = end_to_end(outcomes, setup_times)
        units = END_TO_END

    runs = outcomes + ([traced] if traced is not None else [])
    attempted = sum(o.attempted for o in runs)
    failed = attempted if problems else \
        sum(o.attempted - o.completed for o in runs)
    first = outcomes[0]
    print(f"host: {json.dumps(host_metadata(), sort_keys=True)}")
    walls = ",".join(f"{o.wall_s:.3f}" for o in outcomes)
    print(f"workload {args.workload} seed={args.seed} "
          f"repetitions={len(outcomes)} walls_s={walls} "
          f"p50_us={percentile(first.rtts, 0.50) / 1e3:.4f} "
          f"p99_us={percentile(first.rtts, 0.99) / 1e3:.4f} "
          f"digest={first.digest}")
    print("gate: " + ("PASS" if not problems else
                      "FAIL (" + "; ".join(problems) + ")"))
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
