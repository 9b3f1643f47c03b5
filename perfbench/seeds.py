"""Gate every workload at the default seed and at one held-out seed.

Usage (from the repository root)::

    python3 perfbench/seeds.py

Each (workload, seed) pair runs once untraced and once traced, the same
way ``run.py --trace 1`` does, and must pass the correctness gate.  The
table shows that the numbers are not an artifact of one seed.  Exits 1 if
any pair fails.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import run

DEFAULT_SEED = 1
HELD_OUT_SEED = 7919


def main() -> int:
    failures = 0
    print(f"{'workload':<24} {'seed':>5} {'gate':<5} {'p50 us':>8} "
          f"{'p99 us':>8} {'fail_frac':>9}  digest")
    for workload in run.WORKLOADS:
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            child = subprocess.run(
                [sys.executable, os.path.abspath(run.__file__),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", "0", "--trace", "1", "--probes", "1"],
                capture_output=True, text=True, cwd=run.ROOT)
            lines = child.stdout.strip().splitlines()
            if child.returncode != 0 or not lines:
                print(child.stderr, file=sys.stderr)
                failures += 1
                continue
            result = json.loads(lines[-1])
            fields = dict(item.split("=", 1) for item in
                          [ln for ln in lines if ln.startswith("workload ")][0]
                          .split() if "=" in item)
            ok = result["correct"]
            failures += not ok
            print(f"{workload:<24} {seed:>5} {'PASS' if ok else 'FAIL':<5} "
                  f"{fields['p50_us']:>8} {fields['p99_us']:>8} "
                  f"{result['metrics']['fail_frac']['value']:>9.3g}  "
                  f"{fields['digest']}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
