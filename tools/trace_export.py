#!/usr/bin/env python3
"""Export a Perfetto/Chrome-trace file for one armed stack.

Builds the requested architecture's echo testbed with the span layer
armed, drives the standard E20 workload, and writes the resulting span
tree as Chrome trace-event JSON — load it at ``ui.perfetto.dev`` or
``chrome://tracing``.  With ``--validate`` the payload is additionally
checked against the trace-event schema invariants (CI runs this as the
export smoke test) and the exit code reflects the result.

Usage::

    python tools/trace_export.py --stack lauberhorn --out trace.json
    python tools/trace_export.py --stack linux --requests 50 --validate
    python tools/trace_export.py --all --out results/e20_trace.json
"""

from __future__ import annotations

import argparse
import os
import pathlib
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.experiments.four_stacks import STACKS  # noqa: E402
from repro.experiments.obs_attribution import measure_obs_stack  # noqa: E402
from repro.obs.export import (  # noqa: E402
    export_chrome_trace,
    render_stage_summary,
    validate_chrome_trace,
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--stack", choices=STACKS, action="append",
                        dest="stacks", default=None,
                        help="architecture to trace (repeatable)")
    parser.add_argument("--all", action="store_true",
                        help="trace all four stacks")
    parser.add_argument("--requests", type=int, default=25,
                        help="requests per stack (default 25)")
    parser.add_argument("--out", default="trace.json",
                        help="output path (default trace.json)")
    parser.add_argument("--validate", action="store_true",
                        help="check the payload against the trace-event "
                             "schema; nonzero exit on violations")
    args = parser.parse_args(argv)

    stacks = list(STACKS) if args.all else (args.stacks or ["lauberhorn"])
    results = [measure_obs_stack(stack, args.requests) for stack in stacks]
    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    payload = export_chrome_trace(
        args.out, {result.stack: result.spans for result in results})

    for result in results:
        print(render_stage_summary(result.spans, title=result.stack))
        print()
        if result.violations:
            print(f"{result.stack}: span-tree violations:")
            for violation in result.violations:
                print(f"  - {violation}")
            return 1
        if not result.identical:
            print(f"{result.stack}: armed run changed simulated RTTs")
            return 1
    print(f"wrote {args.out}: {len(payload['traceEvents'])} trace events "
          f"({', '.join(stacks)})")

    if args.validate:
        problems = validate_chrome_trace(payload)
        if problems:
            print("trace-event schema violations:")
            for problem in problems:
                print(f"  - {problem}")
            return 1
        print("schema check: OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
