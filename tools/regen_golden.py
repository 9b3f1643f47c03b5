#!/usr/bin/env python3
"""Regenerate the golden regression corpus under tests/golden/.

Runs every deterministic experiment at the default root seed and pins
its structured results: E1-E18 as full JSON files
(``tests/golden/<name>.json``), E19-E23 and the E24/E25 jobs named in
``HASHED_JOBS`` as SHA-256 digests (``tests/golden/hashes.json``,
volatile wall-clock fields stripped — see :mod:`repro.exp.golden`).  The tier-1 test
``tests/golden/test_golden.py`` re-runs the experiments and diffs
against these pins, so regenerate (``make regen-golden``) whenever an
intentional behaviour change shifts the numbers — and eyeball the git
diff to confirm the shift is the one you meant to make.  A JSON-pinned
selection is also checked against the paper's shape claims
(:mod:`repro.exp.claims`) before anything is written: a run that
breaks a claim lists the broken claim ids and writes nothing.

Usage::

    python tools/regen_golden.py            # all of e1..e18
    python tools/regen_golden.py e5 e11     # a subset
    python tools/regen_golden.py --hashes   # re-pin e19..e23 + job digests
"""

from __future__ import annotations

import io
import json
import os
import pathlib
import sys
import tempfile
from contextlib import redirect_stdout

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.exp.claims import check_claims  # noqa: E402
from repro.exp.golden import (  # noqa: E402
    GOLDEN_EXPERIMENTS,
    HASHED_EXPERIMENTS,
    HASHED_JOBS,
    golden_digest,
)
from repro.exp.jobs import run_experiments  # noqa: E402

GOLDEN_DIR = REPO / "tests" / "golden"


def regenerate(names: list[str]) -> int:
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    tables = io.StringIO()
    with redirect_stdout(tables):
        outcome = run_experiments(list(names), jobs=1, cache=None,
                                  root_seed=0)
    if outcome.failed:
        sys.stdout.write(tables.getvalue())
        print("experiment failures; goldens NOT written", file=sys.stderr)
        return 1
    broken = check_claims(outcome.values)
    if broken:
        for claim_id in broken:
            print(f"claim broken: {claim_id}", file=sys.stderr)
        print("paper claims broken; goldens NOT written", file=sys.stderr)
        return 1
    for name in names:
        path = GOLDEN_DIR / f"{name}.json"
        path.write_text(
            json.dumps(outcome.values[name], indent=2, sort_keys=True)
            + "\n"
        )
        print(f"wrote {path.relative_to(REPO)}")
    return 0


def regenerate_hashes() -> int:
    """Re-pin the digest corpus (artifact writes go to a tmp cwd).

    The experiments run as one selection; each pinned job runs as its
    own selection, exactly as ``run_all <job id>`` would run it.
    """
    keep = os.getcwd()
    tables = io.StringIO()
    selections = [list(HASHED_EXPERIMENTS)] + [[job] for job in HASHED_JOBS]
    pins = {}
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        try:
            for selection in selections:
                with redirect_stdout(tables):
                    outcome = run_experiments(selection, jobs=1,
                                              cache=None, root_seed=0)
                if outcome.failed:
                    sys.stdout.write(tables.getvalue())
                    print("experiment failures; hashes NOT written",
                          file=sys.stderr)
                    return 1
                for key in selection:
                    value = outcome.values[key.partition("/")[0]]
                    pins[key] = golden_digest(
                        json.loads(json.dumps(value, sort_keys=True)))
        finally:
            os.chdir(keep)
    path = GOLDEN_DIR / "hashes.json"
    path.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path.relative_to(REPO)}")
    return 0


def main(argv: list[str]) -> int:
    if argv and argv[0] == "--hashes":
        if argv[1:]:
            print("--hashes takes no further arguments", file=sys.stderr)
            return 2
        return regenerate_hashes()
    names = [a.lower() for a in argv] or list(GOLDEN_EXPERIMENTS)
    unknown = [n for n in names if n not in GOLDEN_EXPERIMENTS]
    if unknown:
        print(f"not golden experiments: {', '.join(unknown)} "
              f"(choose from {', '.join(GOLDEN_EXPERIMENTS)})",
              file=sys.stderr)
        return 2
    return regenerate(names)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
