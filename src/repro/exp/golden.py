"""Canonical hashing for hash-pinned golden experiments.

E1-E18 pin their full structured results as JSON files under
``tests/golden/``.  E19-E23 produce large payloads (per-point fault
matrices, trace events, windowed time series, control tournaments,
fleet grids) where a full-JSON pin would dwarf the corpus, so they pin
a SHA-256 digest instead — ``tests/golden/hashes.json`` maps
experiment name to digest, and ``tools/regen_golden.py --hashes``
re-records it.

E24/E25 take minutes whole, so :data:`HASHED_JOBS` pins the cheapest
of their cells that together cover every path of their shared
noisy-neighbour scenario, each run alone as ``run_all <job id>`` and
keyed by job id.  The E1-E23 pins remain the contract that an
*unconfigured* tenancy layer leaves every historical experiment
byte-identical.

Both the pin test and the regen tool import :func:`golden_digest` from
here so the canonicalisation can never drift between them.  The only
volatile fields in those experiments' results are E20's host
wall-clock measurements (``host_s_unarmed``/``host_s_armed``); they
are stripped before hashing, everything else is simulated time and
fully deterministic at a fixed root seed.
"""

from __future__ import annotations

import hashlib
import json

__all__ = ["HASHED_EXPERIMENTS", "HASHED_JOBS", "VOLATILE_KEYS", "canonical",
           "golden_digest"]

#: experiments pinned by digest rather than full JSON
HASHED_EXPERIMENTS = ("e19", "e20", "e21", "e22", "e23")

#: single jobs pinned by digest (one ``run_experiments([job_id])`` each)
HASHED_JOBS = (
    "e24/single@solo",
    "e24/single@4t-rateviol-on",
    "e24/fleet@solo",
    "e25/single@4t-tight-calm",
    "e25/fleet@fleet-tight-calm",
)

#: result fields measured in host wall-clock (nondeterministic)
VOLATILE_KEYS = frozenset({"host_s_unarmed", "host_s_armed"})


def canonical(value):
    """``value`` with volatile (wall-clock) fields removed, recursively."""
    if isinstance(value, dict):
        return {
            key: canonical(item)
            for key, item in value.items() if key not in VOLATILE_KEYS
        }
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    return value


def golden_digest(value) -> str:
    """SHA-256 of the canonical JSON of ``value``."""
    material = json.dumps(canonical(value), sort_keys=True,
                          separators=(",", ":"), default=str)
    return hashlib.sha256(material.encode()).hexdigest()
