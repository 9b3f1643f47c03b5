"""Golden regression corpus: E1-E23 (and E24/E25 jobs) at the default
seed, frozen.

Every deterministic experiment's structured results are pinned:
E1-E18 as full JSON under ``tests/golden/<name>.json``, E19-E23 (whose
payloads are large) as SHA-256 digests in ``tests/golden/hashes.json``.
E24/E25 take minutes whole, so the same file pins a handful of their
single jobs (``HASHED_JOBS``), each keyed by job id.
With E24 in the tree, these pins are also the tenancy layer's
no-regression contract: a build with :mod:`repro.tenancy` present but
unconfigured must reproduce every historical experiment byte for byte.
Any code change that shifts any number in any table fails here with a
readable per-path diff — which is the point: behaviour changes must be
*intentional*, reviewed via ``make regen-golden`` and a git diff.

The whole corpus runs under an **inert ambient policy spec**
(``PolicySpec.from_spec("none")``), so these pins double as the
control plane's no-regression contract: a disabled controller must
leave every experiment byte-identical to a build that predates
``repro.ctrl``.  The goldens were recorded without the spec armed; if
an inert controller ever perturbs a result, the diff fails.
"""

import io
import json
import os
import pathlib
from contextlib import redirect_stdout

import pytest

from repro.ctrl import PolicySpec
from repro.ctrl import active as policy_active
from repro.exp.golden import (
    GOLDEN_EXPERIMENTS,
    HASHED_EXPERIMENTS,
    HASHED_JOBS,
    golden_digest,
)
from repro.exp.jobs import run_experiments

GOLDEN_DIR = pathlib.Path(__file__).parent

_MAX_DIFFS_SHOWN = 12


def _diff_paths(expected, actual, path="", out=None):
    """Collect human-readable 'path: expected != actual' lines."""
    if out is None:
        out = []
    if len(out) >= _MAX_DIFFS_SHOWN:
        return out
    if type(expected) is not type(actual):
        out.append(f"{path or '<root>'}: type {type(expected).__name__} "
                   f"-> {type(actual).__name__}")
    elif isinstance(expected, dict):
        for key in expected.keys() | actual.keys():
            if key not in actual:
                out.append(f"{path}.{key}: missing from new results")
            elif key not in expected:
                out.append(f"{path}.{key}: new key (not in golden)")
            else:
                _diff_paths(expected[key], actual[key], f"{path}.{key}", out)
    elif isinstance(expected, list):
        if len(expected) != len(actual):
            out.append(f"{path}: length {len(expected)} -> {len(actual)}")
        for index, (e, a) in enumerate(zip(expected, actual)):
            _diff_paths(e, a, f"{path}[{index}]", out)
    elif expected != actual:
        out.append(f"{path or '<root>'}: {expected!r} -> {actual!r}")
    return out


def _run_under_inert_policy(names):
    """Serial, cache-free run with the inert policy spec armed."""
    with policy_active(PolicySpec.from_spec("none")):
        with redirect_stdout(io.StringIO()):
            outcome = run_experiments(list(names), jobs=1,
                                      cache=None, root_seed=0)
    assert not outcome.failed, "experiment job failed; see job results"
    # Round-trip through JSON so float/tuple representations match the
    # files exactly.
    return {
        name: json.loads(json.dumps(value, sort_keys=True))
        for name, value in outcome.values.items()
    }


@pytest.fixture(scope="module")
def fresh_values():
    """One serial, cache-free run of all JSON-pinned experiments."""
    return _run_under_inert_policy(GOLDEN_EXPERIMENTS)


def _run_in_tmp_cwd(tmp_path_factory, names):
    """``_run_under_inert_policy`` with artifacts written to a tmp cwd.

    E20-E25 write ``results/*`` artifacts as part of their assembly;
    running in a temporary directory keeps the checkout clean.
    """
    keep = os.getcwd()
    os.chdir(tmp_path_factory.mktemp("golden-artifacts"))
    try:
        return _run_under_inert_policy(names)
    finally:
        os.chdir(keep)


@pytest.fixture(scope="module")
def hashed_values(tmp_path_factory):
    """One run of the digest-pinned experiments."""
    return _run_in_tmp_cwd(tmp_path_factory, HASHED_EXPERIMENTS)


def _check_pin(key, value):
    path = GOLDEN_DIR / "hashes.json"
    assert path.exists(), (
        f"{path} missing — run `python tools/regen_golden.py --hashes`"
    )
    pins = json.loads(path.read_text())
    assert key in pins, (
        f"{key} has no pin in tests/golden/hashes.json — regenerate with "
        "`python tools/regen_golden.py --hashes`"
    )
    pin = pins[key]
    actual = golden_digest(value)
    if actual != pin:
        pytest.fail(
            f"{key} results diverged from the pinned digest "
            f"({pin[:12]}… -> {actual[:12]}…).\n"
            "Digest-pinned results have no per-path diff; rerun the "
            "experiment to inspect, and if the change is intentional "
            "regenerate with `python tools/regen_golden.py --hashes`."
        )


@pytest.mark.parametrize("name", GOLDEN_EXPERIMENTS)
def test_experiment_matches_golden(name, fresh_values):
    path = GOLDEN_DIR / f"{name}.json"
    assert path.exists(), (
        f"{path} missing — run `make regen-golden` to create the corpus"
    )
    golden = json.loads(path.read_text())
    actual = fresh_values[name]
    if golden == actual:
        return
    diffs = _diff_paths(golden, actual)
    shown = "\n".join(f"  {line}" for line in diffs[:_MAX_DIFFS_SHOWN])
    pytest.fail(
        f"{name} results diverged from tests/golden/{name}.json "
        f"({len(diffs)}+ difference(s)):\n{shown}\n"
        "If this change is intentional, regenerate with `make regen-golden` "
        "and review the JSON diff."
    )


@pytest.mark.parametrize("name", HASHED_EXPERIMENTS)
def test_experiment_matches_hash_pin(name, hashed_values):
    _check_pin(name, hashed_values[name])


@pytest.mark.parametrize("job_id", HASHED_JOBS)
def test_job_matches_hash_pin(job_id, tmp_path_factory):
    """One job alone, exactly as ``run_all <job id>`` selects it."""
    name = job_id.partition("/")[0]
    _check_pin(job_id, _run_in_tmp_cwd(tmp_path_factory, [job_id])[name])
