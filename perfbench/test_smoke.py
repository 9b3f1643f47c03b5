"""Smoke test of the benchmark at tiny sizes.

Run from the repository root::

    python3 -m pytest perfbench/test_smoke.py -q

Each case runs ``perfbench/run.py`` as the benchmark's caller does, with
``--scale`` shrinking every workload to a few dozen requests.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
from layers import LAYERS  # noqa: E402

TINY = ["--scale", "0.02", "--seconds", "0", "--probes", "1"]


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=170)


def _result(*args) -> dict:
    child = _bench(*args)
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout.strip().splitlines()[-1])


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    result = _result("--workload", workload, "--seed", "3",
                     "--trace", trace, *TINY)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    spec = _spec()["per_layer" if trace == "1" else "end_to_end"]
    wanted = {entry["name"]: entry["unit"] for entry in spec}
    printed = {name: body["unit"] for name, body in result["metrics"].items()}
    assert printed == wanted
    for body in result["metrics"].values():
        assert math.isfinite(body["value"])
    if trace == "1":
        shares = sum(result["metrics"][f"{layer}.share"]["value"]
                     for layer in LAYERS)
        assert shares == pytest.approx(1.0, abs=1e-9)
        assert 0.9 <= result["metrics"]["trace.coverage"]["value"] <= 1.05


def test_spec_lists_every_workload_once():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END


@pytest.mark.parametrize("trace", ["0", "1"])
def test_gate_trips_on_an_incomplete_request(trace):
    result = _result("--workload", "rpc-mix-lauberhorn", "--seed", "3",
                     "--trace", trace, "--inject-incomplete", *TINY)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"]


def test_same_seed_same_digest_different_seed_different_digest():
    def digest(seed):
        child = _bench("--workload", "tenant-bulk-flood", "--seed", seed,
                       *TINY)
        line = [ln for ln in child.stdout.splitlines()
                if ln.startswith("workload ")][0]
        return line.rsplit("digest=", 1)[1]

    assert digest("5") == digest("5")
    assert digest("5") != digest("6")


def test_refuses_to_run_without_the_simulator(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    child = _bench("--workload", "rpc-mix-lauberhorn", "--seed", "1",
                   "--seconds", "1", "--trace", "0", cwd=str(tmp_path))
    assert child.returncode != 0
    assert child.stdout.strip() == ""
