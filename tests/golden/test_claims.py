"""The paper's shape claims, checked against the golden corpus.

One case per claim in :data:`repro.exp.claims.CLAIMS`, evaluated on the
committed ``tests/golden/<name>.json``; ``test_golden`` proves a fresh
run reproduces those files, so nothing is simulated here.
"""

import copy
import importlib.util
import json
import pathlib
from functools import cache

import pytest

from repro.exp.claims import CLAIMS, check_claims
from repro.exp.jobs import RunOutcome

GOLDEN_DIR = pathlib.Path(__file__).parent


@cache
def _golden(name):
    return json.loads((GOLDEN_DIR / f"{name}.json").read_text())


@pytest.mark.parametrize("claim", CLAIMS, ids=lambda claim: claim.id)
def test_claim(claim):
    assert claim.holds(_golden(claim.experiment)), claim.section


def _e11_with_swapped_p50():
    """Golden E11 with Lauberhorn's and bypass's median RTTs swapped."""
    rows = {row["stack"]: row for row in copy.deepcopy(_golden("e11"))}
    rows["lauberhorn"]["p50_rtt_ns"], rows["bypass"]["p50_rtt_ns"] = (
        rows["bypass"]["p50_rtt_ns"], rows["lauberhorn"]["p50_rtt_ns"])
    return list(rows.values())


def test_check_claims_reports_broken_claim_ids():
    broken = check_claims({"e11": _e11_with_swapped_p50()})
    assert "e11.p50-lauberhorn-under-bypass" in broken
    assert all(claim_id.startswith("e11.") for claim_id in broken)


def test_regen_refuses_corpus_that_breaks_a_claim(monkeypatch, tmp_path,
                                                  capsys):
    spec = importlib.util.spec_from_file_location(
        "regen_golden", GOLDEN_DIR.parent.parent / "tools" / "regen_golden.py")
    regen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(regen)
    # Regenerate into a copy of the corpus, so that a regression cannot
    # overwrite the committed file.
    pinned = (GOLDEN_DIR / "e11.json").read_bytes()
    (tmp_path / "e11.json").write_bytes(pinned)
    monkeypatch.setattr(regen, "GOLDEN_DIR", tmp_path)
    monkeypatch.setattr(regen, "run_experiments", lambda *a, **k: RunOutcome(
        values={"e11": _e11_with_swapped_p50()}))

    assert regen.regenerate(["e11"]) == 1
    assert (tmp_path / "e11.json").read_bytes() == pinned
    assert ("claim broken: e11.p50-lauberhorn-under-bypass"
            in capsys.readouterr().err)
