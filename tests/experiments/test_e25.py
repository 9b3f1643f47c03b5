"""E25: the calm cell through the job-id selection path, and the
validator's teeth."""

import copy
import json

import pytest

from repro.experiments.e25_slo import validate_slo_payload


@pytest.fixture(scope="module")
def calm(run_cells):
    """``run_all e25/single@2t-tight-calm``: the tier-1-sized E25 cell
    (the storm cells take tens of seconds and run in CI only)."""
    _value, path = run_cells("e25", ["e25/single@2t-tight-calm"])
    return json.loads(path.read_text())


def test_calm_cell_artifact_validates_as_partial(calm):
    validate_slo_payload(calm, complete=False)
    [cell] = calm["cells"]
    assert (cell["section"], cell["label"]) == ("single", "2t-tight-calm")
    assert cell["identical"] is True
    assert cell["slo"]["n_alerts"] == 0
    assert cell["victim_completed"] == cell["n_victim"] > 0
    assert cell["flame"], "no flame groups folded"
    with pytest.raises(ValueError, match="missing cells"):
        validate_slo_payload(calm, complete=True)


def test_validation_rejects_an_alerting_calm_cell(calm):
    broken = copy.deepcopy(calm)
    broken["cells"][0]["slo"]["n_alerts"] = 1
    with pytest.raises(ValueError, match="calm cell raised 1 alert"):
        validate_slo_payload(broken, complete=False)


def test_validation_rejects_an_inexact_flame_group(calm):
    broken = copy.deepcopy(calm)
    group = next(iter(broken["cells"][0]["flame"].values()))
    group["self_sum_ns"] += 1.0
    with pytest.raises(ValueError, match="folded"):
        validate_slo_payload(broken, complete=False)
