"""E24: the tenancy smoke run, artifact schema, and validation teeth."""

import copy
import json

import pytest

from repro.exp.jobs import EXPERIMENT_SPECS
from repro.exp.pool import jsonable
from repro.experiments.e24_tenancy import (
    CELLS,
    SECTIONS,
    TenancyCell,
    cell_labels,
    measure_tenancy_cell,
    render_tenancy,
    validate_tenancy_payload,
)


def _write_artifact(cells, path):
    return EXPERIMENT_SPECS["e24"].artifact.write(cells, complete=False,
                                                   path=path)


@pytest.fixture(scope="module")
def smoke(run_cells):
    """The CI-sized run: solo + the 2-tenant storm headline pair."""
    value, path = run_cells("e24", ["e24/single@solo",
                                    "e24/single@2t-storm-off",
                                    "e24/single@2t-storm-on"])
    return [TenancyCell(**cell) for cell in value], path


def test_smoke_cells_complete_cleanly(smoke):
    cells, _path = smoke
    assert [(c.section, c.label) for c in cells] == \
        [("single", "solo"), ("single", "2t-storm-off"),
         ("single", "2t-storm-on")]
    for cell in cells:
        assert cell.violations == 0
        assert cell.victim_completed == cell.n_victim > 0
        assert cell.check_samples > 0
    solo, off, on = cells
    # The headline in miniature: the unisolated victim's tail blows
    # past 2x solo; budgets + DWRR + policing pull it back under.
    assert off.victim_p999_ns > 2.0 * solo.victim_p999_ns
    assert on.victim_p999_ns <= 2.0 * solo.victim_p999_ns
    assert on.ledger["aggressor.rate_dropped"] > 0
    assert off.ledger["aggressor.rate_dropped"] == 0


def test_tenant_ledger_conserves_in_every_cell(smoke):
    cells, _path = smoke
    for cell in cells:
        for name in cell.tenants:
            arrivals = cell.ledger[f"{name}.arrivals"]
            admitted = cell.ledger[f"{name}.admitted"]
            policed = cell.ledger[f"{name}.rate_dropped"]
            assert arrivals == admitted + policed


def test_smoke_artifact_round_trips_and_validates(smoke, capsys):
    cells, path = smoke
    payload = _write_artifact(cells, str(path))
    validate_tenancy_payload(payload, complete=False)
    on_disk = json.loads(path.read_text())
    assert on_disk == payload
    assert on_disk["experiment"] == "e24"
    assert on_disk["sections"] == list(SECTIONS)
    render_tenancy(cells)
    out = capsys.readouterr().out
    assert "noisy neighbours" in out


def test_validation_rejects_a_violating_cell(smoke):
    cells, path = smoke
    broken = copy.deepcopy(_write_artifact(cells, str(path)))
    broken["cells"][0]["violations"] = 1
    with pytest.raises(ValueError, match="violation"):
        validate_tenancy_payload(broken, complete=False)


def test_validation_rejects_a_starved_victim(smoke):
    cells, path = smoke
    broken = copy.deepcopy(_write_artifact(cells, str(path)))
    broken["cells"][0]["victim_completed"] -= 1
    with pytest.raises(ValueError, match="victim completed"):
        validate_tenancy_payload(broken, complete=False)


def test_validation_rejects_an_unpoliced_isolated_aggressor(smoke):
    cells, path = smoke
    broken = copy.deepcopy(_write_artifact(cells, str(path)))
    for cell in broken["cells"]:
        if cell["isolated"] and cell["pattern"]:
            cell["ledger"]["aggressor.rate_dropped"] = 0
    with pytest.raises(ValueError, match="rate-policed"):
        validate_tenancy_payload(broken, complete=False)


def test_validation_requires_full_grid_and_headline_when_complete(smoke):
    cells, path = smoke
    payload = _write_artifact(cells, str(path))
    with pytest.raises(ValueError, match="missing cells"):
        validate_tenancy_payload(payload, complete=True)
    # Headline teeth: an isolated storm cell whose tail exceeds 2x solo
    # must fail even with the grid complete.
    fabricated = copy.deepcopy(payload)
    by_label = {c["label"]: c for c in fabricated["cells"]}
    for section in SECTIONS:
        for label in cell_labels(section):
            if (section, label) in {("single", c["label"])
                                    for c in fabricated["cells"]}:
                continue
            stub = copy.deepcopy(by_label["2t-storm-on"]
                                 if label.endswith("-on") or label == "solo"
                                 else by_label["2t-storm-off"])
            stub["section"], stub["label"] = section, label
            stub["pattern"] = "" if label == "solo" else \
                label.replace("t-", "-").split("-")[-2] \
                if section == "single" else "storm"
            fabricated["cells"].append(stub)
    bad = copy.deepcopy(fabricated)
    for cell in bad["cells"]:
        if cell["label"] == "2t-storm-on":
            cell["victim_p999_ns"] = 1e9
    with pytest.raises(ValueError, match="exceeds 2x solo"):
        validate_tenancy_payload(bad, complete=True)


def test_cell_measurement_is_deterministic():
    first = measure_tenancy_cell("single", "2t-rateviol-on")
    second = measure_tenancy_cell("single", "2t-rateviol-on")
    assert jsonable(first) == jsonable(second)


def test_labels_cover_every_section():
    assert SECTIONS == tuple(CELLS) == ("single", "fleet")
    for section in SECTIONS:
        labels = cell_labels(section)
        assert labels and labels[0] == "solo"
        assert labels == tuple(CELLS[section])
    with pytest.raises(KeyError):
        cell_labels("nope")

