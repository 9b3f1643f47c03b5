"""End-to-end runner behavior: CLI flags, parity, cache reuse."""

import dataclasses
import json

import pytest

from repro.exp.cache import ResultCache
from repro.exp.jobs import EXPERIMENT_SPECS, run_experiments
from repro.experiments.run_all import main

FAST = ["e7", "e18"]  # sub-second experiments: one monolithic, one sweep


def _tables(text: str) -> str:
    """Output minus the (run-dependent) per-experiment timing lines."""
    return "\n".join(
        line for line in text.splitlines() if "completed in" not in line
    )


def test_registry_covers_all_experiments():
    assert list(EXPERIMENT_SPECS) == [f"e{i}" for i in range(1, 26)]
    for name, spec in EXPERIMENT_SPECS.items():
        jobs = spec.build_jobs(0)
        assert jobs, name
        assert len({job.job_id for job in jobs}) == len(jobs)
        assert all(job.experiment == name for job in jobs)


def test_grid_experiment_job_ids_are_stable():
    """CI, docs and ``run_all`` name these job ids; they must not move."""
    assert EXPERIMENT_SPECS["e23"].job_ids == [
        f"e23/{cell}" for cell in (
            "scaling@r1", "scaling@r2", "scaling@r4",
            "skew@a0.0", "skew@a0.9", "skew@a1.5",
            "placement@none", "placement@one", "placement@same_rack",
            "placement@split", "placement@all", "placement@mixed")]
    assert EXPERIMENT_SPECS["e24"].job_ids == (
        ["e24/single@solo"]
        + [f"e24/single@{nt}t-{pattern}-{iso}"
           for nt in (2, 4)
           for pattern in ("storm", "dmaflood", "rateviol")
           for iso in ("off", "on")]
        + ["e24/fleet@solo", "e24/fleet@storm-off", "e24/fleet@storm-on"])
    assert EXPERIMENT_SPECS["e25"].job_ids == (
        [f"e25/single@{nt}t-{tight}-{noise}"
         for nt in (2, 4)
         for tight in ("tight", "loose")
         for noise in ("calm", "storm")]
        + ["e25/single@2t-tight-storm-guard",
           "e25/fleet@fleet-tight-calm", "e25/fleet@fleet-tight-storm"])
    counts = [len(EXPERIMENT_SPECS[name].job_ids)
              for name in ("e23", "e24", "e25")]
    assert counts == [12, 16, 11]
    for job_id in ("e24/fleet@storm-on", "e25/single@2t-tight-storm-guard",
                   "e25/fleet@fleet-tight-storm", "e25/single@2t-tight-calm"):
        assert job_id in EXPERIMENT_SPECS[job_id.partition("/")[0]].job_ids


def test_subset_selection_and_order(capsys):
    assert main(["e18", "e7", "--no-cache"]) == 0
    out = capsys.readouterr().out
    assert out.index("E18:") < out.index("E7:")
    assert "E1:" not in out


def test_unknown_experiment_exit_code():
    assert main(["e7", "e99", "--no-cache"]) == 2


def test_unknown_job_id_exit_code(capsys):
    assert main(["e21/nope", "--no-cache"]) == 2
    out = capsys.readouterr().out
    assert "e21/nope" in out
    assert "e21/linux" in out  # the experiment's real job ids are listed


def test_job_id_selection_runs_only_that_job(capsys):
    outcome = run_experiments(["e11/snap"], jobs=1, cache=None)
    assert [r.job_id for r in outcome.job_results] == ["e11/snap"]
    assert [v["stack"] for v in outcome.values["e11"]] == ["snap"]
    assert "E11:" in capsys.readouterr().out


def test_partial_selection_validates_as_partial(tmp_path, monkeypatch,
                                                capsys):
    calls = []
    spec = EXPERIMENT_SPECS["e21"]
    validate = spec.artifact.validate

    def spy(payload, complete=True):
        calls.append(complete)
        validate(payload, complete=complete)

    monkeypatch.setitem(EXPERIMENT_SPECS, "e21", dataclasses.replace(
        spec, artifact=dataclasses.replace(spec.artifact, validate=spy)))
    monkeypatch.chdir(tmp_path)
    assert main(["e21/linux", "--no-cache"]) == 0
    assert calls == [False]
    payload = json.loads((tmp_path / spec.artifact.path).read_text())
    assert list(payload["stacks"]) == ["linux"]
    # The same payload fails the whole-grid check.
    with pytest.raises(ValueError, match="missing stacks"):
        validate(payload)


def test_flag_value_errors():
    assert main(["--jobs"]) == 2
    assert main(["--jobs", "two"]) == 2
    assert main(["--json"]) == 2


def test_json_includes_timings(tmp_path, capsys):
    path = tmp_path / "out.json"
    assert main(["e7", "--no-cache", "--json", str(path)]) == 0
    data = json.loads(path.read_text())
    assert data["e7"][0]["ok"] is True
    assert set(data["_timings_s"]) == {"e7"}
    assert data["_timings_s"]["e7"] >= 0.0


def test_parallel_results_and_tables_match_serial(capsys):
    serial = run_experiments(FAST, jobs=1, cache=None)
    serial_out = capsys.readouterr().out
    parallel = run_experiments(FAST, jobs=2, cache=None)
    parallel_out = capsys.readouterr().out
    assert serial.values == parallel.values
    assert _tables(serial_out) == _tables(parallel_out)
    assert not serial.failed and not parallel.failed


def test_cache_reuse_and_identical_replay(tmp_path, capsys):
    cache = ResultCache(root=tmp_path)
    cold = run_experiments(FAST, jobs=1, cache=cache)
    cold_out = capsys.readouterr().out
    assert cache.hits == 0 and cache.misses > 0

    warm_cache = ResultCache(root=tmp_path)
    warm = run_experiments(FAST, jobs=1, cache=warm_cache)
    warm_out = capsys.readouterr().out
    assert warm_cache.misses == 0
    assert warm_cache.hits == cache.misses
    assert warm.values == cold.values
    assert _tables(warm_out) == _tables(cold_out)
    assert all(r.cached for r in warm.job_results)


def test_timings_flag_prints_job_table(capsys):
    assert main(["e7", "--no-cache", "--timings"]) == 0
    out = capsys.readouterr().out
    assert "Per-job timings" in out
    assert "e7/main" in out


def test_failure_is_isolated_and_reported(capsys, monkeypatch):
    from repro.exp import jobs as jobs_mod

    spec = EXPERIMENT_SPECS["e7"]
    monkeypatch.setitem(
        jobs_mod.EXPERIMENT_SPECS, "e7",
        jobs_mod.ExperimentSpec(
            name="e7", title=spec.title,
            cells=(("e7/main", "repro.exp.pool:resolve",
                    {"fn_path": "bad"}),)),
    )
    outcome = run_experiments(["e7", "e18"], jobs=1, cache=None)
    out = capsys.readouterr().out
    assert outcome.failed
    assert "JOB FAILED: e7/main" in out
    assert "error" in outcome.values["e7"]
    assert "e18" in outcome.values and "error" not in outcome.values["e18"]
