"""Shared fixture: run cells through ``run_all``'s job-id selection."""

import pytest

from repro.exp.jobs import EXPERIMENT_SPECS, run_experiments


@pytest.fixture(scope="module")
def run_cells(tmp_path_factory):
    """``run_cells(name, job_ids)`` -> (value, artifact path).

    Runs the jobs exactly as ``run_all <job id>...`` would (render,
    artifact write, partial validation) in a scratch working directory.
    """

    def run(name, job_ids):
        root = tmp_path_factory.mktemp(name)
        with pytest.MonkeyPatch.context() as patch:
            patch.chdir(root)
            outcome = run_experiments(job_ids, jobs=1, cache=None)
        assert not outcome.failed
        return (outcome.values[name],
                root / EXPERIMENT_SPECS[name].artifact.path)

    return run
