"""The job registry: every experiment as independently schedulable jobs.

Each experiment is one :class:`ExperimentSpec` declaring its cells as
``(job id, function, params)``.  Monolithic experiments (a ``run_*``
body that prints its own tables) have one cell per printed section;
cell experiments have one per sweep *point* — each (stack, rate) of
the load sweep, each (size, delivery mode) of the DMA crossover, each
stack of the design space — so a multi-core host can fan the whole
artifact out, and the cache can invalidate single points.  A cell
experiment also names its result dataclass, its renderer and,
optionally, the JSON :class:`Artifact` it writes; one generic
assembler and writer serve them all.

Every job is a pure function of its params + seed (fresh testbed per
point), so execution order and worker placement never change results.
``run_experiments`` reassembles point values into the paper-shaped
tables, so ``--jobs N`` output is byte-identical to a serial run.  Its
selection takes whole experiments (``e25``) or single jobs
(``e25/single@2t-tight-calm``); an artifact is validated as complete
only when every job of its experiment ran.
"""

from __future__ import annotations

import inspect
import json
import os
import sys
import time
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from io import StringIO
from typing import Any, Callable, Optional, Union

from ..experiments import crossover as _crossover
from ..experiments import dynamic_mix as _dynamic_mix
from ..experiments import e21_timeline as _timeline
from ..experiments import e22_control as _control
from ..experiments import e23_fleet as _fleet
from ..experiments import e24_tenancy as _tenancy
from ..experiments import e25_slo as _slo
from ..experiments import fault_sweep as _fault_sweep
from ..experiments import four_stacks as _four_stacks
from ..experiments import load_sweep as _load_sweep
from ..experiments import obs_attribution as _obs
from ..experiments import sensitivity as _sensitivity
from ..experiments import serverless as _serverless
from ..sim.rng import derive_seed
from .pool import JobResult, JobSpec, execute_job, jsonable, resolve, run_jobs

__all__ = ["Artifact", "ExperimentSpec", "EXPERIMENT_SPECS", "RunOutcome",
           "run_experiments"]

_EXP = "repro.experiments"

#: one job: (job id, callable or ``"module:callable"``, keyword params)
Cell = tuple[str, Union[Callable, str], dict]

# Sweep axes mirror the experiments' own defaults exactly.
_MIX_COUNTS = (2, 8, 32)
_MIX_STACKS = ("linux", "bypass", "lauberhorn")
_CROSSOVER_SIZES = _crossover.DEFAULT_SIZES
_SWEEP_STACKS = ("linux", "bypass", "lauberhorn")
_SWEEP_RATES = (50e3, 150e3, 300e3, 600e3)
_SERVERLESS_STACKS = ("linux", "lauberhorn")
_SENSITIVITY_SWEEP = (125, 250, 350, 500, 700, 1000, 1400)


@dataclass(frozen=True)
class Artifact:
    """A JSON file a cell experiment writes from its assembled results."""

    path: str
    #: assembled results -> the JSON payload
    payload: Callable[[Any], dict]
    #: ``validate(payload, complete=...)``, raising ValueError
    validate: Optional[Callable[..., None]] = None

    def write(self, results: Any, complete: bool = True,
              path: Optional[str] = None) -> dict:
        """Write, validate, and announce the artifact; returns the payload.

        ``complete=False`` (a partial job selection) skips the
        validator's whole-grid checks.
        """
        path = path or self.path
        payload = self.payload(results)
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        with open(path, "w") as handle:
            json.dump(payload, handle, indent=1)
        if self.validate is not None:
            self.validate(payload, complete=complete)
        print(f"\n[wrote {path}]")
        return payload


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment: its cells plus how to assemble and render them."""

    name: str
    title: str
    cells: tuple[Cell, ...]
    #: the dataclass each cell's value rebuilds into
    result: Optional[type] = None
    #: prints the tables from the assembled results; None marks a
    #: monolithic experiment, whose jobs print their own sections
    render: Optional[Callable[[Any], None]] = None
    artifact: Optional[Artifact] = None
    #: ``{job id: value}`` -> results, for tables that combine cells
    #: (default: one ``result`` per cell, in job order)
    assemble: Optional[Callable[[dict], Any]] = None

    @property
    def job_ids(self) -> list[str]:
        return [job_id for job_id, _fn, _params in self.cells]

    def build_jobs(self, root_seed: int) -> list[JobSpec]:
        """One job per cell; cells whose function takes ``seed`` get one.

        Root seed 0 (the default) reproduces the functions' built-in
        seed 0 bit-for-bit; any other root derives an independent
        per-job seed, stable across workers and execution order.
        """
        jobs = []
        for job_id, fn, params in self.cells:
            path = (fn if isinstance(fn, str)
                    else f"{fn.__module__}:{fn.__name__}")
            seed = None
            if "seed" in inspect.signature(resolve(path)).parameters:
                seed = (0 if root_seed == 0 else
                        derive_seed(root_seed, self.name,
                                    job_id.partition("/")[2]))
                params = {**params, "seed": seed}
            jobs.append(JobSpec(
                job_id=job_id, experiment=self.name, fn=path,
                params=tuple(sorted(params.items())), seed=seed,
                capture=self.render is None,
            ))
        return jobs


def _mono(name: str, title: str, parts: list[tuple[str, str]]) -> ExperimentSpec:
    """A monolithic experiment: one stdout-printing job per section."""
    return ExperimentSpec(name, title, tuple(
        (f"{name}/{part}", f"{_EXP}.{fn}", {}) for part, fn in parts))


def _assemble_crossover(values: dict) -> Any:
    return _crossover.assemble_crossover(
        _CROSSOVER_SIZES,
        [values[f"e5/line@{size}"] for size in _CROSSOVER_SIZES],
        [values[f"e5/dma@{size}"] for size in _CROSSOVER_SIZES],
    )


def _assemble_sensitivity(values: dict) -> Any:
    return _sensitivity.assemble_sensitivity(
        _SENSITIVITY_SWEEP,
        [values[f"e18/lauberhorn@{one_way}"]
         for one_way in _SENSITIVITY_SWEEP],
        values["e18/bypass"],
    )


def _assemble_control(values: dict) -> Any:
    cells = dict(values)
    adaptive = cells.pop("e22/adaptive", None)
    return {"cells": [_control.ControlCell(**v) for v in cells.values()],
            "adaptive": adaptive}


EXPERIMENT_SPECS: dict[str, ExperimentSpec] = {
    spec.name: spec for spec in [
        _mono("e1", "Figure 2 — 64 B round-trip latencies",
              [("main", "fig2_roundtrip:run_fig2")]),
        _mono("e2", "Section 2 — receive-path steps",
              [("main", "fig1_steps:run_fig1_steps")]),
        _mono("e3", "Figure 5 — dispatch comparison",
              [("main", "fig5_dispatch:run_fig5_dispatch")]),
        ExperimentSpec(
            "e4", "Dynamic workload mix",
            tuple((f"e4/{stack}@{count}", _dynamic_mix.measure_mix_point,
                   {"stack": stack, "n_services": count})
                  for count in _MIX_COUNTS for stack in _MIX_STACKS),
            result=_dynamic_mix.MixResult,
            render=_dynamic_mix.render_dynamic_mix),
        ExperimentSpec(
            "e5", "Section 6 — DMA crossover",
            tuple((f"e5/{mode}@{size}", _crossover.measure_rtt_for_size,
                   {"payload_bytes": size, "force_dma": force_dma})
                  for size in _CROSSOVER_SIZES
                  for mode, force_dma in (("line", False), ("dma", True))),
            assemble=_assemble_crossover,
            render=lambda results: _crossover.render_crossover(*results)),
        _mono("e6", "Section 5.1 — Tryagain & energy",
              [("energy", "tryagain:run_tryagain_energy"),
               ("timeout", "tryagain:run_timeout_ablation")]),
        _mono("e7", "Section 6 — model checking",
              [("main", "model_check:run_model_check")]),
        _mono("e8", "Section 5.2 — sched-state push",
              [("main", "sched_state:run_sched_state")]),
        _mono("e9", "Section 6 — nested RPCs",
              [("main", "nested_rpc:run_nested_rpc")]),
        _mono("e10", "Figure 4 — protocol cost",
              [("main", "protocol_cost:run_protocol_cost")]),
        ExperimentSpec(
            "e11", "Section 2 design space — four stacks",
            tuple((f"e11/{stack}", _four_stacks.measure_stack,
                   {"stack": stack}) for stack in _four_stacks.STACKS),
            result=_four_stacks.StackResult,
            render=_four_stacks.render_four_stacks),
        _mono("e12", "Ablations — deserialisation offload & crypto placement",
              [("deserialize", "ablation:run_deserialize_ablation"),
               ("crypto", "ablation:run_crypto_ablation")]),
        _mono("e13", "Section 6 — NIC telemetry breakdown",
              [("main", "telemetry_breakdown:run_telemetry_breakdown")]),
        _mono("e14", "Peak throughput & end-point scaling",
              [("throughput", "throughput:run_throughput"),
               ("scaling", "throughput:run_lauberhorn_scaling")]),
        ExperimentSpec(
            "e15", "Latency vs offered load",
            tuple((f"e15/{stack}@{rate:.0f}", _load_sweep.measure_load_point,
                   {"stack": stack, "rate_per_sec": rate})
                  for stack in _SWEEP_STACKS for rate in _SWEEP_RATES),
            result=_load_sweep.LoadPoint,
            render=_load_sweep.render_load_sweep),
        _mono("e16", "Section 3 — the IOMMU tax",
              [("main", "iommu_tax:run_iommu_tax")]),
        ExperimentSpec(
            "e17", "Serverless consolidation trace",
            tuple((f"e17/{stack}", _serverless.measure_serverless_stack,
                   {"stack": stack}) for stack in _SERVERLESS_STACKS),
            result=_serverless.ServerlessResult,
            render=_serverless.render_serverless),
        ExperimentSpec(
            "e18", "Sensitivity — coherent-link latency",
            (("e18/bypass", _sensitivity.bypass_baseline_rtt, {}),)
            + tuple((f"e18/lauberhorn@{one_way}",
                     _sensitivity.lauberhorn_rtt_at,
                     {"one_way_ns": float(one_way)})
                    for one_way in _SENSITIVITY_SWEEP),
            assemble=_assemble_sensitivity,
            render=lambda results: _sensitivity.render_sensitivity(*results)),
        ExperimentSpec(
            "e19", "Fault sweep — invariants under injected faults",
            tuple((f"e19/{stack}@{label}", _fault_sweep.measure_fault_point,
                   {"stack": stack, "label": label, "loss_rate": loss,
                    "stall_rate": stall})
                  for stack in _four_stacks.STACKS
                  for (label, loss, stall) in _fault_sweep.FAULT_POINTS),
            result=_fault_sweep.FaultPoint,
            render=_fault_sweep.render_fault_sweep),
        ExperimentSpec(
            "e20", "Observability — span attribution & overhead",
            tuple((f"e20/{stack}", _obs.measure_obs_stack, {"stack": stack})
                  for stack in _four_stacks.STACKS),
            result=_obs.ObsResult,
            render=_obs.render_obs_attribution,
            artifact=Artifact(_obs.TRACE_ARTIFACT, _obs.trace_payload)),
        ExperimentSpec(
            "e21", "Time-series telemetry, flight recorder & "
                   "tail forensics",
            tuple((f"e21/{stack}", _timeline.measure_timeline_stack,
                   {"stack": stack}) for stack in _four_stacks.STACKS),
            result=_timeline.TimelineResult,
            render=_timeline.render_timeline,
            artifact=Artifact(_timeline.TIMELINE_ARTIFACT,
                              _timeline.timeline_payload,
                              _timeline.validate_timeline_payload)),
        ExperimentSpec(
            "e22", "Adaptive control plane — policy tournaments & "
                   "epoch migration",
            tuple((f"e22/{stack}@{plan}@{policy}",
                   _control.measure_control_cell,
                   {"stack": stack, "plan_label": plan, "policy": policy})
                  for stack in _four_stacks.STACKS
                  for plan in _control.FAULT_PLANS
                  for policy in _control.POLICY_SPECS)
            + (("e22/adaptive", _control.measure_adaptive_mix, {}),),
            assemble=_assemble_control,
            render=lambda results: _control.render_control(
                results["cells"], results["adaptive"]),
            artifact=Artifact(_control.CONTROL_ARTIFACT,
                              _control.control_payload,
                              _control.validate_control_payload)),
        *(ExperimentSpec(
            name, title,
            tuple((f"{name}/{section}@{label}", measure,
                   {"section": section, "label": label})
                  for section in module.SECTIONS
                  for label in module.cell_labels(section)),
            result=result, render=render, artifact=artifact)
          for name, title, module, measure, result, render, artifact in (
              ("e23", "Rack-scale fleets — replica scaling, skew & "
                      "coherent-NIC placement",
               _fleet, _fleet.measure_fleet_cell, _fleet.FleetCell,
               _fleet.render_fleet,
               Artifact(_fleet.FLEET_ARTIFACT, _fleet.fleet_payload,
                        _fleet.validate_fleet_payload)),
              ("e24", "Multi-tenant isolation — budgets, weighted-fair "
                      "demux & noisy neighbours",
               _tenancy, _tenancy.measure_tenancy_cell, _tenancy.TenancyCell,
               _tenancy.render_tenancy,
               Artifact(_tenancy.TENANCY_ARTIFACT, _tenancy.tenancy_payload,
                        _tenancy.validate_tenancy_payload)),
              ("e25", "Tenant SLOs — burn-rate alerts, budget ledgers & "
                      "flame attribution",
               _slo, _slo.measure_slo_cell, _slo.SloCell, _slo.render_slo,
               Artifact(_slo.SLO_ARTIFACT, _slo.slo_payload,
                        _slo.validate_slo_payload)),
          )),
    ]
}


@dataclass
class RunOutcome:
    """Everything a ``run_all`` invocation produced."""

    values: dict[str, Any] = field(default_factory=dict)
    timings_s: dict[str, float] = field(default_factory=dict)
    job_results: list[JobResult] = field(default_factory=list)
    failed: bool = False


def _header(name: str, title: str) -> str:
    bar = "=" * 72
    return f"\n{bar}\n{name.upper()}: {title}\n{bar}"


def _finish(spec: ExperimentSpec, results: list[JobResult],
            complete: bool):
    """(final value, table text still to print) for one experiment."""
    bad = [r for r in results if not r.ok]
    if bad:
        text = "".join(
            f"\nJOB FAILED: {r.job_id}\n{r.error}" for r in bad
        )
        value = {"error": [
            {"job_id": r.job_id, "error": r.error} for r in bad
        ]}
        return value, text
    if spec.render is None:
        values = [r.value for r in results]
        return (values[0] if len(values) == 1 else values), ""
    values = {r.job_id: r.value for r in results}
    sink = StringIO()
    with redirect_stdout(sink):
        assembled = (spec.assemble(values) if spec.assemble is not None
                     else [spec.result(**v) for v in values.values()])
        spec.render(assembled)
        if spec.artifact is not None:
            spec.artifact.write(assembled, complete)
    return jsonable(assembled), sink.getvalue()


def _plan(selected: list[str], root_seed: int
          ) -> dict[str, tuple[list[JobSpec], bool]]:
    """Experiment -> (its selected jobs in declared order, all selected?).

    ``selected`` mixes experiment names and job ids; experiments keep
    the order in which they are first named.
    """
    picked: dict[str, set[str]] = {}
    for item in selected:
        picked.setdefault(item.partition("/")[0], set()).add(item)
    plan = {}
    for name, items in picked.items():
        every = EXPERIMENT_SPECS[name].build_jobs(root_seed)
        chosen = [job for job in every
                  if name in items or job.job_id in items]
        plan[name] = (chosen, len(chosen) == len(every))
    return plan


def run_experiments(
    selected: list[str],
    jobs: int = 1,
    cache=None,
    root_seed: int = 0,
) -> RunOutcome:
    """Run a selection of experiments and print the paper artifact.

    ``selected`` holds experiment names (``"e25"``) and/or job ids
    (``"e25/single@2t-tight-calm"``).  ``jobs <= 1`` streams each
    experiment in order (monolithic bodies print live); ``jobs > 1``
    fans every selected job over the pool at once, then prints the
    experiment blocks in order from captured output.
    """
    outcome = RunOutcome()
    plan = _plan(selected, root_seed)

    if jobs <= 1:
        for name, (job_list, complete) in plan.items():
            spec = EXPERIMENT_SPECS[name]
            print(_header(name, spec.title))
            started = time.perf_counter()
            results = []
            for job in job_list:
                hit = cache.lookup(job) if cache is not None else None
                if hit is not None:
                    if hit.stdout:
                        sys.stdout.write(hit.stdout)
                    results.append(hit)
                    continue
                result = execute_job(job, tee=True)
                if cache is not None and result.ok:
                    cache.store(job, result)
                results.append(result)
            value, tail = _finish(spec, results, complete)
            if tail:
                sys.stdout.write(tail)
            wall = time.perf_counter() - started
            _record(outcome, name, value, wall, results)
    else:
        flat = [job for job_list, _ in plan.values() for job in job_list]
        by_id = run_jobs(flat, jobs=jobs, cache=cache)
        for name, (job_list, complete) in plan.items():
            spec = EXPERIMENT_SPECS[name]
            print(_header(name, spec.title))
            results = [by_id[job.job_id] for job in job_list]
            for result in results:
                if result.stdout:
                    sys.stdout.write(result.stdout)
            value, tail = _finish(spec, results, complete)
            if tail:
                sys.stdout.write(tail)
            wall = sum(r.wall_s for r in results)
            _record(outcome, name, value, wall, results)
    return outcome


def _record(outcome: RunOutcome, name: str, value: Any, wall: float,
            results: list[JobResult]) -> None:
    outcome.values[name] = value
    outcome.timings_s[name] = wall
    outcome.job_results.extend(results)
    if any(not r.ok for r in results):
        outcome.failed = True
    print(f"\n[{name} completed in {wall:.1f} s wall clock]")
