"""E25 — tenant-scoped SLOs: burn-rate alerts, budgets, and flame diffs.

E24 established *that* a noisy neighbour wrecks a victim tenant's tail
and that the tenancy machinery can contain it.  E25 asks the operator
question on top: does the observability layer *notice in time*?  Each
cell runs the E24 noisy-neighbour scenario (calm victim, storm
aggressor, optional bystanders — one
:func:`~repro.experiments.e24_tenancy.run_scenario` serves both
experiments) with an :class:`~repro.obs.slo.SLOTracker` armed:
the victim carries a latency objective (tight or loose), the tracker's
error-budget ledger runs in simulated ns, and multi-window burn-rate
alerts must fire *before* the budget actually exhausts — never in calm
cells, always ahead of exhaustion in violated storm cells.  The storm
starts only after a long calm prefix, exactly the regime burn-rate
alerting is for: the fast window saturates with bad completions while
the cumulative ledger still holds pre-storm credit.

Each armed run also folds its span trees into per-(host, tenant)
flamegraphs (:mod:`repro.obs.flame`) — exact simulated-ns self-time
attribution, validated against the root durations identically — and
reports the victim-vs-aggressor per-request stack diff.  A ``guard``
cell closes the loop: the ``slo_guard`` policy reads the tracker's
``burn_fast`` probe rows out of sampler windows and tightens the
aggressor's admission, E22-style.

Grids: tenant-count x objective-tightness x interference on a single
Lauberhorn host, plus tight-objective calm/storm cells on the 2-ToR
fleet (storm pounding host 0 only — the cross-host tail attribution
case: host0's victim replica pages, host1's stays green).

Every identity-eligible cell is run twice, unarmed then armed, and the
victim RTT streams must match exactly — the one-``is None`` arming
convention, extended to SLO/flame.  Artifact:
``results/e25_slo.json`` (schema-checked by
:func:`validate_slo_payload`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

from ..ctrl import Actuators, AdmissionGate, Controller, PolicySpec
from ..metrics.histogram import nearest_rank
from ..obs import (
    FlightRecorder,
    SLOSpec,
    SLOTracker,
    TimeSeriesSampler,
    arm_flight,
    arm_testbed,
    bind_testbed_metrics,
    fold_spans,
    speedscope_json,
    tail_report,
    validate_speedscope,
)
from ..sim.clock import MS
from .e24_tenancy import (
    FLEET_HORIZON_NS,
    HORIZON_NS,
    Scenario,
    run_scenario,
    scenario_checks,
)
from .report import fmt_ns, print_table

__all__ = ["SloCell", "SLO_ARTIFACT", "CELLS", "cell_labels",
           "measure_slo_cell", "render_slo", "slo_payload",
           "validate_slo_payload"]

#: default location of the JSON artifact (relative to the runner's cwd)
SLO_ARTIFACT = "results/e25_slo.json"

#: long calm prefix before the storm.  Alert-before-exhaustion needs
#: the good history inside the slow window to be well under half the
#: *cumulative* good history (windowed burn crosses threshold on
#: ~2f*W goods-in-window bads; cumulative exhaustion on ~f*G total
#: goods), so the prefix is 10 ms of calm traffic against 2 ms / 0.5
#: ms alert windows.
VICTIM_REQUESTS = 600
STORM_DELAY_NS = 10 * MS

#: requests per bystander in the 4-tenant cells (at E24's sparse
#: ``BYSTANDER_RATE``)
BYSTANDER_REQUESTS = 60

#: objective tightness: "tight" sits above any calm-cell tail but far
#: below storm queueing; "loose" is deliberately unviolatable
TIGHT_THRESHOLD_NS = 20_000.0
LOOSE_THRESHOLD_NS = 5_000_000.0

#: the victim objective: 95% of requests under threshold (5% budget),
#: multi-window burn alerting at 2x sustainable spend
LATENCY_TARGET = 0.95
FAST_WINDOW_NS = 500_000.0
SLOW_WINDOW_NS = 2 * MS
BURN_THRESHOLD = 2.0
MIN_REQUESTS = 8

#: sampler windows double as SLO evaluation instants
WINDOW_NS = 100_000.0
MAX_WINDOWS = 700
FLIGHT_CAPACITY = 512
TAIL_QUANTILE = 0.99

#: slo_guard controller configuration for the guard cell
GUARD_SPEC = "slo_guard,epoch=2,burn=2,hold_step=20000,hold_max=200000"

#: section -> label -> (scenario, objective tightness, slo_guard on).
#: Tenancy is accounting-only (no budgets or limits): E25 measures the
#: *detection* of interference, so the interference must be raw.
CELLS = {
    "single": {
        **{f"{nt}t-{tight}-{noise}": (
            Scenario(nt, "storm" if noise == "storm" else ""), tight, False)
           for nt in (2, 4)
           for tight in ("tight", "loose")
           for noise in ("calm", "storm")},
        "2t-tight-storm-guard": (Scenario(2, "storm"), "tight", True),
    },
    "fleet": {
        # host 0 carries the idle aggressor service, as in E24's fleet
        # solo cell; with no traffic it leaves every value unchanged
        "fleet-tight-calm": (Scenario(2, idle_aggressor=True), "tight",
                             False),
        "fleet-tight-storm": (Scenario(2, "storm"), "tight", False),
    },
}
SECTIONS = tuple(CELLS)


def cell_labels(section: str) -> tuple[str, ...]:
    return tuple(CELLS[section])


@dataclass(frozen=True)
class SloCell:
    """One measured SLO configuration (JSON-able)."""

    section: str
    label: str
    n_tenants: int
    tightness: str
    interference: str
    guarded: bool
    #: armed victim RTTs byte-identical to the unarmed run (None for
    #: the guard cell, whose controller actuates by design)
    identical: bool | None
    n_victim: int
    victim_completed: int
    victim_p50_ns: float
    victim_p99_ns: float
    victim_p999_ns: float
    #: trimmed ``SLOTracker.report()`` (per-spec ledgers + alerts)
    slo: dict = field(default_factory=dict)
    #: per-(host, tenant) flame summary with exactness proof material
    flame: dict = field(default_factory=dict)
    #: victim-vs-aggressor per-request mean self-time diff (ns)
    flame_diff: dict = field(default_factory=dict)
    #: speedscope export passed schema validation
    speedscope_ok: bool = False
    #: (host, tenant) attribution of the slow-root population
    tail_groups: dict = field(default_factory=dict)
    #: admission holds the slo_guard applied (guard cell only)
    guard_actuations: int = 0
    violations: int = 0
    check_samples: int = 0


def _victim_spec(tightness: str) -> SLOSpec:
    threshold = (TIGHT_THRESHOLD_NS if tightness == "tight"
                 else LOOSE_THRESHOLD_NS)
    return SLOSpec(
        name="victim", tenant="victim",
        latency_threshold_ns=threshold,
        latency_target=LATENCY_TARGET,
        fast_window_ns=FAST_WINDOW_NS,
        slow_window_ns=SLOW_WINDOW_NS,
        burn_threshold=BURN_THRESHOLD,
        min_requests=MIN_REQUESTS,
    )


def _aggressor_spec() -> SLOSpec:
    """Availability-flavoured objective for the aggressor itself:
    storm requests that never finish inside 5 ms count as timeouts."""
    return SLOSpec(
        name="aggr", tenant="aggressor",
        latency_threshold_ns=1 * MS,
        latency_target=0.5,
        availability_target=0.9,
        timeout_ns=5 * MS,
        fast_window_ns=FAST_WINDOW_NS,
        slow_window_ns=SLOW_WINDOW_NS,
        burn_threshold=BURN_THRESHOLD,
        min_requests=MIN_REQUESTS,
    )


def _trim_slo_report(report: dict) -> dict:
    report = dict(report)
    report["alerts"] = report["alerts"][:32]
    return report


def _flame_summary(profile) -> dict:
    summary = {}
    for group in profile.groups():
        summary[group] = {
            "n_traces": profile.n_traces(group),
            "self_sum_ns": profile.self_sum_ns(group),
            "root_sum_ns": profile.root_sum_ns(group),
            "exact": profile.self_sum_ns(group) == profile.root_sum_ns(group),
            "stacks": {";".join(stack): weight
                       for stack, weight in sorted(
                           profile.stacks(group).items())},
        }
    return summary


def _per_request_diff(profile, group_a: str, group_b: str) -> dict:
    """Victim-vs-aggressor diff of *mean per-request* self time."""
    groups = set(profile.groups())
    if group_a not in groups or group_b not in groups:
        return {}
    n_a = max(1, profile.n_traces(group_a))
    n_b = max(1, profile.n_traces(group_b))
    a = {";".join(s): w / n_a for s, w in profile.stacks(group_a).items()}
    b = {";".join(s): w / n_b for s, w in profile.stacks(group_b).items()}
    return {stack: a.get(stack, 0.0) - b.get(stack, 0.0)
            for stack in sorted(set(a) | set(b))}


def _arm(target, horizon_ns: float, *, tightness: str, storm: bool, gate):
    """Spans, flight recorder, metrics, sampler, SLO tracker, invariant
    checks and, with ``gate``, the slo_guard controller."""
    recorder = arm_testbed(target)
    recorder.tag_origin = True
    flight = FlightRecorder(target.sim, capacity=FLIGHT_CAPACITY)
    arm_flight(target, flight, recorder=recorder)
    registry = bind_testbed_metrics(target)
    sampler = TimeSeriesSampler(target.sim, registry, window_ns=WINDOW_NS,
                                max_windows=MAX_WINDOWS)
    specs = [_victim_spec(tightness)]
    if storm:
        specs.append(_aggressor_spec())
    tracker = SLOTracker(target.sim, specs, flight=flight)
    tracker.arm(recorder=recorder, sampler=sampler, registry=registry)
    checks = scenario_checks(target)
    checks.flight = flight
    actuators = None
    if gate is not None:
        actuators = Actuators(target.sim, nic=target.nic, gate=gate)
        Controller(sampler, actuators, PolicySpec.from_spec(GUARD_SPEC))
    sampler.start(horizon_ns)
    checks.start(horizon_ns)
    return dict(recorder=recorder, flight=flight, sampler=sampler,
                tracker=tracker, checks=checks, actuators=actuators)


def measure_slo_cell(section: str, label: str, seed: int = 0) -> SloCell:
    """One cell, run unarmed then armed (identity proof), with SLO
    tracking, flame folding, and tail attribution on top.

    In the fleet cells the storm pounds host 0 only: the tracker pages
    on the shared victim objective while the flame and tail groups
    attribute the pain to host0's replica.
    """
    scenario, tightness, guarded = CELLS[section][label]
    storm = bool(scenario.pattern)

    def drive(armed: bool):
        gate = AdmissionGate() if armed and guarded else None
        arm = partial(_arm, tightness=tightness, storm=storm, gate=gate)
        return run_scenario(scenario, section == "fleet", seed,
                            victim_requests=VICTIM_REQUESTS,
                            bystander_requests=BYSTANDER_REQUESTS,
                            aggressor_delay_ns=STORM_DELAY_NS, gate=gate,
                            arm=arm if armed else None)

    # the guard cell's controller actuates by design: no identity proof
    base_rtts = None if guarded else drive(armed=False).rtts
    run = drive(armed=True)
    obs = run.armed
    obs["sampler"].finish()
    violations = obs["checks"].finish()

    profile = fold_spans(obs["recorder"])
    speedscope_ok = False
    if profile.groups():
        try:
            validate_speedscope(speedscope_json(profile))
            speedscope_ok = True
        except ValueError:
            speedscope_ok = False
    tail = tail_report(obs["recorder"], obs["sampler"], flight=obs["flight"],
                       quantile=TAIL_QUANTILE, max_requests=8)
    actuators = obs["actuators"]
    return SloCell(
        section=section,
        label=label,
        n_tenants=scenario.n_tenants,
        tightness=tightness,
        interference="storm" if storm else "calm",
        guarded=guarded,
        identical=None if guarded else run.rtts == base_rtts,
        n_victim=VICTIM_REQUESTS,
        victim_completed=len(run.rtts),
        victim_p50_ns=nearest_rank(run.rtts, 0.50),
        victim_p99_ns=nearest_rank(run.rtts, 0.99),
        victim_p999_ns=nearest_rank(run.rtts, 0.999),
        slo=_trim_slo_report(obs["tracker"].report()),
        flame=_flame_summary(profile),
        flame_diff=_per_request_diff(profile, "host0/victim",
                                     "host0/aggressor"),
        speedscope_ok=speedscope_ok,
        tail_groups=tail.get("groups", {}),
        guard_actuations=len(actuators.log) if actuators else 0,
        violations=len(violations),
        check_samples=obs["checks"].samples,
    )


def render_slo(cells: list["SloCell"]) -> None:
    titles = {
        "single": "E25 — SLO burn-rate alerting on one Lauberhorn host",
        "fleet": "E25 — 2-ToR fleet, storm on host0's victim replica",
    }
    for section in SECTIONS:
        rows = []
        for cell in cells:
            if cell.section != section:
                continue
            victim = cell.slo.get("specs", {}).get("victim", {})
            alert = victim.get("first_alert_ns")
            exhausted = victim.get("exhausted_ns")
            rows.append((
                cell.label,
                f"{cell.victim_completed}/{cell.n_victim}",
                fmt_ns(cell.victim_p999_ns),
                f"{victim.get('bad', 0)}/{victim.get('total', 0)}",
                fmt_ns(alert) if alert is not None else "-",
                fmt_ns(exhausted) if exhausted is not None else "-",
                (fmt_ns(victim["alert_lead_ns"])
                 if victim.get("alert_lead_ns") is not None else "-"),
                {True: "yes", False: "NO", None: "n/a"}[cell.identical],
                str(cell.violations),
            ))
        if rows:
            print_table(
                ["cell", "victim done", "v p99.9", "bad/total",
                 "first alert", "exhausted", "lead", "identical",
                 "violations"],
                rows,
                title=titles[section],
            )
            print()


def slo_payload(cells: list["SloCell"]) -> dict:
    """The E25 artifact payload."""
    from ..exp.pool import jsonable

    return {
        "experiment": "e25",
        "horizon_ns": HORIZON_NS,
        "fleet_horizon_ns": FLEET_HORIZON_NS,
        "storm_delay_ns": STORM_DELAY_NS,
        "objectives": {
            "tight": _victim_spec("tight").as_dict(),
            "loose": _victim_spec("loose").as_dict(),
            "aggressor": _aggressor_spec().as_dict(),
        },
        "sections": list(SECTIONS),
        "cells": [jsonable(cell) for cell in cells],
    }


def validate_slo_payload(payload: dict, complete: bool = True) -> None:
    """Schema/acceptance check for the E25 artifact; raises ValueError.

    The acceptance contract: every identity-eligible cell replays
    byte-identically armed vs unarmed; calm cells never alert; every
    storm cell whose (tight) victim objective is violated alerts
    strictly *before* budget exhaustion; and each flame group's folded
    self time equals its summed root durations exactly.
    """
    problems: list[str] = []
    cells = payload.get("cells")
    if not isinstance(cells, list) or not cells:
        raise ValueError("payload has no 'cells' list")
    by_key = {}
    for cell in cells:
        tag = f"{cell.get('section')}/{cell.get('label')}"
        by_key[(cell.get("section"), cell.get("label"))] = cell
        for key in ("section", "label", "slo", "flame", "identical",
                    "violations", "victim_completed"):
            if key not in cell:
                problems.append(f"{tag}: missing {key}")
        if cell.get("violations", 1) != 0:
            problems.append(
                f"{tag}: {cell.get('violations')} invariant violation(s)")
        if cell.get("victim_completed") != cell.get("n_victim"):
            problems.append(
                f"{tag}: victim completed {cell.get('victim_completed')} "
                f"of {cell.get('n_victim')}")
        if not cell.get("guarded") and cell.get("identical") is not True:
            problems.append(f"{tag}: armed run diverged from unarmed")
        if not cell.get("speedscope_ok"):
            problems.append(f"{tag}: speedscope export failed validation")
        for group, summary in cell.get("flame", {}).items():
            if summary.get("self_sum_ns") != summary.get("root_sum_ns"):
                problems.append(
                    f"{tag}: flame group {group} folded "
                    f"{summary.get('self_sum_ns')} ns != root "
                    f"{summary.get('root_sum_ns')} ns")
            if not summary.get("exact"):
                problems.append(f"{tag}: flame group {group} not exact")
        victim = cell.get("slo", {}).get("specs", {}).get("victim", {})
        n_alerts = cell.get("slo", {}).get("n_alerts", 0)
        if cell.get("interference") == "calm":
            if n_alerts != 0:
                problems.append(f"{tag}: calm cell raised {n_alerts} "
                                "alert(s)")
            if victim.get("violated"):
                problems.append(f"{tag}: calm cell exhausted its budget")
        if (cell.get("interference") == "storm"
                and cell.get("tightness") == "tight"
                and not cell.get("guarded")):
            if not victim.get("violated"):
                problems.append(f"{tag}: tight storm cell never violated "
                                "the victim objective")
            else:
                alert = victim.get("first_alert_ns")
                exhausted = victim.get("exhausted_ns")
                if alert is None:
                    problems.append(f"{tag}: objective violated but no "
                                    "burn-rate alert fired")
                elif not alert < exhausted:
                    problems.append(
                        f"{tag}: alert at {alert} ns did not precede "
                        f"exhaustion at {exhausted} ns")
        if (cell.get("interference") == "storm"
                and cell.get("tightness") == "loose"):
            if victim.get("violated"):
                problems.append(f"{tag}: loose objective violated — not "
                                "loose enough to discriminate")
            if victim.get("alerts", 0) != 0:
                problems.append(f"{tag}: loose objective alerted")
        if cell.get("interference") == "storm" and not cell.get("guarded"):
            if not cell.get("flame_diff"):
                problems.append(f"{tag}: no victim-vs-aggressor flame diff")
        if cell.get("guarded"):
            if cell.get("guard_actuations", 0) <= 0:
                problems.append(f"{tag}: slo_guard never actuated")
            if victim.get("alerts", 0) < 1:
                problems.append(f"{tag}: guard cell saw no alert to "
                                "react to")
            if victim.get("violated"):
                problems.append(f"{tag}: slo_guard failed to save the "
                                "victim's budget")
    if complete:
        wanted = {(section, label) for section in SECTIONS
                  for label in cell_labels(section)}
        missing = wanted - set(by_key)
        if missing:
            problems.append(f"missing cells: {sorted(missing)}")
        fleet_storm = by_key.get(("fleet", "fleet-tight-storm"))
        if fleet_storm:
            # cross-host attribution: the storm pounds host0 only, so
            # host0's victim replica must show a far fatter per-trace
            # flame than host1's (which stays green)
            flame = fleet_storm.get("flame", {})
            means = {}
            for host in ("host0", "host1"):
                summary = flame.get(f"{host}/victim", {})
                n = summary.get("n_traces", 0)
                means[host] = (summary.get("root_sum_ns", 0.0) / n
                               if n else 0.0)
            if means["host0"] <= 2 * means["host1"]:
                problems.append(
                    "fleet storm: flame attribution did not single out "
                    f"host0's victim replica (host0 mean {means['host0']:.0f}"
                    f" ns vs host1 {means['host1']:.0f} ns)")
    if problems:
        raise ValueError("; ".join(problems))
