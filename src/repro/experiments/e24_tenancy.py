"""E24 — multi-tenant isolation: noisy neighbours on a shared NIC.

The paper's NIC-as-OS argument is only honest under contention:
OSMOSIS (PAPERS.md) shows a shared SmartNIC without per-tenant
isolation lets one tenant's burst wreck everyone else's tail.  E24
measures exactly that on the Lauberhorn demux path: a *calm victim*
tenant (modest open-loop load) shares the NIC with an *aggressor*
running one of three interference patterns, with the
:mod:`repro.tenancy` machinery either accounting-only (``off``) or
enforcing budgets + DWRR + rate limits (``on``):

* **storm** — encrypted near-DMA-threshold payloads faster than the
  RX pipeline can crypt+deserialise them: the serial demux loop
  saturates and the overflow preempts the victim's armed loop with
  Tryagain bounces;
* **dmaflood** — encrypted >4 KiB payloads: every delivery also drags
  the DMA fallback machinery into the picture;
* **rateviol** — a flat-out small-request flood far above the
  tenant's contracted rate, aimed at a deliberately slow handler so
  backlogs (and preemption pressure) build.

Every cell runs under the full invariant battery *plus* the tenant
isolation checks (conservation, budget caps, ledger reconciliation,
DWRR fairness) — a cell only counts with zero violations.  The
headline table is victim p99.9 with isolation vs. without vs. solo:
with budgets + rate limits the victim's tail stays within 2x its solo
run while the unisolated baseline blows far past it, because policed
aggressor frames cost only parse+demux (~40 ns) instead of the full
crypt+deserialise pipeline.

Two sections: ``single`` (one Lauberhorn host, tenant-count x pattern
x isolation grid) and ``fleet`` (2-ToR rack, victim replicated on two
hosts, aggressor pounding one of them).  :func:`run_scenario` builds
and runs every cell from one :class:`Scenario` row of :data:`CELLS`;
E25 runs its SLO cells through the same function.  Victim percentiles
are :func:`~repro.metrics.histogram.nearest_rank` (no interpolation).

Artifact: ``results/e24_tenancy.json`` (schema-checked by
:func:`validate_tenancy_payload`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..check import install_checks, install_fleet_checks
from ..fleet import Fleet, HostSpec, build_fleet
from ..metrics.histogram import nearest_rank
from ..net.topology import TopologySpec
from ..sim.clock import MS
from ..tenancy import TenantTable
from ..workloads.distributions import args_for_payload
from ..workloads.generator import OpenLoopGenerator, ServiceMix, Target
from .report import fmt_ns, print_table
from .testbed import build_lauberhorn_testbed, deploy_service

__all__ = ["TenancyCell", "TENANCY_ARTIFACT", "CELLS", "Scenario",
           "ScenarioRun", "cell_labels", "measure_tenancy_cell",
           "run_scenario", "scenario_checks", "render_tenancy",
           "tenancy_payload", "validate_tenancy_payload"]

#: default location of the JSON artifact (relative to the runner's cwd)
TENANCY_ARTIFACT = "results/e24_tenancy.json"

HORIZON_NS = 50 * MS
FLEET_HORIZON_NS = 60 * MS

#: the calm victim: open-loop Poisson, far below NIC capacity
VICTIM_RATE = 50_000.0
VICTIM_REQUESTS = 100
VICTIM_COST = 500
FLEET_VICTIM_REQUESTS = 120
FLEET_VICTIM_FLOWS = 8

#: light bystander tenants for the 4-tenant cells
BYSTANDER_RATE = 10_000.0
BYSTANDER_REQUESTS = 20

#: the aggressor starts sending this long after the victim
AGGRESSOR_DELAY_NS = 200_000.0

#: aggressor interference patterns (payload size, inline AEAD, send
#: rate, frame count, handler cost in instructions)
PATTERNS = {
    # RX-pipeline saturation: crypto+deserialise of a 3968 B encrypted
    # payload (~540 ns) outruns its wire time (~320 ns), so the serial
    # demux loop falls behind at 2.5 Mfps and queueing explodes.
    "storm": dict(payload=3968, encrypted=True, rate=2.5e6, count=6000,
                  cost=2000),
    # Same saturation but through the >4 KiB DMA fallback, charging
    # the dma_fallbacks ledger on every delivery.
    "dmaflood": dict(payload=6144, encrypted=True, rate=1.8e6, count=4500,
                     cost=2000),
    # Cheap frames way over the contracted rate into a slow handler:
    # backlog overflow + preemption pressure, not pipeline saturation.
    "rateviol": dict(payload=64, encrypted=False, rate=2.0e6, count=5000,
                     cost=20_000),
}

#: enforcement applied to the aggressor when isolation is ``on``
AGGRESSOR_RATE_LIMIT = 50_000.0
AGGRESSOR_BURST = 16.0
AGGRESSOR_BUDGET = 4

TENANT_COUNTS = (2, 4)


@dataclass(frozen=True)
class Scenario:
    """Who shares the NIC in one noisy-neighbour cell."""

    #: victim + aggressor + ``n_tenants - 2`` bystanders
    n_tenants: int = 2
    #: the aggressor's traffic (a :data:`PATTERNS` key); "" sends none
    pattern: str = ""
    #: aggressor budget + rate limit on, victim weighted up
    isolated: bool = False
    #: deploy the aggressor (storm service + tenant) even with no traffic
    idle_aggressor: bool = False


#: section -> label -> scenario; the single-host cells run on one
#: Lauberhorn host, the fleet cells on a 2-ToR rack
CELLS = {
    "single": {
        "solo": Scenario(n_tenants=1, isolated=True),
        **{f"{nt}t-{pattern}-{iso}": Scenario(nt, pattern, iso == "on")
           for nt in TENANT_COUNTS
           for pattern in PATTERNS
           for iso in ("off", "on")},
    },
    "fleet": {
        "solo": Scenario(idle_aggressor=True),
        "storm-off": Scenario(pattern="storm"),
        "storm-on": Scenario(pattern="storm", isolated=True),
    },
}
SECTIONS = tuple(CELLS)


def cell_labels(section: str) -> tuple[str, ...]:
    return tuple(CELLS[section])


@dataclass(frozen=True)
class TenancyCell:
    """One measured tenancy configuration (JSON-able)."""

    section: str
    label: str
    tenants: list
    pattern: str            # "" for solo cells
    isolated: bool
    n_victim: int
    victim_completed: int
    victim_p50_ns: float
    victim_p99_ns: float
    victim_p999_ns: float
    aggressor_sent: int = 0
    aggressor_completed: int = 0
    #: flat per-tenant ledger (``TenantTable.snapshot`` of host 0)
    ledger: dict = field(default_factory=dict)
    #: tenant invariant violations recorded over the run (must be 0)
    violations: int = 0
    check_samples: int = 0


def _build_table(scenario: Scenario) -> TenantTable:
    """Victim + aggressor (+ bystanders); ``isolated`` turns on the
    aggressor's budget and rate limit and weights the victim up."""
    table = TenantTable()
    table.create("victim", weight=2.0 if scenario.isolated else 1.0)
    if scenario.pattern or scenario.idle_aggressor:
        limits = dict(ctrl_budget=AGGRESSOR_BUDGET,
                      rate_limit_rps=AGGRESSOR_RATE_LIMIT,
                      rate_burst=AGGRESSOR_BURST) if scenario.isolated else {}
        table.create("aggressor", weight=1.0, **limits)
    for index in range(scenario.n_tenants - 2):
        table.create(f"bystander{index}", weight=1.0)
    return table


def _aggressor(sim, client, host, service, method, pattern: str, rng,
               done: list, delay_ns: float, gate=None):
    """Blast the pattern's requests open-loop after ``delay_ns``, never
    waiting for completions (rate-policed frames never complete by
    design); with ``gate`` an admission hold-off throttles each send."""
    config = PATTERNS[pattern]
    args = args_for_payload(config["payload"])
    gap = 1e9 / config["rate"]

    def run():
        yield sim.timeout(delay_ns)
        for _ in range(config["count"]):
            if gate is not None:
                hold = gate()
                if hold:
                    yield sim.timeout(hold)
            event = client.send_request(
                host.server_mac, host.server_ip, service.udp_port,
                service.service_id, method.method_id, args,
            )
            event.add_callback(lambda ev: done.append(1))
            yield sim.timeout(rng.expovariate(1.0) * gap)

    sim.process(run(), name="aggressor")


def _fleet_victim(fleet, n_requests: int, rng, rtts: list):
    """Open-loop victim spread over the fleet's flows by the balancer."""
    gap = 1e9 / VICTIM_RATE
    for k in range(n_requests):
        event = fleet.send(fleet.clients[0],
                           41000 + (k % FLEET_VICTIM_FLOWS), [k])
        event.add_callback(lambda ev: rtts.append(ev.value.rtt_ns))
        yield fleet.sim.timeout(rng.expovariate(1.0) * gap)


def scenario_checks(target):
    """The invariant battery (tenant checks included) for either host
    kind: a testbed or a fleet."""
    if isinstance(target, Fleet):
        return install_fleet_checks(target)
    return install_checks(target)


@dataclass
class ScenarioRun:
    """What one noisy-neighbour run left behind."""

    #: each host's tenant table, host 0 first
    tables: list
    #: victim RTTs in completion order
    rtts: list
    aggressor_completed: int
    #: whatever ``arm`` returned (None when unarmed)
    armed: object = None


def run_scenario(scenario: Scenario, fleet: bool, seed: int, *,
                 victim_requests: int, bystander_requests: int,
                 aggressor_delay_ns: float, gate=None,
                 arm=None) -> ScenarioRun:
    """Build, tenant, deploy, and run one noisy-neighbour cell.

    The calm victim runs on one tenanted Lauberhorn host, or with
    ``fleet`` replicated on both hosts of a 2-ToR rack; the aggressor
    and any bystanders share host 0.  ``arm(target, horizon_ns)`` runs
    once everything is deployed, before the aggressor and the victim
    start; ``gate`` is the aggressor's admission hold-off.
    """
    if fleet:
        target = build_fleet(
            [HostSpec(stack="lauberhorn", tor=0),
             HostSpec(stack="lauberhorn", tor=1)],
            topo=TopologySpec(n_tors=2),
            n_clients=2,
            seed=seed,
        )
        hosts, horizon_ns = target.hosts, FLEET_HORIZON_NS
    else:
        target = build_lauberhorn_testbed(n_clients=4, seed=seed,
                                          preempt_on_backlog=True)
        hosts, horizon_ns = [target], HORIZON_NS
    tables = [_build_table(scenario) for _ in hosts]
    for host, table in zip(hosts, tables):
        host.nic.attach_tenants(table)

    # Deployment order fixes service ids: on one host the victim comes
    # first, in the fleet host 0's aggressor precedes the replicas.
    host0 = hosts[0]
    if not fleet:
        victim = deploy_service(
            host0, "lauberhorn", name="victim", udp_port=9000,
            cost_instructions=VICTIM_COST, core=0, tenant="victim")
    if scenario.pattern or scenario.idle_aggressor:
        config = PATTERNS[scenario.pattern or "storm"]
        aggressor = deploy_service(
            host0, "lauberhorn", name="aggr", udp_port=9100,
            cost_instructions=config["cost"], core=1, tenant="aggressor",
            encrypted=config["encrypted"])
    if fleet:
        target.deploy(name="victim", udp_port=9000,
                      cost_instructions=VICTIM_COST, tenant="victim")
    for index in range(scenario.n_tenants - 2):
        service, method = deploy_service(
            host0, "lauberhorn", name=f"bystander{index}",
            udp_port=9200 + index, cost_instructions=VICTIM_COST,
            core=2 + index, tenant=f"bystander{index}")
        gen = OpenLoopGenerator(
            target.clients[2 + index], ServiceMix([Target(service, method)]),
            host0.server_mac, host0.server_ip,
            random.Random(seed + 31 + index))
        target.sim.process(gen.run(BYSTANDER_RATE, bystander_requests))

    armed = arm(target, horizon_ns) if arm is not None else None
    aggressor_done: list = []
    if scenario.pattern:
        _aggressor(target.sim, target.clients[1], host0, *aggressor,
                   scenario.pattern, random.Random(seed + 17),
                   aggressor_done, aggressor_delay_ns, gate)
    rng = random.Random(seed + 1)
    if fleet:
        rtts: list = []
        target.sim.process(_fleet_victim(target, victim_requests, rng, rtts),
                           name="fleet-victim")
    else:
        victim_gen = OpenLoopGenerator(
            target.clients[0], ServiceMix([Target(*victim)]),
            host0.server_mac, host0.server_ip, rng)
        target.sim.process(victim_gen.run(VICTIM_RATE, victim_requests))
        rtts = victim_gen.recorder.samples
    target.sim.run(until=horizon_ns)
    return ScenarioRun(tables, rtts, len(aggressor_done), armed)


def _start_checks(target, horizon_ns: float):
    checks = scenario_checks(target)
    checks.start(horizon_ns)
    return checks


def measure_tenancy_cell(section: str, label: str,
                         seed: int = 0) -> TenancyCell:
    """Run one cell of the table under the full invariant battery.

    The fleet cells put the victim on both hosts of the rack and the
    aggressor on host 0 only — the cross-host blast radius of one
    noisy tenant.
    """
    scenario = CELLS[section][label]
    fleet = section == "fleet"
    n_victim = FLEET_VICTIM_REQUESTS if fleet else VICTIM_REQUESTS
    run = run_scenario(scenario, fleet, seed, victim_requests=n_victim,
                       bystander_requests=BYSTANDER_REQUESTS,
                       aggressor_delay_ns=AGGRESSOR_DELAY_NS,
                       arm=_start_checks)
    checks = run.armed
    checks.finish()
    return TenancyCell(
        section=section,
        label=label,
        tenants=[spec.name for spec in run.tables[0]],
        pattern=scenario.pattern,
        isolated=scenario.isolated,
        n_victim=n_victim,
        victim_completed=len(run.rtts),
        victim_p50_ns=nearest_rank(run.rtts, 0.50),
        victim_p99_ns=nearest_rank(run.rtts, 0.99),
        victim_p999_ns=nearest_rank(run.rtts, 0.999),
        aggressor_sent=(PATTERNS[scenario.pattern]["count"]
                        if scenario.pattern else 0),
        aggressor_completed=run.aggressor_completed,
        ledger=run.tables[0].snapshot(),
        violations=len(checks.violations),
        check_samples=checks.samples,
    )


def render_tenancy(cells: list["TenancyCell"]) -> None:
    titles = {
        "single": "E24 — noisy neighbours on one Lauberhorn host",
        "fleet": "E24 — 2-ToR fleet, aggressor pounding one replica host",
    }
    for section in SECTIONS:
        rows = []
        for cell in cells:
            if cell.section != section:
                continue
            aggr_drops = cell.ledger.get("aggressor.rate_dropped", 0)
            rows.append((
                cell.label,
                f"{cell.victim_completed}/{cell.n_victim}",
                fmt_ns(cell.victim_p50_ns),
                fmt_ns(cell.victim_p99_ns),
                fmt_ns(cell.victim_p999_ns),
                str(cell.aggressor_completed),
                str(int(aggr_drops)),
                str(cell.violations),
            ))
        if rows:
            print_table(
                ["cell", "victim done", "v p50", "v p99", "v p99.9",
                 "aggr done", "policed", "violations"],
                rows,
                title=titles[section],
            )
            print()


def tenancy_payload(cells: list["TenancyCell"]) -> dict:
    """The E24 artifact payload."""
    from ..exp.pool import jsonable

    return {
        "experiment": "e24",
        "horizon_ns": HORIZON_NS,
        "fleet_horizon_ns": FLEET_HORIZON_NS,
        "sections": list(SECTIONS),
        "cells": [jsonable(cell) for cell in cells],
    }


def validate_tenancy_payload(payload: dict, complete: bool = True) -> None:
    """Schema/acceptance check for the E24 artifact; raises ValueError.

    Every cell: zero invariant violations and a fully-served victim.
    ``complete=True`` additionally demands the full grid and the
    isolation headline: for every tenant-count, the victim's p99.9
    under the aggressor's Tryagain storm stays within 2x its solo
    p99.9 when isolation is on, while the unisolated run exceeds that
    bound; isolated aggressors must show rate-limit policing and
    dmaflood cells must charge the DMA ledger.
    """
    problems: list[str] = []
    cells = payload.get("cells")
    if not isinstance(cells, list) or not cells:
        raise ValueError("payload has no 'cells' list")
    by_key = {}
    for cell in cells:
        tag = f"{cell.get('section')}/{cell.get('label')}"
        by_key[(cell.get("section"), cell.get("label"))] = cell
        for key in ("section", "label", "tenants", "victim_completed",
                    "victim_p999_ns", "ledger", "violations"):
            if key not in cell:
                problems.append(f"{tag}: missing {key}")
        if cell.get("violations", 1) != 0:
            problems.append(
                f"{tag}: {cell.get('violations')} invariant violation(s)")
        if cell.get("victim_completed") != cell.get("n_victim"):
            problems.append(
                f"{tag}: victim completed {cell.get('victim_completed')} "
                f"of {cell.get('n_victim')} requests")
        ledger = cell.get("ledger", {})
        if cell.get("isolated") and cell.get("pattern"):
            if ledger.get("aggressor.rate_dropped", 0) <= 0:
                problems.append(f"{tag}: isolated aggressor was never "
                                "rate-policed")
        if cell.get("pattern") == "dmaflood":
            if ledger.get("aggressor.dma_fallbacks", 0) <= 0:
                problems.append(f"{tag}: dmaflood charged no DMA fallbacks")
    if complete:
        wanted = {(section, label) for section in SECTIONS
                  for label in cell_labels(section)}
        missing = wanted - set(by_key)
        if missing:
            problems.append(f"missing cells: {sorted(missing)}")

        def headline(section: str, solo_label: str, on_label: str,
                     off_label: str) -> None:
            solo = by_key.get((section, solo_label))
            on = by_key.get((section, on_label))
            off = by_key.get((section, off_label))
            if not (solo and on and off):
                return
            bound = 2.0 * solo["victim_p999_ns"]
            if on["victim_p999_ns"] > bound:
                problems.append(
                    f"{section}/{on_label}: isolated victim p99.9 "
                    f"({on['victim_p999_ns']:.0f} ns) exceeds 2x solo "
                    f"({bound:.0f} ns)")
            if off["victim_p999_ns"] <= bound:
                problems.append(
                    f"{section}/{off_label}: unisolated victim p99.9 "
                    f"({off['victim_p999_ns']:.0f} ns) within 2x solo "
                    f"({bound:.0f} ns) — no interference to isolate")

        for nt in TENANT_COUNTS:
            headline("single", "solo", f"{nt}t-storm-on", f"{nt}t-storm-off")
        headline("fleet", "solo", "storm-on", "storm-off")
    if problems:
        raise ValueError("; ".join(problems))
