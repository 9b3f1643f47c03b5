"""The benchmark's three workloads, assembled from the simulator's public API.

Each workload is built fresh by :func:`build` and driven by :func:`drive`.
All traffic is open-loop Poisson in simulated time, so an RTT is measured
from the request's due time and the simulated client never runs late.
Every random stream is derived from the workload seed, so one seed always
gives the same inputs and the same simulated outputs.

``scale`` shrinks the request counts (the smoke test runs at 2%); the
benchmark itself always runs at ``scale=1``.
"""

from __future__ import annotations

import hashlib
import random
import time
from dataclasses import dataclass
from typing import Callable

from repro.check import install_checks
from repro.experiments.testbed import (
    build_lauberhorn_testbed,
    build_linux_testbed,
    deploy_service,
)
from repro.nic.lauberhorn import EndpointKind
from repro.obs import (
    FlightRecorder,
    SLOSpec,
    SLOTracker,
    TimeSeriesSampler,
    arm_flight,
    arm_testbed,
)
from repro.obs.instrument import bind_testbed_metrics
from repro.os.nicsched import NicScheduler
from repro.rpc.server import linux_udp_worker
from repro.sim.clock import MS
from repro.sim.profile import attach_profile
from repro.tenancy import TenantTable
from repro.workloads.distributions import args_for_payload
from repro.workloads.generator import OpenLoopGenerator, ServiceMix, Target
from repro.workloads.traces import HotSetSchedule

#: the rpc-mix traffic: small echo RPCs over a rotating hot set
MIX_SERVICES = 32
MIX_HOT = 4
MIX_ROTATION_NS = 2 * MS
MIX_RATE = 200_000.0
MIX_REQUESTS = 4000
MIX_SERVING_CORES = 4
MIX_COST = 1000
#: echo payload bytes per request, drawn uniformly (mean 64 B)
MIX_PAYLOAD = (32, 96)
#: the hot-set rotation is part of the workload, like a replayed trace; the
#: seed draws arrivals, payloads and the service picked within the hot set.
#: (Drawn from the seed, the schedule alone moved Linux p99 by +-30%, as
#: p99 is set by the few epochs that put three hot services on one core.)
MIX_SCHEDULE_SEED = 0

#: tenant-bulk-flood: a small-RPC victim beside an encrypted bulk aggressor
VICTIM_RATE = 50_000.0
VICTIM_REQUESTS = 1000
VICTIM_COST = 500
VICTIM_PAYLOAD = (32, 96)
AGGR_RATE = 150_000.0
AGGR_FRAMES = 3000
AGGR_PAYLOAD = 6144
AGGR_COST = 2000
AGGR_START_NS = 200_000.0
AGGR_CONTRACT_RPS = 50_000.0
AGGR_BURST = 16.0
AGGR_BUDGET = 4

#: simulated time after the last due arrival before the horizon
DRAIN_NS = 5 * MS
#: obs arming on rpc-mix-linux-observed
SAMPLER_WINDOW_NS = 100_000.0
SLO_THRESHOLD_NS = 20_000.0

BASE_PORT = 9000
#: an unbound port: a request sent there never completes
DEAD_PORT = 9999


def derive_rng(seed: int, stream: str) -> random.Random:
    """An independent, reproducible RNG for one named input stream."""
    return random.Random(f"perfbench:{seed}:{stream}")


def _echo_args(bounds: tuple[int, int]) -> Callable[[random.Random], list]:
    low, high = bounds

    def make(rng: random.Random) -> list:
        return [rng.randbytes(rng.randint(low, high))]

    return make


class CheckedGenerator(OpenLoopGenerator):
    """Open-loop generator that also checks every echo reply's content.

    The base class keeps only RTTs; ``_note`` is its per-reply hook, the
    one place that sees each reply's results beside its arguments.
    """

    mismatches = 0

    def _note(self, result) -> None:
        if list(result.results) != list(result.args):
            self.mismatches += 1
        super()._note(result)


@dataclass
class Outcome:
    """One driven workload: host timing plus exact simulated results."""

    #: requests sent by every client (measured + background traffic)
    sent: int
    #: measured requests attempted / completed by the horizon
    attempted: int
    completed: int
    #: measured RTTs in completion order (ns)
    rtts: list
    mismatches: int
    violations: int
    #: responses received by any client
    responses: int
    #: exact counters, read after the run
    counters: dict
    #: host seconds inside ``Simulator.run``
    wall_s: float = 0.0

    @property
    def digest(self) -> str:
        """Hash of the measured RTT sequence, for byte-identity checks."""
        text = ",".join(repr(rtt) for rtt in self.rtts)
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    def gate_problems(self) -> list[str]:
        problems = []
        if self.violations:
            problems.append(f"{self.violations} invariant violation(s)")
        if self.completed != self.attempted:
            problems.append(f"{self.attempted - self.completed} of "
                            f"{self.attempted} measured requests incomplete")
        if self.mismatches:
            problems.append(f"{self.mismatches} echo reply mismatch(es)")
        return problems


@dataclass
class Prepared:
    """A built, deployed and armed workload, ready for ``Simulator.run``."""

    sim: object
    horizon_ns: float
    #: collects the outcome once the run has reached the horizon
    finish: Callable[[], Outcome]


def _mix_targets(bed) -> list[Target]:
    targets = []
    for index in range(MIX_SERVICES):
        service = bed.registry.create_service(f"svc{index}",
                                              udp_port=BASE_PORT + index)
        method = bed.registry.add_method(service, "echo", lambda a: list(a),
                                         cost_instructions=MIX_COST)
        targets.append(Target(service, method, _echo_args(MIX_PAYLOAD)))
    return targets


def _start_mix(bed, targets, seed: int, n_requests: int):
    """Rotating-hot-set open-loop traffic; returns the generator."""
    mix = ServiceMix(targets)
    schedule = HotSetSchedule(n_services=len(targets), hot_count=MIX_HOT,
                              period_ns=MIX_ROTATION_NS,
                              seed=MIX_SCHEDULE_SEED)
    mix.set_hot_set(schedule.hot_set_at(0))

    def rotator():
        while True:
            yield bed.sim.timeout(MIX_ROTATION_NS)
            mix.set_hot_set(schedule.hot_set_at(bed.sim.now))

    bed.sim.process(rotator(), name="perfbench-rotator")
    generator = CheckedGenerator(bed.clients[0], mix, bed.server_mac,
                                 bed.server_ip, derive_rng(seed, "mix"))
    bed.sim.process(generator.run(MIX_RATE, n_requests))
    return generator


def _inject_dead_request(bed, generator) -> None:
    """Send one measured request to an unbound port (gate self-test)."""
    target = generator.mix.targets[0]
    generator.sent += 1
    bed.clients[0].send_request(bed.server_mac, bed.server_ip, DEAD_PORT,
                                target.service.service_id,
                                target.method.method_id, [b"x"])


def _counters(bed, profile, registry) -> dict:
    """Exact work counters shared by every workload."""
    snap = registry.snapshot()
    engine = profile.report()
    delivered = (snap.get("nic.lauberhorn.delivered_fast", 0)
                 + snap.get("nic.lauberhorn.delivered_kernel", 0))
    tryagains = snap.get("nic.lauberhorn.tryagains", 0)
    return {
        "sim.events": engine["events_dispatched"],
        "sim.wheel_pushes": engine["wheel_pushes"],
        "sim.fast_path_ratio": engine["fast_path_ratio"],
        "net.wire_frames": sum(v for k, v in snap.items()
                               if k.startswith("switch.")
                               and k.endswith(".in.frames")),
        "net.wire_bytes": sum(v for k, v in snap.items()
                              if k.startswith("switch.")
                              and k.endswith(".in.bytes")),
        "nic.lauberhorn.tryagain_ratio":
            tryagains / delivered if delivered else 0.0,
        "nic.lauberhorn.dma_fallbacks":
            snap.get("nic.lauberhorn.dma_fallbacks", 0),
        "os.context_switches": snap.get("kernel.context_switches", 0),
        "os.irqs": snap.get("kernel.irqs", 0),
        "os.syscalls": snap.get("kernel.syscalls", 0),
        "hw.busy_ns": snap["machine.busy_ns"],
        "hw.stall_ns": snap["machine.stall_ns"],
        "obs.spans": 0,
        "obs.windows": 0,
        "obs.flight_events": 0,
        "check.samples": 0,
        "check.violations": 0,
        "tenancy.rate_dropped": 0,
        "tenancy.police_ratio": 0.0,
    }


def _mix_outcome(bed, generator, profile, registry, checks=None,
                 obs=None) -> Outcome:
    counters = _counters(bed, profile, registry)
    violations = 0
    if checks is not None:
        violations = len(checks.finish())
        counters["check.samples"] = checks.samples
        counters["check.violations"] = violations
    if obs is not None:
        obs["sampler"].finish()
        counters["obs.spans"] = len(obs["recorder"].spans)
        counters["obs.windows"] = obs["sampler"].samples
        counters["obs.flight_events"] = obs["flight"].recorded
    return Outcome(
        sent=generator.sent, attempted=generator.sent,
        completed=generator.completed,
        rtts=list(generator.recorder.samples),
        mismatches=generator.mismatches, violations=violations,
        responses=generator.completed, counters=counters,
    )


def _mix_horizon(n_requests: int) -> float:
    return n_requests / MIX_RATE * 1e9 + DRAIN_NS


def build_rpc_mix_lauberhorn(seed: int, scale: float = 1.0,
                             inject_incomplete: bool = False) -> Prepared:
    """The headline case: NIC-driven dispatch over a rotating hot set."""
    n_requests = max(1, round(MIX_REQUESTS * scale))
    bed = build_lauberhorn_testbed(seed=seed)
    targets = _mix_targets(bed)
    for target in targets:
        process = bed.kernel.spawn_process(target.service.name)
        bed.nic.register_service(target.service, process.pid)
        bed.nic.create_endpoint(EndpointKind.USER, service=target.service)
    NicScheduler(bed.kernel, bed.nic, bed.registry,
                 n_dispatchers=MIX_SERVING_CORES, promote=True,
                 dispatcher_cores=list(range(MIX_SERVING_CORES)))
    registry = bind_testbed_metrics(bed)
    profile = attach_profile(bed.sim)
    generator = _start_mix(bed, targets, seed, n_requests)
    if inject_incomplete:
        _inject_dead_request(bed, generator)

    return Prepared(bed.sim, _mix_horizon(n_requests),
                    lambda: _mix_outcome(bed, generator, profile, registry))


def build_rpc_mix_linux_observed(seed: int, scale: float = 1.0,
                                 inject_incomplete: bool = False) -> Prepared:
    """The same traffic on the Linux stack with every obs seam armed."""
    n_requests = max(1, round(MIX_REQUESTS * scale))
    horizon_ns = _mix_horizon(n_requests)
    bed = build_linux_testbed(n_queues=MIX_SERVING_CORES, seed=seed)
    targets = _mix_targets(bed)
    for index, target in enumerate(targets):
        socket = bed.netstack.bind(target.service.udp_port)
        process = bed.kernel.spawn_process(target.service.name)
        bed.kernel.spawn_thread(process,
                                linux_udp_worker(socket, bed.registry),
                                pinned_core=index % MIX_SERVING_CORES)
    recorder = arm_testbed(bed)
    flight = FlightRecorder(bed.sim)
    arm_flight(bed, flight, recorder=recorder)
    registry = bind_testbed_metrics(bed)
    sampler = TimeSeriesSampler(bed.sim, registry,
                                window_ns=SAMPLER_WINDOW_NS)
    tracker = SLOTracker(bed.sim, [SLOSpec("all-roots", SLO_THRESHOLD_NS)],
                         flight=flight)
    tracker.arm(recorder=recorder, sampler=sampler, registry=registry)
    checks = install_checks(bed)
    checks.flight = flight
    sampler.start(horizon_ns)
    checks.start(horizon_ns)
    profile = attach_profile(bed.sim)
    generator = _start_mix(bed, targets, seed, n_requests)
    if inject_incomplete:
        _inject_dead_request(bed, generator)
    obs = dict(recorder=recorder, flight=flight, sampler=sampler)

    return Prepared(bed.sim, horizon_ns,
                    lambda: _mix_outcome(bed, generator, profile, registry,
                                         checks=checks, obs=obs))


def build_tenant_bulk_flood(seed: int, scale: float = 1.0,
                            inject_incomplete: bool = False) -> Prepared:
    """A small-RPC victim beside a policed, encrypted bulk aggressor."""
    n_victim = max(1, round(VICTIM_REQUESTS * scale))
    n_aggr = max(1, round(AGGR_FRAMES * scale))
    horizon_ns = max(n_victim / VICTIM_RATE,
                     AGGR_START_NS / 1e9 + n_aggr / AGGR_RATE) * 1e9 \
        + DRAIN_NS
    bed = build_lauberhorn_testbed(n_clients=2, seed=seed,
                                   preempt_on_backlog=True)
    table = TenantTable()
    table.create("victim", weight=2.0)
    table.create("aggressor", weight=1.0, ctrl_budget=AGGR_BUDGET,
                 rate_limit_rps=AGGR_CONTRACT_RPS, rate_burst=AGGR_BURST)
    bed.nic.attach_tenants(table)
    victim_service, victim_method = deploy_service(
        bed, "lauberhorn", name="victim", udp_port=BASE_PORT,
        cost_instructions=VICTIM_COST, core=0, tenant="victim")
    aggr_service, aggr_method = deploy_service(
        bed, "lauberhorn", name="aggr", udp_port=BASE_PORT + 100,
        cost_instructions=AGGR_COST, core=1, tenant="aggressor",
        encrypted=True)
    checks = install_checks(bed)
    checks.start(horizon_ns)
    registry = bind_testbed_metrics(bed)
    profile = attach_profile(bed.sim)

    aggr_payload = args_for_payload(AGGR_PAYLOAD)
    aggressor = CheckedGenerator(
        bed.clients[1],
        ServiceMix([Target(aggr_service, aggr_method,
                           lambda rng: aggr_payload)]),
        bed.server_mac, bed.server_ip, derive_rng(seed, "aggressor"))

    def aggressor_body():
        yield bed.sim.timeout(AGGR_START_NS)
        yield from aggressor.run(AGGR_RATE, n_aggr)

    bed.sim.process(aggressor_body(), name="perfbench-aggressor")
    victim = CheckedGenerator(
        bed.clients[0],
        ServiceMix([Target(victim_service, victim_method,
                           _echo_args(VICTIM_PAYLOAD))]),
        bed.server_mac, bed.server_ip, derive_rng(seed, "victim"))
    bed.sim.process(victim.run(VICTIM_RATE, n_victim))
    if inject_incomplete:
        _inject_dead_request(bed, victim)

    def finish():
        counters = _counters(bed, profile, registry)
        violations = len(checks.finish())
        counters["check.samples"] = checks.samples
        counters["check.violations"] = violations
        ledger = table.snapshot()
        dropped = ledger["aggressor.rate_dropped"]
        counters["tenancy.rate_dropped"] = dropped
        counters["tenancy.police_ratio"] = dropped / aggressor.sent
        return Outcome(
            sent=victim.sent + aggressor.sent, attempted=victim.sent,
            completed=victim.completed,
            rtts=list(victim.recorder.samples),
            mismatches=victim.mismatches + aggressor.mismatches,
            violations=violations,
            responses=victim.completed + aggressor.completed,
            counters=counters,
        )

    return Prepared(bed.sim, horizon_ns, finish)


BUILDERS = {
    "rpc-mix-lauberhorn": build_rpc_mix_lauberhorn,
    "rpc-mix-linux-observed": build_rpc_mix_linux_observed,
    "tenant-bulk-flood": build_tenant_bulk_flood,
}


def build(workload: str, seed: int, scale: float = 1.0,
          inject_incomplete: bool = False) -> Prepared:
    return BUILDERS[workload](seed, scale, inject_incomplete)


def drive(prep: Prepared, profiler=None) -> Outcome:
    """Run one prepared workload to its horizon; ``profiler`` (anything
    with ``enable``/``disable``) is switched on around the run only."""
    started = time.perf_counter()
    if profiler is not None:
        profiler.enable()
    try:
        prep.sim.run(until=prep.horizon_ns)
    finally:
        if profiler is not None:
            profiler.disable()
    wall_s = time.perf_counter() - started
    outcome = prep.finish()
    outcome.wall_s = wall_s
    return outcome


def run_once(workload: str, seed: int, scale: float = 1.0,
             profiler=None, inject_incomplete: bool = False) -> Outcome:
    return drive(build(workload, seed, scale, inject_incomplete), profiler)

