"""Telemetry: the NIC-observed per-RPC latency breakdown (Section 6).

Drives a mix of hot (armed user loop) and cold (kernel-dispatched)
traffic and prints the queueing / service / egress percentile breakdown
that the Lauberhorn telemetry ring produces with zero software on the
data path — the "tracing, debugging, and statistics" integration the
paper flags as a benefit of making the NIC part of the OS.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..sim.clock import MS
from .report import fmt_ns, print_table
from .testbed import (
    add_service,
    build_lauberhorn_testbed,
    deploy_service,
    serve,
)

__all__ = ["TelemetryBreakdown", "run_telemetry_breakdown"]


@dataclass(frozen=True)
class TelemetryBreakdown:
    """What the NIC's telemetry ring reports after the run."""

    completed: int
    kernel_dispatch_fraction: float
    #: service name -> stage -> {"p50": ns, "p99": ns}
    stages: dict[str, dict[str, dict[str, float]]]


def run_telemetry_breakdown(n_requests: int = 20, verbose: bool = True):
    bed = build_lauberhorn_testbed()

    hot, hot_m = deploy_service(bed, "lauberhorn", name="hot")

    cold, cold_m = add_service(bed, name="cold", udp_port=9001)
    serve(bed, "lauberhorn", [cold], [None], promote=False)

    client = bed.clients[0]

    def driver():
        yield bed.sim.timeout(10_000)
        for i in range(n_requests):
            service, method = (hot, hot_m) if i % 2 == 0 else (cold, cold_m)
            yield from client.call(args=[i], **bed.call_args(service, method))

    bed.sim.process(driver())
    bed.machine.run(until=1000 * MS)

    telemetry = bed.nic.telemetry
    stages = {}
    for service in (hot, cold):
        breakdown = telemetry.breakdown(service.service_id)
        stages[service.name] = {stage: {"p50": summary.p50, "p99": summary.p99}
                                for stage, summary in breakdown.items()}
        if verbose:
            print_table(
                ["stage", "p50", "p99"],
                [(stage, fmt_ns(summary.p50), fmt_ns(summary.p99))
                 for stage, summary in breakdown.items()],
                title=f"NIC telemetry — service {service.name!r}",
            )
    fraction = telemetry.kernel_dispatch_fraction()
    if verbose:
        print(f"\nkernel-dispatch fraction: {fraction:.2f}")
    return TelemetryBreakdown(len(telemetry.completed), fraction, stages)
