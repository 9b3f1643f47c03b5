#!/usr/bin/env python3
"""NIC-driven core autoscaling under a load spike (Section 5.2).

"this can be initiated by the kernel scheduler, or by Lauberhorn based
on statistics it gathers about the instantaneous load on each server
process.  This approach therefore also supports dynamic scaling of the
cores used for RPC based on load."

One dispatcher core serves a slow service; a load spike arrives; the
autoscaler (a kernel control thread reading the NIC's statistics)
spawns more dispatchers; when the spike ends, Retire messages hand the
cores back.

Run:  python examples/autoscaling.py
"""

from repro.experiments import build_lauberhorn_testbed, serve
from repro.sim import MS
from repro.workloads.generator import OpenLoopGenerator, ServiceMix, Target


def main() -> None:
    bed = build_lauberhorn_testbed()
    service = bed.registry.create_service("resize", udp_port=9000)
    method = bed.registry.add_method(
        service, "resize", lambda args: ["done"],
        cost_instructions=20_000,  # ~12 us of work per request
    )
    # One unpinned kernel dispatcher to start; no promotion, so every
    # request is kernel-dispatched and load shows as dispatcher demand.
    scheduler = serve(bed, "lauberhorn", [service], [None], promote=False)
    scheduler.start_autoscaler(interval_ns=0.2 * MS, min_dispatchers=1,
                               max_dispatchers=6)

    sizes = []

    def sampler():
        while True:
            sizes.append((bed.sim.now / MS, len(scheduler.dispatchers)))
            yield bed.sim.timeout(0.5 * MS)

    bed.sim.process(sampler())

    generator = OpenLoopGenerator(
        bed.clients[0], ServiceMix([Target(service, method)]),
        bed.server_mac, bed.server_ip,
        rng=bed.machine.rng.stream("spike"),
    )

    def spike():
        yield bed.sim.timeout(2 * MS)  # quiet start
        yield from generator.run(rate_per_sec=120_000, n_requests=400)

    done = bed.sim.process(spike())
    bed.machine.run(until=done)
    bed.machine.run(until=bed.sim.now + 8 * MS)  # quiet tail

    print("time (ms)  dispatcher cores")
    for time_ms, n in sizes:
        print(f"{time_ms:8.1f}  {'#' * n} ({n})")
    print(f"\ncompleted: {generator.completed} requests, "
          f"p99 {generator.recorder.summary().p99 / 1000:.1f} us")
    print(f"cores retired after the spike: {bed.nic.lstats.retires}")


if __name__ == "__main__":
    main()
