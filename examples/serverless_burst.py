#!/usr/bin/env python3
"""Serverless cold starts: NIC-driven dispatch of an idle function.

A "function" service sits completely idle (no core is running it) when
a burst of invocations arrives.  With Lauberhorn, the first request is
dispatched by a parked kernel thread (Figure 5 (3)), which context-
switches into the function's process and *promotes* the core to the
function's own user-mode loop — so the rest of the burst rides the
zero-software fast path (Figure 5 (1)).

The script prints the per-invocation latency across the burst: watch
invocation 0 pay the cold-start and the rest drop to the hot-path
latency.

Run:  python examples/serverless_burst.py
"""

from repro.experiments import build_lauberhorn_testbed, serve
from repro.sim import MS


def main() -> None:
    bed = build_lauberhorn_testbed()

    function = bed.registry.create_service("thumbnailer", udp_port=9000)
    invoke = bed.registry.add_method(
        function,
        "invoke",
        handler=lambda args: [f"thumb({args[0]})"],
        cost_instructions=5_000,  # some real work per invocation
    )
    # The function gets an end-point but *no thread arming it*: it is
    # cold until one of the two (unpinned) NIC-driven dispatchers
    # brings it up and promotes into its user loop.
    serve(bed, "lauberhorn", [function], [None, None], promote=True)

    client = bed.clients[0]
    latencies = []

    def driver():
        yield bed.sim.timeout(1 * MS)  # dispatchers park first
        for i in range(10):
            result = yield from client.call(
                args=[f"img{i}.png"], **bed.call_args(function, invoke)
            )
            latencies.append(result.rtt_ns)

    bed.sim.process(driver())
    bed.machine.run(until=100 * MS)

    print("invocation latencies (cold start first):")
    for index, rtt in enumerate(latencies):
        marker = "  <- cold start (kernel dispatch + promotion)" if index == 0 else ""
        print(f"  #{index}: {rtt / 1000:7.2f} us{marker}")
    print()
    print(f"kernel-dispatched : {bed.nic.lstats.delivered_kernel}")
    print(f"fast-path         : {bed.nic.lstats.delivered_fast}")
    speedup = latencies[0] / (sum(latencies[2:]) / len(latencies[2:]))
    print(f"warm invocations run {speedup:.1f}x faster than the cold start")


if __name__ == "__main__":
    main()
