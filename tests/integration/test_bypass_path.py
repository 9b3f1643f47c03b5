"""End-to-end tests of the kernel-bypass RPC path.

Client -> switch -> bypass NIC -> user-space ring -> pinned busy-poll
worker -> handler -> PMD TX -> client.  No interrupts, no syscalls.
"""

import pytest

from repro.experiments import build_bypass_testbed, build_linux_testbed
from repro.rpc.server import bypass_worker, linux_udp_worker
from repro.sim import MS, US


def setup_echo(bed, n_workers=1, port=9000, handler_cost=500):
    service = bed.registry.create_service("echo", udp_port=port)
    method = bed.registry.add_method(
        service, "echo", lambda args: list(args), cost_instructions=handler_cost
    )
    process = bed.kernel.spawn_process("echo-server")
    for i in range(n_workers):
        queue = bed.nic.queues[i % len(bed.nic.queues)]
        bed.kernel.spawn_thread(
            process,
            bypass_worker(bed.nic, queue, bed.user_netctx, bed.registry),
            name=f"echo-pmd{i}",
            pinned_core=i,
        )
    bed.nic.steer_port(port, 0)
    return service, method


def test_single_rpc_roundtrip():
    bed = build_bypass_testbed()
    service, method = setup_echo(bed)
    client = bed.clients[0]
    results = []

    def driver():
        result = yield from client.call(
            args=[7, "hi"], **bed.call_args(service, method)
        )
        results.append(result)

    bed.sim.process(driver())
    bed.machine.run(until=50 * MS)
    assert len(results) == 1
    assert results[0].results == [7, "hi"]


def test_no_interrupts_no_syscalls_on_data_path():
    bed = build_bypass_testbed()
    service, method = setup_echo(bed)
    client = bed.clients[0]

    def driver():
        for i in range(5):
            yield from client.call(args=[i], **bed.call_args(service, method))

    bed.sim.process(driver())
    bed.machine.run(until=100 * MS)
    assert bed.machine.link.stats.interrupts == 0
    assert bed.kernel.stats.syscalls == 0


def test_bypass_faster_than_linux_when_static():
    """The premise the paper grants bypass: for a static pinned
    workload, bypass beats the kernel stack."""

    def measure(bed, setup):
        service, method = setup(bed)
        client = bed.clients[0]
        rtts = []

        def driver():
            for i in range(10):
                result = yield from client.call(
                    args=[i], **bed.call_args(service, method)
                )
                rtts.append(result.rtt_ns)

        bed.sim.process(driver())
        bed.machine.run(until=500 * MS)
        assert len(rtts) == 10
        # Skip the first (cold) request.
        return sum(rtts[1:]) / len(rtts[1:])

    bypass_rtt = measure(build_bypass_testbed(), setup_echo)

    def setup_linux(bed):
        service = bed.registry.create_service("echo", udp_port=9000)
        method = bed.registry.add_method(
            service, "echo", lambda args: list(args), cost_instructions=500
        )
        socket = bed.netstack.bind(9000)
        process = bed.kernel.spawn_process("echo-server")
        bed.kernel.spawn_thread(process, linux_udp_worker(socket, bed.registry))
        return service, method

    linux_rtt = measure(build_linux_testbed(), setup_linux)
    assert bypass_rtt < linux_rtt


def test_spinning_burns_cpu_while_idle():
    bed = build_bypass_testbed()
    setup_echo(bed)
    bed.machine.run(until=10 * MS)
    # One pinned worker spinning for 10ms with no traffic: its core
    # shows ~10ms busy.  (This is the energy cost the paper attacks.)
    core0 = bed.machine.cores[0]
    assert core0.counters.busy_ns > 9 * MS


def test_flow_steering_to_specific_queue():
    bed = build_bypass_testbed(n_queues=4)
    service, method = setup_echo(bed, n_workers=1)
    bed.nic.steer_port(9000, 0)
    client = bed.clients[0]
    results = []

    def driver():
        result = yield from client.call(args=[1], **bed.call_args(service, method))
        results.append(result)

    bed.sim.process(driver())
    bed.machine.run(until=50 * MS)
    assert results
    assert bed.nic.queues[0].drops == 0


def test_pipelined_throughput():
    bed = build_bypass_testbed()
    service, method = setup_echo(bed, handler_cost=2000)
    client = bed.clients[0]
    done = []

    def driver():
        events = [
            client.send_request(
                bed.server_mac, bed.server_ip, 9000,
                service.service_id, method.method_id, [i],
            )
            for i in range(50)
        ]
        for event in events:
            result = yield event
            done.append(result)

    bed.sim.process(driver())
    bed.machine.run(until=500 * MS)
    assert len(done) == 50
