"""The testbed's two serving recipes.

``deploy_service`` gives one service a dedicated worker.  Every
parameter an experiment passes must reach the deployment: the handler
answers, the service is bound under its name and port, the method is
found under its name, and the worker sits on the requested core (the
Linux worker is left to the scheduler, so it is not pinned).

``serve`` serves already-registered services from a list of cores:
socket or PMD workers pinned round-robin, or Lauberhorn dispatchers
that promote into a user loop only when asked to.
"""

import pytest

from repro.experiments.testbed import (
    add_service,
    build_bypass_testbed,
    build_lauberhorn_testbed,
    build_linux_testbed,
    deploy_service,
    serve,
)
from repro.nic.lauberhorn import EndpointKind
from repro.sim import MS

BUILDERS = {
    "linux": build_linux_testbed,
    "bypass": build_bypass_testbed,
    "lauberhorn": build_lauberhorn_testbed,
}


@pytest.mark.parametrize("stack", sorted(BUILDERS))
def test_deploy_service_honours_its_parameters(stack):
    bed = BUILDERS[stack]()
    service, method = deploy_service(
        bed, stack, lambda args: [2 * value for value in args],
        name="doubler", method_name="double", udp_port=9123, core=2,
    )
    assert bed.registry.by_port(9123).name == "doubler"
    assert service.method(method.method_id).name == "double"

    client = bed.clients[0]
    results = []

    def driver():
        yield bed.sim.timeout(10_000)
        result = yield from client.call(args=[3, 4],
                                        **bed.call_args(service, method))
        results.append(result.results)

    bed.sim.process(driver())
    bed.machine.run(until=10 * MS)
    assert results == [[6, 8]]

    (thread,) = bed.kernel.processes[-1].threads
    if stack == "linux":
        assert thread.pinned_core is None
    else:
        assert thread.pinned_core == 2


def _call_each(bed, targets, n_calls=1):
    """Call every (service, method) ``n_calls`` times; returns results."""
    client = bed.clients[0]
    results = []

    def driver():
        yield bed.sim.timeout(10_000)
        for service, method in targets:
            for value in range(n_calls):
                result = yield from client.call(
                    args=[value], **bed.call_args(service, method))
                results.append(result.results)

    bed.sim.process(driver())
    bed.machine.run(until=10 * MS)
    return results


@pytest.mark.parametrize("stack", ["linux", "bypass"])
def test_serve_pins_workers_round_robin_over_cores(stack):
    bed = BUILDERS[stack](n_queues=2)
    targets = [add_service(bed, name=f"s{index}", udp_port=9000 + index)
               for index in range(5)]
    assert serve(bed, stack, [service for service, _ in targets],
                 [1, None, 3]) is None

    pins = {process.name: [t.pinned_core for t in process.threads]
            for process in bed.kernel.processes}
    assert {name: pins[name] for name in ("s0", "s1", "s2", "s3", "s4")} == {
        "s0": [1], "s1": [None], "s2": [3], "s3": [1], "s4": [None],
    }
    assert _call_each(bed, targets) == [[0]] * 5


def test_serve_steers_bypass_services_over_queues():
    bed = build_bypass_testbed(n_queues=2)
    services = [add_service(bed, name=f"s{index}", udp_port=9000 + index)[0]
                for index in range(3)]
    serve(bed, "bypass", services, [0, 1, 2])
    assert bed.nic.flow_table == {9000: 0, 9001: 1, 9002: 0}


def _user_endpoints(bed):
    return [ep for ep in bed.nic.endpoints if ep.kind is EndpointKind.USER]


def test_serve_lauberhorn_promote_arms_user_endpoints():
    bed = build_lauberhorn_testbed()
    targets = [add_service(bed, name=f"s{index}", udp_port=9000 + index)
               for index in range(2)]
    services = [service for service, _ in targets]
    scheduler = serve(bed, "lauberhorn", services, [2, 3])

    assert [ep.service for ep in _user_endpoints(bed)] == services
    assert [handle.thread.pinned_core
            for handle in scheduler.dispatchers] == [2, 3]
    assert bed.nic.preempt_on_backlog
    assert _call_each(bed, targets, n_calls=3) == [[0], [1], [2]] * 2
    assert bed.nic.lstats.delivered_fast > 0


def test_serve_lauberhorn_without_promote_kernel_dispatches_everything():
    bed = build_lauberhorn_testbed()
    service, method = add_service(bed)
    scheduler = serve(bed, "lauberhorn", [service], [None], promote=False)

    assert _user_endpoints(bed) == []
    assert [handle.thread.pinned_core
            for handle in scheduler.dispatchers] == [None]
    assert _call_each(bed, [(service, method)], n_calls=4) == [
        [0], [1], [2], [3]]
    assert bed.nic.lstats.delivered_fast == 0
    assert bed.nic.lstats.delivered_kernel == 4


def test_serve_rejects_an_unknown_stack():
    bed = build_linux_testbed()
    with pytest.raises(ValueError):
        serve(bed, "snap", [], [0])
