"""``deploy_service``: the one per-stack echo-server recipe.

Every parameter an experiment passes must reach the deployment: the
handler answers, the service is bound under its name and port, the
method is found under its name, and the worker sits on the requested
core (the Linux worker is left to the scheduler, so it is not pinned).
"""

import pytest

from repro.experiments.testbed import (
    build_bypass_testbed,
    build_lauberhorn_testbed,
    build_linux_testbed,
    deploy_service,
)
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
