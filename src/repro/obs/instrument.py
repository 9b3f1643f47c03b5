"""One-call arming of a testbed: spans on, metrics bound.

The span hooks live in the components themselves (client, NICs, the
kernel netstack), each guarded by an ``obs is None`` test so unarmed
runs pay a single attribute check.  :func:`arm_testbed` flips them all
on with one shared :class:`~repro.obs.spans.SpanRecorder`;
:func:`bind_testbed_metrics` registers every component's stats objects
with a :class:`~repro.obs.metrics.MetricsRegistry`.
"""

from __future__ import annotations

from typing import Optional

from .flight import FlightRecorder
from .metrics import MetricsRegistry
from .spans import SpanRecorder

__all__ = ["arm_testbed", "arm_flight", "bind_testbed_metrics"]


def _is_fleet(bed) -> bool:
    return hasattr(bed, "hosts")


def arm_testbed(bed, recorder: Optional[SpanRecorder] = None) -> SpanRecorder:
    """Attach a span recorder to every layer of an assembled testbed.

    Also accepts a :class:`repro.fleet.Fleet`: every host's NIC and
    netstack (and every client) share one recorder.
    """
    if _is_fleet(bed):
        if recorder is None:
            recorder = SpanRecorder(bed.sim)
        for client in bed.clients:
            client.obs = recorder
        for host in bed.hosts:
            host.nic.obs = recorder
            # label matches the host's metrics namespace (host<i>.*),
            # so span origin tags join against the right state rows
            host.nic.obs_host = f"host{host.index}"
            if host.netstack is not None:
                host.netstack.obs = recorder
        return recorder
    if recorder is None:
        recorder = SpanRecorder(bed.sim)
    for client in bed.clients:
        client.obs = recorder
    bed.nic.obs = recorder
    if bed.netstack is not None:
        bed.netstack.obs = recorder
    return recorder


def _arm_switch_flight(switch, flight: FlightRecorder) -> None:
    for port in switch.ports.values():
        for link in (port.ingress, port.egress):
            injector = getattr(link, "fault", None)
            if injector is not None:
                injector.flight = flight


def arm_flight(bed, flight: Optional[FlightRecorder] = None,
               recorder: Optional[SpanRecorder] = None,
               capacity: int = 512) -> FlightRecorder:
    """Attach one flight recorder to every event source in a testbed.

    Feeds: scheduler dispatch decisions (kernel), Tryagain bounces and
    ring stalls (NIC), wire fault injections (link injectors, when a
    fault plan is active), and — when ``recorder`` is passed — span
    opens/closes.  Pair with ``checks.flight = flight`` to get the
    dump-on-violation post-mortem.

    For a :class:`repro.fleet.Fleet`, every host's NIC/kernel and every
    switch's ports (ToRs, spine, trunks) feed the same ring — no
    single-machine assumption.
    """
    if _is_fleet(bed):
        if flight is None:
            flight = FlightRecorder(bed.sim, capacity=capacity)
        for host in bed.hosts:
            host.nic.flight = flight
            if host.kernel is not None:
                host.kernel.flight = flight
        for switch in bed.switches:
            _arm_switch_flight(switch, flight)
        if recorder is not None:
            recorder.flight = flight
        return flight
    if flight is None:
        flight = FlightRecorder(bed.sim, capacity=capacity)
    bed.nic.flight = flight
    if bed.kernel is not None:
        bed.kernel.flight = flight
    _arm_switch_flight(bed.switch, flight)
    if recorder is not None:
        recorder.flight = flight
    return flight


def _bind_client_metrics(registry: MetricsRegistry, client,
                         prefix: str) -> None:
    registry.probe(prefix, lambda c=client: {
        "outstanding": c.outstanding,
        "parse_errors": c.parse_errors,
        "unmatched_responses": c.unmatched_responses,
        "retries": c.retries,
        "give_ups": c.give_ups,
    })


def bind_testbed_metrics(bed, registry: Optional[MetricsRegistry] = None,
                         prefix: str = "") -> MetricsRegistry:
    """Bind every component's stats into one registry namespace.

    For a :class:`repro.fleet.Fleet`, each host's rows are namespaced
    ``host<i>.*`` (so identically named NICs/kernels never collide),
    every switch is bound under its own name (``switch`` for the
    degenerate 1-ToR fabric, else ``tor0``/``tor1``/…/``spine``), and
    clients are bound once fleet-wide.
    """
    if registry is None:
        registry = MetricsRegistry()
    p = f"{prefix}." if prefix else ""
    if _is_fleet(bed):
        for host in bed.hosts:
            hp = f"{p}host{host.index}"
            host.machine.bind_metrics(registry, prefix=f"{hp}.machine")
            if host.kernel is not None:
                host.kernel.bind_metrics(registry, prefix=f"{hp}.kernel")
            host.nic.bind_metrics(registry, prefix=f"{hp}.nic")
            if host.netstack is not None:
                host.netstack.bind_metrics(registry,
                                           prefix=f"{hp}.netstack")
        for switch in bed.switches:
            switch.bind_metrics(registry, prefix=f"{p}{switch.name}")
        for client in bed.clients:
            _bind_client_metrics(registry, client, f"{p}{client.name}")
        return registry
    bed.machine.bind_metrics(registry, prefix=f"{p}machine")
    if bed.kernel is not None:
        bed.kernel.bind_metrics(registry, prefix=f"{p}kernel")
    bed.nic.bind_metrics(registry, prefix=f"{p}nic")
    if bed.netstack is not None:
        bed.netstack.bind_metrics(registry, prefix=f"{p}netstack")
    bed.switch.bind_metrics(registry, prefix=f"{p}switch")
    for client in bed.clients:
        _bind_client_metrics(registry, client, f"{p}{client.name}")
    return registry
