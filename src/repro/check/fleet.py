"""Fleet-wide runtime invariants (rack-scale counterpart of
:mod:`repro.check.invariants`).

:func:`install_fleet_checks` arms one :class:`CheckRegistry` over a
whole :class:`repro.fleet.Fleet`:

* every per-host invariant the single-machine harness has (MESI,
  rings, scheduler, Lauberhorn accounting), installed per host;
* **packet conservation**, per port *and* fleet-summed: frames
  injected across every link of every switch (ToRs, spine, trunks)
  equal delivered + dropped + lost once the run drains;
* **flow order** — under reorder-free fault plans, requests of one
  flow (client IP, UDP source port) must reach their replica in
  strictly increasing request-id order; ECMP flow affinity makes this
  a hard guarantee, so any regression in the hashing or trunk
  shuttles trips it;
* **replica ledger** — what the ECMP balancer routed to each replica
  reconciles with what that replica's handler actually served
  (exact at drained quiesce under calm plans), and the recorded
  flow->replica affinity map replays through the hash unchanged.

Call after ``fleet.deploy(...)`` so the ledger can see the replicas.
Like everything in :mod:`repro.check`, nothing is installed unless a
harness opts in.
"""

from __future__ import annotations

from typing import Iterable

from ..net.headers import HeaderError
from ..net.packet import parse_udp_frame
from .invariants import (
    _install_clock_checks,
    _install_conservation_checks,
    _install_host_checks,
)
from .registry import CheckRegistry

__all__ = ["install_fleet_checks", "fleet_links"]

#: cap per-run flow-order problem accumulation (mirrors the registry's
#: own violation cap)
_MAX_FLOW_PROBLEMS = 50


def fleet_links(fleet) -> list:
    """Every link of every switch in the fleet, ToRs first."""
    links = []
    for switch in fleet.switches:
        for port in switch.ports.values():
            links.append(port.ingress)
            links.append(port.egress)
    return links


def _install_fleet_conservation(reg: CheckRegistry, links) -> None:
    """Fleet-summed conservation on top of the per-link equalities."""

    def totals() -> tuple[int, int]:
        injected = settled = 0
        for link in links:
            s = link.stats
            injected += s.frames + s.fault_duplicated
            settled += s.delivered + s.dropped + s.fault_lost
        return injected, settled

    def quiesce(drained: bool) -> Iterable[str]:
        injected, settled = totals()
        if drained and injected != settled:
            return [
                f"fleet-summed: {injected} frames injected across "
                f"{len(links)} links but {settled} settled at quiesce"
            ]
        if settled > injected:
            return [
                f"fleet-summed: {settled} frames settled but only "
                f"{injected} injected"
            ]
        return ()

    reg.add_quiesce("fleet-conservation", quiesce)


def _install_flow_order_checks(reg: CheckRegistry, fleet) -> None:
    """Tap each host's RX link; request ids per flow must ascend.

    Installed only for reorder-free plans — loss/corruption provoke
    retransmits and duplication/reordering legitimately break
    monotonic delivery, so the invariant would be vacuously noisy.
    """
    last_seen: dict[tuple, int] = {}
    problems: list[str] = []

    def tap(link, frame) -> None:
        request_id = frame.peek_meta("request_id")
        if request_id is None:
            return
        try:
            parsed = parse_udp_frame(frame, verify=False)
        except (HeaderError, ValueError):
            return
        key = (link.name, parsed.ip.src, parsed.udp.src_port)
        prev = last_seen.get(key)
        if (prev is not None and request_id <= prev
                and len(problems) < _MAX_FLOW_PROBLEMS):
            problems.append(
                f"flow {parsed.ip.src:#010x}:{parsed.udp.src_port} on "
                f"{link.name!r}: request {request_id} delivered after "
                f"{prev} (intra-flow reordering)"
            )
        if prev is None or request_id > prev:
            last_seen[key] = request_id

    for host in fleet.hosts:
        host.nic.port.egress.on_deliver = tap

    def drain() -> Iterable[str]:
        out = list(problems)
        problems.clear()
        return out

    reg.add("flow-order", drain)
    reg.add_quiesce("flow-order", lambda drained: drain())


def _install_replica_ledger_checks(reg: CheckRegistry, fleet) -> None:
    balancer = fleet.balancer
    deployments = list(fleet.deployments)
    served = [0] * len(deployments)
    for index, deployment in enumerate(deployments):
        orig = deployment.method.handler

        def counted(args, _index=index, _orig=orig):
            served[_index] += 1
            return _orig(args)

        deployment.method.handler = counted

    calm_wire = fleet.plan is None or not fleet.plan.link.active

    def consistency() -> Iterable[str]:
        problems = []
        for (src_ip, src_port), index in balancer.affinity.items():
            replay = balancer.index_for(src_ip, src_port)
            if replay != index:
                problems.append(
                    f"flow {src_ip:#010x}:{src_port}: balancer routed to "
                    f"replica {index} but the hash replays to {replay}"
                )
        if calm_wire:
            for index in range(len(deployments)):
                if served[index] > balancer.routed[index]:
                    problems.append(
                        f"replica {index}: served {served[index]} requests "
                        f"but only {balancer.routed[index]} were routed "
                        "to it"
                    )
        return problems

    def quiesce(drained: bool) -> Iterable[str]:
        problems = list(consistency())
        if drained and calm_wire:
            for index, deployment in enumerate(deployments):
                if served[index] != balancer.routed[index]:
                    problems.append(
                        f"replica {index} (host{deployment.host.index}): "
                        f"routed {balancer.routed[index]} != served "
                        f"{served[index]} at quiesce"
                    )
        return problems

    reg.add("replica-ledger", consistency)
    reg.add_quiesce("replica-ledger", quiesce)


def install_fleet_checks(
    fleet,
    *,
    interval_ns: float = 250_000.0,
    flow_order: bool = True,
) -> CheckRegistry:
    """Register every applicable invariant over a fleet; returns the
    registry.  Same protocol as :func:`repro.check.install_checks`:
    ``reg.start(horizon)``, run, ``reg.assert_clean()``."""
    reg = CheckRegistry(fleet.sim, interval_ns=interval_ns)
    _install_clock_checks(reg)
    for host in fleet.hosts:
        _install_host_checks(reg, host.machine, host.kernel, host.nic)
    links = fleet_links(fleet)
    _install_conservation_checks(reg, links)
    _install_fleet_conservation(reg, links)
    reorder_free = (fleet.plan is None or not fleet.plan.link.active)
    if flow_order and reorder_free:
        _install_flow_order_checks(reg, fleet)
    if fleet.balancer is not None:
        _install_replica_ledger_checks(reg, fleet)
    return reg
