"""The paper's shape claims, as predicates over experiment results.

The paper argues in shapes, not absolute numbers: Lauberhorn beats
bypass beats Snap beats Linux on median latency, the cache-line path
loses to DMA somewhere around 4 KiB (§6), a 15 ms Tryagain timeout
makes keep-alive traffic "almost zero" (§5.1).  :data:`CLAIMS` holds
each such claim once, as (claim id, experiment, paper section,
predicate).  A predicate reads the experiment's JSON value — what
``run_all --json`` emits and ``tests/golden/<name>.json`` pins —
through a *view* shared by its group (rows keyed by stack, a sweep's
points, ...).  Claim ids read ``<experiment>.<slug>``; a slug ending
``@<x>`` is one point of a claim made for every point of a sweep.

Tier-1 (``tests/golden/test_claims.py``) checks every claim against the
golden corpus, and ``tools/regen_golden.py`` refuses to write a corpus
that breaks one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from ..experiments.crossover import CrossoverPoint
from ..experiments.sensitivity import SensitivityPoint
from ..experiments.throughput import ThroughputResult
from ..sim.clock import MS
from .golden import GOLDEN_EXPERIMENTS

__all__ = ["CLAIMS", "Claim", "check_claims"]


@dataclass(frozen=True)
class Claim:
    """One paper-shape claim about one experiment's result."""

    id: str
    experiment: str
    section: str
    #: the experiment's JSON value -> what ``predicate`` reads
    view: Callable[[Any], Any]
    predicate: Callable[[Any], bool]

    def holds(self, value: Any) -> bool:
        return bool(self.predicate(self.view(value)))


def _claims(experiment: str, section: str, view: Callable[[Any], Any],
            *rows: tuple[str, Callable[[Any], bool]]) -> tuple[Claim, ...]:
    """One group of ``(slug, predicate)`` rows sharing a view."""
    if experiment not in GOLDEN_EXPERIMENTS:
        raise ValueError(f"{experiment} has no golden JSON to check")
    return tuple(Claim(f"{experiment}.{slug}", experiment, section, view,
                       predicate) for slug, predicate in rows)


def _by(key: str, field: Optional[str] = None,
        part: Optional[int] = None) -> Callable[[Any], dict]:
    """View: the rows of the value (or of ``value[part]``), keyed by
    ``row[key]``; each row reduced to ``row[field]`` if given."""
    def view(value):
        rows = value if part is None else value[part]
        return {row[key]: row if field is None else row[field]
                for row in rows}
    return view


def _nondecreasing(values: list) -> bool:
    return values == sorted(values)


def _e4_at(n_services: int) -> Callable[[Any], dict]:
    """View: E4's rows at one service count, keyed by stack."""
    return lambda value: {row["stack"]: row for row in value
                          if row["n_services"] == n_services}


def _per_core(value) -> dict:
    """E14's peak throughput per core, by stack."""
    return {row["config"]: ThroughputResult(**row).requests_per_sec_per_core
            for row in value[0]}


_ECI = "Enzian / ECI (coherent)"
_CXL = "Modern server / CXL 3.0 (coherent, projected)"
_SPIN = "bypass (spin)"
_BLOCKED = "lauberhorn (blocked load)"
_SKIP_STORE = "bug: skip response store"
_OVERWRITE = "ownership bug: overwrite parked fill"
_COHERENT_STORE = "coherent posted line store (Lauberhorn)"
_TRUSTED = "trusted NIC (no IOMMU)"
_RESIDENT = "IOMMU, IOTLB-resident pool (16 pages)"
_THRASH = "IOMMU, thrashing ring (1024 pages)"
_STRICT = "IOMMU, thrashing + strict unmap"


CLAIMS: tuple[Claim, ...] = (
    # E1 — coherent round trips beat DMA on the same machine.
    *_claims("e1", "Figure 2", _by("label", "round_trip_ns"),
             ("eci-2.5x-under-enzian-pcie",
              lambda rtt: rtt[_ECI] < rtt["Enzian / PCIe Gen3 DMA"] / 2.5),
             ("eci-under-1500ns", lambda rtt: rtt[_ECI] < 1500),
             ("cxl-3x-under-modern-pcie", lambda rtt: (
                 rtt[_CXL] < rtt["Modern server / PCIe Gen5 DMA"] / 3)),
             ("eci-within-1.5x-of-modern-pcie", lambda rtt: (
                 rtt[_ECI] < rtt["Modern server / PCIe Gen5 DMA"] * 1.5))),
    # E2 — twelve receive-path steps; Lauberhorn leaves ~no software.
    *_claims("e2", "§2", lambda value: value[0],
             ("twelve-steps", lambda steps: len(steps) == 12)),
    *_claims("e2", "§2", lambda value: {
                 stack: row["busy_ns_per_request"]
                 for stack, row in value[1].items()},
             ("cpu-lauberhorn-bypass-linux-order", lambda busy: (
                 busy["lauberhorn"] < busy["bypass"] < busy["linux"])),
             ("cpu-lauberhorn-under-500ns",
              lambda busy: busy["lauberhorn"] < 500),
             ("cpu-lauberhorn-3x-under-bypass",
              lambda busy: busy["lauberhorn"] < busy["bypass"] / 3),
             ("cpu-lauberhorn-10x-under-linux",
              lambda busy: busy["lauberhorn"] < busy["linux"] / 10)),
    # E3 — NIC-driven dispatch: hot < kernel < Linux; promotion converges.
    *_claims("e3", "Figure 5, §5.2", _by("config", "p50_rtt_ns"),
             ("p50-hot-kernel-linux-order", lambda p50: (
                 p50["lauberhorn-hot"] < p50["lauberhorn-kernel"]
                 < p50["linux"])),
             ("promote-p50-within-1.2x-of-hot", lambda p50: (
                 p50["lauberhorn-promote"] <= p50["lauberhorn-hot"] * 1.2))),
    *_claims("e3", "Figure 5, §5.2", _by("config"),
             ("promote-at-most-2-kernel-dispatches",
              lambda c: c["lauberhorn-promote"]["kernel_dispatches"] <= 2),
             ("promote-at-least-15-fast-dispatches",
              lambda c: c["lauberhorn-promote"]["fast_dispatches"] >= 15)),
    *_claims("e3", "Figure 5, §5.2", _by("config", "busy_ns_per_request"),
             ("cpu-hot-under-500ns",
              lambda busy: busy["lauberhorn-hot"] < 500),
             ("cpu-kernel-under-linux", lambda busy: (
                 busy["lauberhorn-kernel"] < busy["linux"]))),
    # E4 — faster than bypass and still adaptive, at every service count.
    *(claim for n in (2, 8, 32) for claim in _claims(
        "e4", "§1, §4", _e4_at(n),
        (f"all-complete@{n}", lambda s: (
            s["lauberhorn"]["completed"] == s["bypass"]["completed"]
            == s["linux"]["completed"])),
        (f"p50-lauberhorn-bypass-linux-order@{n}", lambda s: (
            s["lauberhorn"]["p50_ns"] < s["bypass"]["p50_ns"]
            < s["linux"]["p50_ns"])),
        (f"cpu-lauberhorn-under-linux@{n}", lambda s: (
            s["lauberhorn"]["busy_ns_per_request"]
            < s["linux"]["busy_ns_per_request"])),
        (f"cpu-lauberhorn-10x-under-bypass@{n}", lambda s: (
            s["lauberhorn"]["busy_ns_per_request"]
            < s["bypass"]["busy_ns_per_request"] / 10)))),
    *_claims("e4", "§1, §4", lambda value: {
                 (row["stack"], row["n_services"]): row["busy_ns_per_request"]
                 for row in value},
             ("bypass-cpu-grows-with-services", lambda busy: (
                 busy[("bypass", 32)] > busy[("bypass", 2)])),
             ("lauberhorn-cpu-within-3x-across-services", lambda busy: (
                 busy[("lauberhorn", 32)] < busy[("lauberhorn", 2)] * 3))),
    # E5 — lines win small messages, DMA large ones, crossover ~4 KiB.
    *_claims("e5", "§6", lambda value: {
                 row["payload_bytes"]: CrossoverPoint(**row)
                 for row in value[0]},
             ("line-wins@64", lambda p: not p[64].dma_wins),
             ("line-wins@512", lambda p: not p[512].dma_wins),
             ("dma-wins@16384", lambda p: p[16384].dma_wins),
             ("line-rtt-monotone", lambda p: _nondecreasing(
                 [p[size].line_rtt_ns for size in sorted(p)])),
             ("dma-rtt-monotone", lambda p: _nondecreasing(
                 [p[size].dma_rtt_ns for size in sorted(p)]))),
    *_claims("e5", "§6", lambda value: value[1],
             ("crossover-found", lambda size: size is not None),
             ("crossover-in-1-8-kib", lambda size: 1024 <= size <= 8192)),
    # E6 — blocked loads cost stall, not busy time or energy; Tryagain
    # keep-alives decay ~1/timeout.
    *_claims("e6", "§5.1", _by("stack", part=0),
             ("spin-busy-10x-over-blocked", lambda s: (
                 s[_SPIN]["busy_ns"] > 10 * s[_BLOCKED]["busy_ns"])),
             ("blocked-busy-under-10us",
              lambda s: s[_BLOCKED]["busy_ns"] < 10_000),
             ("blocked-stall-over-20ms",
              lambda s: s[_BLOCKED]["stall_ns"] > 20 * MS),
             ("blocked-energy-2x-under-spin", lambda s: (
                 s[_BLOCKED]["energy_mj"] < s[_SPIN]["energy_mj"] / 2)),
             ("halted-linux-energy-under-blocked", lambda s: (
                 s["linux (interrupt)"]["energy_mj"]
                 < s[_BLOCKED]["energy_mj"]))),
    *_claims("e6", "§5.1", _by("timeout_ns", part=1),
             ("tryagains-over-900-per-s@1ms",
              lambda t: t[1 * MS]["tryagains_per_sec"] > 900),
             ("tryagains-under-70-per-s@15ms",
              lambda t: t[15 * MS]["tryagains_per_sec"] < 70),
             ("tryagains-under-11-per-s@100ms",
              lambda t: t[100 * MS]["tryagains_per_sec"] < 11),
             ("fabric-under-100-per-s@15ms",
              lambda t: t[15 * MS]["fabric_transactions_per_sec"] < 100)),
    # E7 — the protocol model-checks in tiny state spaces, and seeded
    # bugs are caught.
    *(claim for slug, label in (
        ("n2", "correct n=2"), ("n3", "correct n=3"), ("n4", "correct n=4"),
        ("n3-preempt", "correct n=3 + preemption"))
      for claim in _claims(
          "e7", "§6", lambda value, label=label: next(
              row for row in value if row["config"] == label),
          (f"verifies@{slug}", lambda row: row["ok"]),
          (f"under-10k-states@{slug}", lambda row: row["states"] < 10_000))),
    *_claims("e7", "§6", _by("config"),
             ("ownership-verifies", lambda c: c["ownership: correct"]["ok"]),
             ("catches-skip-response-store",
              lambda c: not c[_SKIP_STORE]["ok"]),
             ("skip-response-store-violates-NoStaleResponseExtraction",
              lambda c: c[_SKIP_STORE]["violated"]
              == "NoStaleResponseExtraction"),
             ("catches-tryagain-keeps-parked",
              lambda c: not c["bug: tryagain keeps parked"]["ok"]),
             ("catches-overwrite-parked-fill",
              lambda c: not c[_OVERWRITE]["ok"]),
             ("overwrite-parked-fill-violates-NoOrphanedLoad",
              lambda c: c[_OVERWRITE]["violated"] == "NoOrphanedLoad")),
    # E8 — pushing scheduling state to the NIC is negligible.
    *_claims("e8", "§4, §5.2", lambda value: value,
             ("push-overhead-under-2pct",
              lambda r: r["push_overhead_pct"] < 2.0),
             ("push-overhead-under-50ns",
              lambda r: r["push_overhead_ns"] < 50)),
    *_claims("e8", "§4, §5.2", lambda value: value["alternatives"],
             ("coherent-store-10x-under-mmio-read", lambda ns: (
                 ns[_COHERENT_STORE]
                 < ns["PCIe MMIO read (synchronous)"] / 10)),
             ("coherent-store-under-dma-enqueue", lambda ns: (
                 ns[_COHERENT_STORE]
                 < ns["descriptor DMA enqueue (driver)"]))),
    # E9 — nested RPCs over continuation end-points.
    *_claims("e9", "§6", _by("stack", "p50_rtt_ns"),
             ("p50-lauberhorn-2.5x-under-linux",
              lambda p50: p50["lauberhorn"] < p50["linux"] / 2.5),
             ("p50-lauberhorn-under-15us",
              lambda p50: p50["lauberhorn"] < 15_000)),
    # E10 — Figure 4's steady state: one fill, one recall, no upgrade.
    *_claims("e10", "Figure 4", lambda value: value,
             ("one-fill", lambda r: r["fills_per_request"] == 1.0),
             ("one-recall", lambda r: r["recalls_per_request"] == 1.0),
             ("no-upgrades", lambda r: r["upgrades_per_request"] == 0.0),
             ("two-line-transfers",
              lambda r: r["line_transfers_per_request"] == 2.0)),
    # E11 — the design space: Lauberhorn < bypass < Snap < Linux.
    *_claims("e11", "§2", _by("stack", "p50_rtt_ns"),
             ("p50-lauberhorn-under-bypass",
              lambda p50: p50["lauberhorn"] < p50["bypass"]),
             ("p50-bypass-under-snap",
              lambda p50: p50["bypass"] < p50["snap"]),
             ("p50-snap-under-linux",
              lambda p50: p50["snap"] < p50["linux"])),
    *_claims("e11", "§2", _by("stack", "busy_ns_per_request"),
             ("cpu-lauberhorn-3x-under-every-software-stack",
              lambda busy: busy["lauberhorn"] * 3 < min(
                  busy["bypass"], busy["snap"], busy["linux"]))),
    # E12 — deserialisation offload; NIC vs host crypto.
    *_claims("e12", "DESIGN.md §6", _by("config", part=0),
             ("offload-cpu-1.5x-under-software", lambda c: (
                 c["lauberhorn"]["busy_ns_per_request"]
                 < c["lauberhorn+sw-unmarshal"]["busy_ns_per_request"] / 1.5)),
             ("offload-p50-under-software", lambda c: (
                 c["lauberhorn"]["p50_rtt_ns"]
                 < c["lauberhorn+sw-unmarshal"]["p50_rtt_ns"]))),
    *_claims("e12", "DESIGN.md §6", _by("config", "p50_rtt_ns", 1),
             ("nic-crypto-adds-under-500ns-p50", lambda p50: (
                 p50["lauberhorn+encrypted"] - p50["lauberhorn"] < 500)),
             ("host-crypto-adds-over-500ns-p50", lambda p50: (
                 p50["linux+encrypted"] > p50["linux"] + 500))),
    *_claims("e12", "DESIGN.md §6", _by("config", "busy_ns_per_request", 1),
             ("nic-crypto-adds-under-50ns-cpu", lambda busy: abs(
                 busy["lauberhorn+encrypted"] - busy["lauberhorn"]) < 50),
             ("host-crypto-adds-over-500ns-cpu", lambda busy: (
                 busy["linux+encrypted"] > busy["linux"] + 500))),
    # E13 — NIC telemetry separates a cold service from a hot one.
    *_claims("e13", "§6", lambda value: value,
             ("completed-20", lambda t: t["completed"] == 20),
             ("kernel-dispatch-half",
              lambda t: t["kernel_dispatch_fraction"] == 0.5),
             ("cold-service-p50-1.5x-over-hot", lambda t: (
                 t["stages"]["cold"]["service"]["p50"]
                 > t["stages"]["hot"]["service"]["p50"] * 1.5))),
    # E14 — peak throughput per core; end-point scaling (extension).
    *_claims("e14", "extension", _by("config", "completed", 0),
             ("all-complete-300",
              lambda done: all(n == 300 for n in done.values()))),
    *_claims("e14", "extension", _per_core,
             ("per-core-lauberhorn-bypass-linux-order", lambda rate: (
                 rate["lauberhorn"] > rate["bypass"] > rate["linux"])),
             ("per-core-linux-over-50k", lambda rate: rate["linux"] > 50e3),
             ("per-core-lauberhorn-over-500k",
              lambda rate: rate["lauberhorn"] > 500e3)),
    *_claims("e14", "extension", lambda value: [
                 ThroughputResult(**row).requests_per_sec for row in value[1]],
             ("scaling-increasing",
              lambda rate: rate[0] < rate[1] < rate[2]),
             ("scaling-4-cores-over-2.5x",
              lambda rate: rate[2] > rate[0] * 2.5)),
    # E15 — latency vs offered load (extension).
    *_claims("e15", "extension", lambda value: {
                 (row["stack"], row["rate_per_sec"]): row["p50_ns"]
                 for row in value},
             ("p50-lauberhorn-bypass-linux-order@50k", lambda p50: (
                 p50[("lauberhorn", 50e3)] < p50[("bypass", 50e3)]
                 < p50[("linux", 50e3)])),
             ("linux-saturates@600k", lambda p50: (
                 p50[("linux", 600e3)] > p50[("linux", 50e3)] * 5)),
             ("bypass-flat@600k", lambda p50: (
                 p50[("bypass", 600e3)] < p50[("bypass", 50e3)] * 1.5)),
             ("lauberhorn-flat@600k", lambda p50: (
                 p50[("lauberhorn", 600e3)]
                 < p50[("lauberhorn", 50e3)] * 1.5))),
    *_claims("e15", "extension", lambda value: value,
             ("all-complete-250",
              lambda rows: all(row["completed"] == 250 for row in rows))),
    # E16 — the IOMMU tax grows with IOTLB pressure.
    *_claims("e16", "§3", _by("config", "rtt_ns"),
             ("rtt-trusted-resident-thrash-strict-order", lambda rtt: (
                 rtt[_TRUSTED] < rtt[_RESIDENT] < rtt[_THRASH]
                 < rtt[_STRICT])),
             ("resident-tax-under-10pct",
              lambda rtt: rtt[_RESIDENT] < rtt[_TRUSTED] * 1.10),
             ("thrash-tax-over-15pct",
              lambda rtt: rtt[_THRASH] > rtt[_TRUSTED] * 1.15),
             ("strict-tax-over-25pct",
              lambda rtt: rtt[_STRICT] > rtt[_TRUSTED] * 1.25)),
    *_claims("e16", "§3", _by("config", "iotlb_hit_rate"),
             ("resident-hit-rate-over-0.95",
              lambda hits: hits[_RESIDENT] > 0.95),
             ("thrash-hit-rate-under-0.80",
              lambda hits: hits[_THRASH] < 0.80)),
    # E17 — serverless consolidation: Lauberhorn wins median, tail, CPU.
    *_claims("e17", "§1", _by("stack"),
             ("same-trace-over-200", lambda s: (
                 s["lauberhorn"]["invocations"] == s["linux"]["invocations"]
                 > 200)),
             ("p50-lauberhorn-1.5x-under-linux", lambda s: (
                 s["lauberhorn"]["p50_ns"] < s["linux"]["p50_ns"] / 1.5)),
             ("p99-lauberhorn-1.5x-under-linux", lambda s: (
                 s["lauberhorn"]["p99_ns"] < s["linux"]["p99_ns"] / 1.5)),
             ("cpu-lauberhorn-1.5x-under-linux", lambda s: (
                 s["lauberhorn"]["busy_ns_per_invocation"]
                 < s["linux"]["busy_ns_per_invocation"] / 1.5)),
             ("kernel-dispatch-under-0.7", lambda s: (
                 s["lauberhorn"]["kernel_dispatch_fraction"] < 0.7))),
    # E18 — Lauberhorn wins at every plausible coherent-link latency.
    *_claims("e18", "§4", lambda value: {
                 row["one_way_ns"]: SensitivityPoint(**row)
                 for row in value[0]},
             ("lauberhorn-wins@125ns", lambda p: p[125].lauberhorn_wins),
             ("lauberhorn-wins@350ns", lambda p: p[350].lauberhorn_wins),
             ("lauberhorn-wins@700ns", lambda p: p[700].lauberhorn_wins)),
    *_claims("e18", "§4", lambda value: value[0],
             ("rtt-monotone", lambda points: _nondecreasing(
                 [point["lauberhorn_rtt_ns"] for point in points]))),
    *_claims("e18", "§4", lambda value: value[1],
             ("break-even-found", lambda one_way: one_way is not None),
             ("break-even-at-least-1000ns",
              lambda one_way: one_way >= 1000)),
)


def check_claims(values: dict[str, Any]) -> list[str]:
    """Ids of the claims broken by ``values`` (experiment -> JSON value).

    Only the claims of experiments in ``values`` are checked; a value a
    predicate cannot read (a missing row, a wrong type) breaks it.
    """
    broken = []
    for claim in CLAIMS:
        if claim.experiment not in values:
            continue
        try:
            held = claim.holds(values[claim.experiment])
        except (LookupError, StopIteration, TypeError, ValueError):
            held = False
        if not held:
            broken.append(claim.id)
    return broken
