"""Machine assembly: cores + interconnect + coherence.

A :class:`Machine` is the root object every experiment builds: it owns
the simulator, the cores, the device link, and (when the interconnect
is cache-coherent) the coherence fabric.  NIC models and the OS model
attach to it.
"""

from __future__ import annotations

from typing import Optional

from ..sim.engine import Simulator
from ..sim.rng import RngRegistry
from .address import AddressAllocator
from .coherence import CoherenceFabric
from .core import Core
from .interconnect import DeviceLink
from .params import MachineParams

__all__ = ["Machine"]


class Machine:
    """A simulated server: cores, caches, interconnect, clock."""

    def __init__(
        self,
        params: MachineParams,
        seed: int = 0,
        sim: Optional[Simulator] = None,
        faults=None,
    ):
        self.params = params
        # Multi-machine setups share one simulator (one virtual clock).
        self.sim = sim if sim is not None else Simulator()
        self.rng = RngRegistry(seed)
        self.alloc = AddressAllocator()
        self.link = DeviceLink(self.sim, params.interconnect)
        self.fabric: Optional[CoherenceFabric] = (
            CoherenceFabric(self.sim, params.interconnect)
            if params.interconnect.coherent
            else None
        )
        self.cores = [
            Core(
                self.sim,
                core_id,
                params.core,
                params.cache,
                fabric=self.fabric,
            )
            for core_id in range(params.n_cores)
        ]
        # Fault injection: an explicit plan wins; otherwise consult the
        # ambient one (repro.faults.active / the REPRO_FAULTS env var).
        # A machine built with no plan anywhere carries faults=None and
        # executes exactly the pre-fault code paths.
        if faults is None:
            from ..faults.context import active_plan

            faults = active_plan()
        self.faults = faults if faults is not None and faults.active else None
        self.fault_stats = None
        if self.faults is not None:
            from ..faults.inject import install_machine_faults

            install_machine_faults(self, self.faults)

    @property
    def coherent(self) -> bool:
        return self.fabric is not None

    @property
    def n_cores(self) -> int:
        return len(self.cores)

    def run(self, until=None):
        """Run the machine's simulator (see :meth:`Simulator.run`)."""
        return self.sim.run(until=until)

    def bind_metrics(self, registry, prefix: str = "machine") -> None:
        """Register machine-wide and per-core counters as live probes
        on a :class:`repro.obs.MetricsRegistry` (read at snapshot time,
        never on the data path)."""
        registry.probe(prefix, lambda: {
            "busy_ns": self.total_busy_ns(),
            "stall_ns": self.total_stall_ns(),
            "instructions": self.total_instructions(),
            "now_ns": self.sim.now,
            # Live event-queue depth: a window probe for the
            # time-series layer (pending timers track in-flight work).
            "event_queue": self.sim.pending_timers,
        })
        for core in self.cores:
            registry.bind(f"{prefix}.core{core.id}", core.counters)

    def total_busy_ns(self) -> float:
        return sum(core.counters.busy_ns for core in self.cores)

    def total_stall_ns(self) -> float:
        return sum(core.counters.stall_ns for core in self.cores)

    def total_instructions(self) -> int:
        return sum(core.counters.instructions for core in self.cores)
