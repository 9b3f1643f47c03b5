"""Discrete-event simulation substrate (S1 in DESIGN.md)."""

from .clock import GHZ, MS, NS, SEC, US, Frequency, bytes_time_ns
from .engine import (
    AllOf,
    AnyOf,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Simulator,
    Timeout,
)
from .profile import EngineProfile, ProfileSnapshot, attach_profile
from .resources import Gate, PriorityStore, Resource, Store
from .rng import RngRegistry

__all__ = [
    "AllOf",
    "AnyOf",
    "EngineProfile",
    "Event",
    "Frequency",
    "GHZ",
    "Gate",
    "ProfileSnapshot",
    "Interrupt",
    "MS",
    "NS",
    "PriorityStore",
    "Process",
    "Resource",
    "RngRegistry",
    "SEC",
    "SimulationError",
    "Simulator",
    "Store",
    "Timeout",
    "US",
    "attach_profile",
    "bytes_time_ns",
]
