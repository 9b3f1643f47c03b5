"""Measurement utilities: latency, energy, CPU cycles (S13)."""

from .cycles import CycleWindow, PerRequestCost
from .energy import EnergyBreakdown, PowerParams, core_energy, machine_energy
from .histogram import LatencyRecorder, LatencySummary, nearest_rank, percentile
from .stats import MeanCI, bootstrap_ci, mean, stddev, t_confidence_interval

__all__ = [
    "CycleWindow",
    "EnergyBreakdown",
    "LatencyRecorder",
    "LatencySummary",
    "PerRequestCost",
    "PowerParams",
    "core_energy",
    "machine_energy",
    "nearest_rank",
    "percentile",
    "MeanCI",
    "bootstrap_ci",
    "mean",
    "stddev",
    "t_confidence_interval",
]
