"""Experiment harness (S14): testbeds and one module per paper artifact.

The individual experiments (E1-E25) live in their own modules and are
indexed by :data:`repro.exp.jobs.EXPERIMENT_SPECS`, which
``python -m repro.experiments.run_all`` runs; this package imports only
the testbeds, to keep testbed imports light.
"""

from .testbed import (
    SERVER_IP,
    SERVER_MAC,
    Testbed,
    build_bypass_testbed,
    build_lauberhorn_testbed,
    build_linux_testbed,
    serve,
)

__all__ = [
    "SERVER_IP",
    "SERVER_MAC",
    "Testbed",
    "build_bypass_testbed",
    "build_lauberhorn_testbed",
    "build_linux_testbed",
    "serve",
]
