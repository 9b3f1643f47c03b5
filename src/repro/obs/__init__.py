"""Request-scoped observability: spans, metrics, exporters.

Section 6 of the paper argues the NIC-as-OS design can emit a complete
per-RPC timeline because the NIC sees every stage of a request's life.
This package generalises that story to *all* the reproduction's stacks:

* :mod:`repro.obs.spans` — a Dapper-style span layer: every request
  gets a trace id at the client, and each layer it crosses (client →
  wire → NIC rx → dispatch/softirq → handler → egress → wire) records
  child spans with parent links, so one RPC yields a real tree.
* :mod:`repro.obs.metrics` — a process-wide :class:`MetricsRegistry`
  (counters/gauges/histograms with a single ``snapshot()`` dict) that
  absorbs the ad-hoc stats scattered across ``hw/``, ``os/``,
  ``net/link.py``, and the NIC models.
* :mod:`repro.obs.export` — Chrome-trace/Perfetto JSON (loadable at
  ``ui.perfetto.dev``) plus text flame/critical-path summaries.
* :mod:`repro.obs.timeseries` — a Monarch-style windowed sampler: a
  sim-timer reads the registry snapshot every W ns into a bounded ring
  of fixed-width windows (exact ``dropped_windows`` accounting), with
  derived per-window rates for counters.
* :mod:`repro.obs.flight` — a bounded flight recorder of recent
  annotated events (span opens/closes, fault injections, scheduler
  decisions, Tryagain bounces) that the invariant checker dumps to
  JSON the moment a violation is recorded.
* :mod:`repro.obs.tail` — tail forensics: joins p99/p99.9 span trees
  with the time-series windows they overlap, attributing each slow
  request to the concurrent system state — grouped by (host, tenant)
  when the Lauberhorn demux tags span origins.
* :mod:`repro.obs.slo` — per-tenant/per-service SLOs in simulated
  time: error-budget ledgers and multi-window burn-rate alerts fed
  from root-span completions and sampler windows.
* :mod:`repro.obs.flame` — exact simulated-ns flamegraph folding of
  span trees (collapsed-stack + speedscope exporters) and a host-CPU
  slice profiler over the engine run loop.
* :mod:`repro.obs.instrument` — one-call arming of a
  :class:`~repro.experiments.testbed.Testbed`.

Spans do Python-level bookkeeping only — they never advance simulated
time — so an armed run produces bit-identical simulation results to an
unarmed one (experiment E20 checks exactly this), and the disabled
path is a single ``is None`` test per hook.
"""

from .export import (
    chrome_trace_events,
    export_chrome_trace,
    render_critical_path,
    render_stage_summary,
    validate_chrome_trace,
)
from .flame import (
    FlameProfile,
    HostCpuProfiler,
    diff_stacks,
    fold_spans,
    render_collapsed,
    speedscope_json,
    validate_speedscope,
)
from .flight import FlightRecorder
from .instrument import arm_flight, arm_testbed, bind_testbed_metrics
from .metrics import REGISTRY, Counter, Gauge, MetricsCollision, MetricsRegistry
from .slo import SLOAlert, SLOSpec, SLOTracker
from .spans import Span, SpanRecorder, public_meta
from .tail import (
    render_tail_report,
    slow_roots,
    slow_roots_by_group,
    tail_report,
)
from .timeseries import TimeSeriesSampler, Window

__all__ = [
    "Span",
    "SpanRecorder",
    "public_meta",
    "Counter",
    "Gauge",
    "MetricsRegistry",
    "MetricsCollision",
    "REGISTRY",
    "TimeSeriesSampler",
    "Window",
    "FlightRecorder",
    "SLOSpec",
    "SLOAlert",
    "SLOTracker",
    "FlameProfile",
    "HostCpuProfiler",
    "fold_spans",
    "diff_stacks",
    "render_collapsed",
    "speedscope_json",
    "validate_speedscope",
    "slow_roots",
    "slow_roots_by_group",
    "tail_report",
    "render_tail_report",
    "chrome_trace_events",
    "export_chrome_trace",
    "validate_chrome_trace",
    "render_stage_summary",
    "render_critical_path",
    "arm_testbed",
    "arm_flight",
    "bind_testbed_metrics",
]
