"""Span exporters: Perfetto/Chrome-trace JSON and text summaries.

The JSON exporter emits the Chrome trace-event format (the ``"X"``
complete-event flavour), which ``ui.perfetto.dev`` and
``chrome://tracing`` both load directly: one *process* row per stack,
one *thread* row per trace (request), one slice per span.  Timestamps
are microseconds in that format; simulated nanoseconds are divided by
1000 and keep their fraction, so nothing is rounded away.

:func:`validate_chrome_trace` checks the payload against the schema's
invariants so CI can prove an exported artifact actually loads.
"""

from __future__ import annotations

import json
from typing import Any, Iterable, Optional

from .spans import Span

__all__ = [
    "chrome_trace",
    "chrome_trace_events",
    "export_chrome_trace",
    "validate_chrome_trace",
    "stage_attribution",
    "render_stage_summary",
    "render_critical_path",
]


def _span_iter(spans: Iterable) -> Iterable[Span]:
    for span in spans:
        if isinstance(span, dict):
            span = Span(
                trace_id=span["trace_id"], span_id=span["span_id"],
                parent_id=span.get("parent_id"), name=span["name"],
                layer=span["layer"], start_ns=span["start_ns"],
                end_ns=span.get("end_ns"), fields=span.get("fields"),
            )
        yield span


def chrome_trace_events(spans: Iterable, pid: int = 1,
                        process_name: str = "repro") -> list[dict]:
    """Spans (objects or ``Span.as_dict()`` dicts) as trace events."""
    events: list[dict] = [{
        "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
        "args": {"name": process_name},
    }]
    threads_named: set[int] = set()
    for span in _span_iter(spans):
        if not span.finished:
            continue
        tid = span.trace_id
        if tid not in threads_named:
            threads_named.add(tid)
            events.append({
                "ph": "M", "name": "thread_name", "pid": pid, "tid": tid,
                "args": {"name": f"trace {tid}"},
            })
        events.append({
            "ph": "X",
            "name": span.name,
            "cat": span.layer,
            "pid": pid,
            "tid": tid,
            "ts": span.start_ns / 1000.0,
            "dur": span.duration_ns / 1000.0,
            "args": {
                "trace_id": span.trace_id,
                "span_id": span.span_id,
                "parent_id": span.parent_id,
                **span.fields,
            },
        })
    return events


def chrome_trace(spans_by_process: dict) -> dict:
    """``{label: spans}`` groups as one Perfetto-loadable payload.

    Each label (e.g. a stack name) becomes its own process row.
    """
    events: list[dict] = []
    for pid, (label, spans) in enumerate(spans_by_process.items(), start=1):
        events.extend(chrome_trace_events(spans, pid=pid, process_name=label))
    return {"traceEvents": events, "displayTimeUnit": "ns"}


def export_chrome_trace(path: str, spans_by_process: dict) -> dict:
    """Write :func:`chrome_trace` to ``path``; returns the payload."""
    payload = chrome_trace(spans_by_process)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=1)
    return payload


def validate_chrome_trace(payload: Any) -> list[str]:
    """Chrome trace-event schema violations; empty list means valid."""
    problems: list[str] = []
    if not isinstance(payload, dict):
        return [f"payload is {type(payload).__name__}, not an object"]
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        return ["missing traceEvents array"]
    if not events:
        problems.append("traceEvents is empty")
    for index, event in enumerate(events):
        where = f"event {index}"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        phase = event.get("ph")
        if phase not in ("X", "M"):
            problems.append(f"{where}: unknown phase {phase!r}")
            continue
        if not isinstance(event.get("name"), str) or not event["name"]:
            problems.append(f"{where}: missing name")
        for key in ("pid", "tid"):
            if not isinstance(event.get(key), int):
                problems.append(f"{where}: {key} must be an integer")
        if phase == "M":
            args = event.get("args")
            if not isinstance(args, dict) or "name" not in args:
                problems.append(f"{where}: metadata event needs args.name")
            continue
        for key in ("ts", "dur"):
            value = event.get(key)
            if not isinstance(value, (int, float)):
                problems.append(f"{where}: {key} must be a number")
            elif value < 0:
                problems.append(f"{where}: {key} is negative ({value})")
        if not isinstance(event.get("cat"), str):
            problems.append(f"{where}: cat must be a string")
    return problems


# -- text summaries -----------------------------------------------------------


def stage_attribution(spans: Iterable) -> dict[str, tuple[int, float]]:
    """``{span name: (count, mean duration ns)}`` over finished spans."""
    totals: dict[str, list[float]] = {}
    for span in _span_iter(spans):
        if span.finished:
            totals.setdefault(span.name, []).append(span.duration_ns)
    return {
        name: (len(values), sum(values) / len(values))
        for name, values in totals.items()
    }


def render_stage_summary(spans: Iterable, title: str = "spans") -> str:
    """A flame-style text summary: per-stage counts, means, shares."""
    spans = list(_span_iter(spans))
    attribution = stage_attribution(spans)
    if not attribution:
        return f"{title}: no finished spans"
    grand_total = sum(count * mean for count, mean in attribution.values())
    lines = [f"{title} — stage attribution",
             f"{'stage':<14} {'count':>6} {'mean ns':>12} {'share':>7}"]
    ranked = sorted(attribution.items(),
                    key=lambda item: item[1][0] * item[1][1], reverse=True)
    for name, (count, mean) in ranked:
        share = 100.0 * count * mean / grand_total if grand_total else 0.0
        lines.append(f"{name:<14} {count:>6} {mean:>12.1f} {share:>6.1f}%")
    return "\n".join(lines)


def render_critical_path(spans: Iterable,
                         trace_id: Optional[int] = None) -> str:
    """One trace's spans in start order, with inter-stage gaps."""
    chosen = [s for s in _span_iter(spans) if s.finished]
    if trace_id is None and chosen:
        trace_id = chosen[0].trace_id
    chosen = sorted((s for s in chosen if s.trace_id == trace_id),
                    key=lambda s: (s.start_ns, s.span_id))
    if not chosen:
        return f"trace {trace_id}: no finished spans"
    root = next((s for s in chosen if s.parent_id is None), chosen[0])
    lines = [f"trace {trace_id} — critical path "
             f"({root.name}: {root.duration_ns:.0f} ns)"]
    previous_end = None
    for span in chosen:
        if span is root:
            continue
        if previous_end is not None and span.start_ns > previous_end:
            lines.append(f"  {'(gap)':<14} {span.start_ns - previous_end:>10.1f} ns")
        lines.append(f"  {span.name:<14} {span.duration_ns:>10.1f} ns "
                     f"@ {span.start_ns:.0f}")
        previous_end = span.end_ns
    return "\n".join(lines)
