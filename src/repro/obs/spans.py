"""Request-scoped spans with parent links (a Dapper-style tree).

A :class:`SpanRecorder` stitches one request's journey across the
client, the wire, the NIC, and the OS into one tree: the client opens
a *root* span per request and injects its context — a ``(trace_id,
span_id)`` pair — into ``Frame.meta`` under the ``"obs"`` key; the
frame's metadata already flows through every stack (the NIC
copies it into descriptors/decoded requests, the kernel into datagrams,
workers into responses), so each layer can attach child spans without
any new plumbing of its own.

Two kinds of span creation:

* ``start()``/``finish()`` for intervals bracketed in one component
  (the root RPC span, the Lauberhorn dispatch/service windows);
* ``record()`` for intervals *synthesized* after the fact from
  timestamps that already exist (wire time from ``Frame.born_ns``,
  queue waits from stamps components leave in ``meta``).

Recording never touches the simulator: spans are pure Python
bookkeeping, so arming a run cannot perturb simulated time.  The
disabled path is the absence of a recorder — call sites hold
``self.obs = None`` and guard with one ``is None`` test.

Internal timestamps components stash in ``meta`` use keys starting
with ``"_obs"``; :func:`public_meta` strips them when a frame leaves
the host so wire metadata stays clean.
"""

from __future__ import annotations

from typing import Any, Iterator, Optional

__all__ = ["Span", "SpanRecorder", "public_meta"]

#: Frame/request metadata key carrying the (trace_id, span_id) context.
CTX_KEY = "obs"


def public_meta(meta: dict) -> dict:
    """``meta`` without the recorder's internal ``_obs*`` stamps."""
    if any(key.startswith("_obs") for key in meta):
        return {k: v for k, v in meta.items() if not k.startswith("_obs")}
    return meta


class Span:
    """One named interval in one layer of one request's life."""

    __slots__ = ("trace_id", "span_id", "parent_id", "name", "layer",
                 "start_ns", "end_ns", "fields")

    def __init__(self, trace_id: int, span_id: int, parent_id: Optional[int],
                 name: str, layer: str, start_ns: float,
                 end_ns: Optional[float] = None,
                 fields: Optional[dict] = None):
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.layer = layer
        self.start_ns = start_ns
        self.end_ns = end_ns
        self.fields = fields or {}

    @property
    def finished(self) -> bool:
        return self.end_ns is not None

    @property
    def duration_ns(self) -> float:
        if self.end_ns is None:
            raise ValueError(f"span {self.name!r} is still open")
        return self.end_ns - self.start_ns

    @property
    def ctx(self) -> tuple[int, int]:
        """The context to propagate for children of this span."""
        return (self.trace_id, self.span_id)

    def as_dict(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "layer": self.layer,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "fields": dict(self.fields),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = f"{self.duration_ns:.0f}ns" if self.finished else "open"
        return (f"<Span {self.name} trace={self.trace_id} "
                f"id={self.span_id} {state}>")


class SpanRecorder:
    """Collects span trees for every traced request in a run."""

    def __init__(self, sim):
        self.sim = sim
        self.spans: list[Span] = []
        self._by_id: dict[int, Span] = {}
        self._next_trace_id = 1
        self._next_span_id = 1
        #: optional :class:`repro.obs.flight.FlightRecorder`; when set,
        #: span opens/closes also land in the flight ring (one ``is
        #: None`` test per span event, host-side only)
        self.flight = None
        #: optional :class:`repro.obs.slo.SLOTracker`; when set, root
        #: span opens/closes feed its error-budget ledgers (same one
        #: ``is None`` convention, host-side only)
        self.slo = None
        #: when True, the Lauberhorn demux annotates each root span
        #: with the serving (host, tenant, service) via
        #: :meth:`annotate`.  Off by default so pre-existing armed
        #: artifacts (and their golden digests) are byte-identical.
        self.tag_origin = False

    # -- creation -------------------------------------------------------------

    def _new(self, trace_id: int, parent_id: Optional[int], name: str,
             layer: str, start_ns: float, end_ns: Optional[float],
             fields: dict) -> Span:
        span = Span(trace_id, self._next_span_id, parent_id, name, layer,
                    start_ns, end_ns, fields)
        self._next_span_id += 1
        self.spans.append(span)
        self._by_id[span.span_id] = span
        flight = self.flight
        if flight is not None:
            flight.note("span.open" if end_ns is None else "span",
                        name=name, layer=layer, trace_id=trace_id,
                        span_id=span.span_id)
        return span

    def start_trace(self, name: str, layer: str, **fields: Any) -> Span:
        """Open the root span of a fresh trace (one per request)."""
        trace_id = self._next_trace_id
        self._next_trace_id += 1
        span = self._new(trace_id, None, name, layer, self.sim.now, None,
                         fields)
        slo = self.slo
        if slo is not None:
            slo.note_root_start(span)
        return span

    def start(self, name: str, layer: str, ctx: tuple[int, int],
              **fields: Any) -> Span:
        """Open a child span under the propagated ``ctx``."""
        trace_id, parent_id = ctx
        return self._new(trace_id, parent_id, name, layer, self.sim.now,
                         None, fields)

    def finish(self, span: Span, **fields: Any) -> float:
        """Close an open span at the current sim time; returns duration."""
        if span.end_ns is not None:
            raise ValueError(f"span {span.name!r} already closed")
        span.end_ns = self.sim.now
        if fields:
            span.fields.update(fields)
        flight = self.flight
        if flight is not None:
            flight.note("span.close", name=span.name, layer=span.layer,
                        trace_id=span.trace_id, span_id=span.span_id,
                        duration_ns=span.duration_ns)
        slo = self.slo
        if slo is not None and span.parent_id is None:
            slo.observe_root(span)
        return span.duration_ns

    def record(self, name: str, layer: str, ctx: tuple[int, int],
               start_ns: float, end_ns: float, **fields: Any) -> Span:
        """Record an already-elapsed interval (synthesized span)."""
        trace_id, parent_id = ctx
        return self._new(trace_id, parent_id, name, layer, start_ns, end_ns,
                         fields)

    def annotate(self, ctx: tuple[int, int], **fields: Any) -> None:
        """Attach fields to the span addressed by ``ctx``.

        Used by the Lauberhorn demux (when :attr:`tag_origin` is on)
        to stamp the *root* span with the serving host, the tenant
        resolved from the service, and the service name — the root's
        span id is exactly what rides in ``Frame.meta["obs"]``.  Pure
        bookkeeping: never touches the simulator.
        """
        span = self._by_id.get(ctx[1])
        if span is not None:
            span.fields.update(fields)

    # -- queries --------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.spans)

    def traces(self) -> dict[int, list[Span]]:
        """Spans grouped by trace id, in recording order."""
        grouped: dict[int, list[Span]] = {}
        for span in self.spans:
            grouped.setdefault(span.trace_id, []).append(span)
        return grouped

    def roots(self) -> Iterator[Span]:
        return (span for span in self.spans if span.parent_id is None)

    def open_spans(self) -> list[Span]:
        return [span for span in self.spans if not span.finished]

    def children_of(self, span: Span) -> list[Span]:
        return [s for s in self.spans
                if s.parent_id == span.span_id and s.trace_id == span.trace_id]

    # -- integrity ------------------------------------------------------------

    def check_integrity(self, require_closed: bool = True) -> list[str]:
        """Structural violations of the span-tree invariants.

        Every non-root span's parent must exist *in the same trace*;
        every trace must have exactly one root; spans must not end
        before they start; and (unless ``require_closed`` is False, for
        runs cut short by faults or timeouts) every span must be
        closed.  Returns human-readable violations; empty means clean.
        """
        problems: list[str] = []
        for span in self.spans:
            if span.parent_id is not None:
                parent = self._by_id.get(span.parent_id)
                if parent is None:
                    problems.append(
                        f"span {span.span_id} ({span.name}): parent "
                        f"{span.parent_id} does not exist")
                elif parent.trace_id != span.trace_id:
                    problems.append(
                        f"span {span.span_id} ({span.name}): parent in "
                        f"trace {parent.trace_id}, not {span.trace_id}")
            if span.finished and span.end_ns < span.start_ns:
                problems.append(
                    f"span {span.span_id} ({span.name}): ends "
                    f"{span.start_ns - span.end_ns:.0f} ns before it starts")
            if require_closed and not span.finished:
                problems.append(
                    f"span {span.span_id} ({span.name}) in trace "
                    f"{span.trace_id} was never closed")
        for trace_id, spans in self.traces().items():
            n_roots = sum(1 for s in spans if s.parent_id is None)
            if n_roots != 1:
                problems.append(
                    f"trace {trace_id}: {n_roots} root spans (want 1)")
        return problems
