"""Structured event tracer: bounded ring buffer plus streaming JSONL sink.

Two cost regimes, chosen so tracing can stay compiled into every hot
path:

* **disabled** (the default) — components hold the :data:`NO_TRACE`
  singleton, whose ``enabled`` flag is ``False``.  Hot paths guard every
  emission with ``if self.tracer.enabled:``, so a disabled tracer costs
  one attribute load and one branch per potential event — no record is
  ever constructed;
* **enabled** — every event is appended to a bounded ring buffer (the
  most recent N events) and, when a sink is configured, streamed to a
  JSONL file so arbitrarily long runs can be traced without holding
  them in memory.

The ring buffer *overflows by design*: when full, the oldest event is
dropped (and counted in :attr:`Tracer.dropped`); the JSONL sink still
receives every event.
"""

from __future__ import annotations

import io
from collections import deque
from typing import Any, Dict, List, Optional, Union

from repro.obs.events import TraceEvent

#: Default ring capacity: enough context to diagnose a crash without
#: holding a long run in memory.
DEFAULT_CAPACITY = 65_536


class NullTracer:
    """The disabled tracer: emission is guarded out at every call site.

    ``emit`` methods still exist (and do nothing) so an unguarded call
    site is a bug in *performance*, not correctness; the overhead-guard
    test patches them to assert hot paths never reach one.
    """

    __slots__ = ()

    enabled = False
    dropped = 0
    emitted = 0

    def emit(self, kind: str, cycle: int = 0, core: "Optional[int]" = None,
             address: "Optional[int]" = None, dgroup: "Optional[int]" = None,
             **data: Any) -> None:
        """No-op (call sites must guard with ``if tracer.enabled:``)."""

    def emit_event(self, event: TraceEvent) -> None:
        """No-op (call sites must guard with ``if tracer.enabled:``)."""

    def events(self) -> "List[TraceEvent]":
        return []

    def close(self) -> None:
        pass

    def __reduce__(self):
        # Pickle back to the shared singleton so identity checks
        # (``tracer is NO_TRACE``) survive checkpoint round trips.
        return (_no_trace, ())


def _no_trace() -> "NullTracer":
    return NO_TRACE


#: Shared disabled tracer; every traceable component defaults to it.
NO_TRACE = NullTracer()


class Tracer:
    """Enabled tracer: ring buffer of recent events + optional JSONL sink.

    Args:
        capacity: ring-buffer size (most recent events kept in memory).
        sink: path of a JSONL file to stream every event to, or an open
            text file-like object, or None for ring-only tracing.
    """

    enabled = True

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        sink: "Union[str, io.TextIOBase, None]" = None,
    ) -> None:
        if capacity <= 0:
            raise ValueError(f"ring capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.ring: "deque[TraceEvent]" = deque(maxlen=capacity)
        self.emitted = 0
        self.dropped = 0
        self.sink_path: "Optional[str]" = None
        self._owns_sink = False
        if isinstance(sink, str):
            self.sink_path = sink
            self._sink: "Optional[io.TextIOBase]" = open(sink, "w", encoding="utf-8")
            self._owns_sink = True
        else:
            self._sink = sink

    # ------------------------------------------------------------------

    def emit(
        self,
        kind: str,
        cycle: int = 0,
        core: "Optional[int]" = None,
        address: "Optional[int]" = None,
        dgroup: "Optional[int]" = None,
        **data: Any,
    ) -> None:
        """Record one event (keyword extras become the ``data`` payload)."""
        self.emit_event(TraceEvent(kind, cycle, core, address, dgroup, data))

    def emit_event(self, event: TraceEvent) -> None:
        """Record an already-constructed event."""
        ring = self.ring
        if len(ring) == self.capacity:
            self.dropped += 1
        ring.append(event)
        self.emitted += 1
        if self._sink is not None:
            self._sink.write(event.to_json_line())
            self._sink.write("\n")

    # ------------------------------------------------------------------

    def events(self, kind: "Optional[str]" = None) -> "List[TraceEvent]":
        """The ring-buffer contents, oldest first (optionally one kind)."""
        if kind is None:
            return list(self.ring)
        return [event for event in self.ring if event.kind == kind]

    def tail(self, count: int) -> "List[TraceEvent]":
        """The most recent ``count`` ring-buffer events, oldest first."""
        if count <= 0:
            return []
        return list(self.ring)[-count:]

    def counts(self) -> "Dict[str, int]":
        """Ring-buffer event counts by kind (diagnostic summaries)."""
        out: "Dict[str, int]" = {}
        for event in self.ring:
            out[event.kind] = out.get(event.kind, 0) + 1
        return out

    def flush(self) -> None:
        if self._sink is not None:
            self._sink.flush()

    def close(self) -> None:
        """Flush and close the sink (ring contents stay readable)."""
        if self._sink is not None:
            self._sink.flush()
            if self._owns_sink:
                self._sink.close()
            self._sink = None

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


__all__ = ["DEFAULT_CAPACITY", "NO_TRACE", "NullTracer", "Tracer"]
