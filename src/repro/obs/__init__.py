"""Observability: event tracing, time-series metrics, and profiling.

The simulator's window into *mechanisms*, not just end-of-run
aggregates:

* :mod:`repro.obs.events` — the typed event-record schema (JSONL), the
  single source of truth for event serialization;
* :mod:`repro.obs.tracer` — zero-cost-when-disabled structured tracer
  with a bounded ring buffer and a streaming JSONL sink;
* :mod:`repro.obs.perfetto` — Chrome trace-event exporter, so a run
  opens in ``ui.perfetto.dev`` with cores and d-groups as tracks;
* :mod:`repro.obs.metrics` — counter/histogram registry with
  interval sampling into an exportable time-series;
* :mod:`repro.obs.profiler` — wall-clock timers around the simulator's
  hot paths.
"""

from repro.obs.events import TraceEvent, read_jsonl, validate_jsonl
from repro.obs.metrics import (
    Counter,
    Histogram,
    MetricsCollector,
    MetricsRegistry,
    MetricsSeries,
)
from repro.obs.perfetto import export_chrome_trace, export_jsonl, validate_chrome_trace
from repro.obs.profiler import Profiler
from repro.obs.tracer import NO_TRACE, NullTracer, Tracer

__all__ = [
    "Counter",
    "Histogram",
    "MetricsCollector",
    "MetricsRegistry",
    "MetricsSeries",
    "NO_TRACE",
    "NullTracer",
    "Profiler",
    "TraceEvent",
    "Tracer",
    "export_chrome_trace",
    "export_jsonl",
    "read_jsonl",
    "validate_chrome_trace",
    "validate_jsonl",
]
