"""Chrome trace-event exporter: open a simulator run in Perfetto.

Converts a stream of :class:`~repro.obs.events.TraceEvent` records into
the Chrome trace-event JSON format (the ``traceEvents`` array form),
which ``ui.perfetto.dev`` and ``chrome://tracing`` both load directly.

Track mapping:

* **process "cores"** — one thread per core.  L2-reaching accesses
  render as complete ("X") slices whose duration is the access latency
  in cycles, so stalls are visible as slice width; protocol events
  (pointer returns, MESIC transitions, C-state writes) are instants on
  the issuing core's thread.
* **process "d-groups"** — one thread per d-group.  Block-movement
  events (replication, relocation, promotion, demotion, eviction,
  C-migration) are instants on the *destination* (or freed) d-group's
  thread, so capacity pressure and migration churn per d-group are
  visible at a glance.
* **process "system"** — thread 0 carries bus transactions, thread 1
  carries harness events (faults, invariant violations).

Timestamps are simulated cycles reported as microseconds (Perfetto
needs *some* time unit; one cycle = 1 µs keeps the numbers readable).
``step`` records are skipped — they duplicate the ``access`` outcomes
at L1 granularity and exist for replay, not visualization.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Optional

from repro.obs import events as ev
from repro.obs.events import TraceEvent, read_jsonl

PID_CORES = 1
PID_DGROUPS = 2
PID_SYSTEM = 3

TID_BUS = 0
TID_HARNESS = 1

#: Kinds rendered as instants on the destination d-group's thread.
_DGROUP_KINDS = frozenset(
    (ev.REPLICATION, ev.RELOCATION, ev.PROMOTION, ev.DEMOTION, ev.EVICTION,
     ev.C_MIGRATION)
)

#: Kinds rendered as instants on the issuing core's thread.
_CORE_KINDS = frozenset((ev.POINTER_RETURN, ev.TRANSITION, ev.C_WRITE))

#: Kinds rendered on the system process's harness thread (sweep
#: supervision events carry no core/d-group; the harness track keeps a
#: chaos run's retries/kills/quarantines on one timeline).
_HARNESS_KINDS = frozenset(
    (ev.FAULT, ev.VIOLATION, ev.RETRY, ev.QUARANTINE, ev.WORKER_DEATH)
)


def _metadata(pid: int, name: str, tid: "Optional[int]" = None,
              thread_name: "Optional[str]" = None) -> "Dict[str, Any]":
    if tid is None:
        return {"ph": "M", "pid": pid, "name": "process_name",
                "args": {"name": name}}
    return {"ph": "M", "pid": pid, "tid": tid, "name": "thread_name",
            "args": {"name": thread_name or name}}


def _args(event: TraceEvent) -> "Dict[str, Any]":
    args: "Dict[str, Any]" = dict(event.data)
    if event.address is not None:
        args["address"] = f"{event.address:#x}"
    if event.core is not None:
        args["core"] = event.core
    if event.dgroup is not None:
        args["dgroup"] = event.dgroup
    return args


def export_chrome_trace(
    trace_events: "Iterable[TraceEvent]", out_path: "Optional[str]" = None
) -> "Dict[str, Any]":
    """Build (and optionally write) a Chrome trace-event JSON payload."""
    out: "List[Dict[str, Any]]" = []
    cores_seen: "set[int]" = set()
    dgroups_seen: "set[int]" = set()
    bus_seen = harness_seen = False
    skipped = 0

    for event in trace_events:
        ts = float(event.cycle)
        if event.kind == ev.STEP:
            skipped += 1
            continue
        if event.kind == ev.ACCESS:
            core = event.core if event.core is not None else 0
            cores_seen.add(core)
            out.append(
                {
                    "ph": "X",
                    "pid": PID_CORES,
                    "tid": core,
                    "ts": ts,
                    "dur": max(float(event.data.get("latency", 0)), 1.0),
                    "name": f"L2 {event.data.get('miss_class', 'access')}",
                    "cat": "l2",
                    "args": _args(event),
                }
            )
            continue
        if event.kind in _DGROUP_KINDS and event.dgroup is not None:
            dgroups_seen.add(event.dgroup)
            out.append(
                {
                    "ph": "i",
                    "pid": PID_DGROUPS,
                    "tid": event.dgroup,
                    "ts": ts,
                    "s": "t",
                    "name": event.kind,
                    "cat": "movement",
                    "args": _args(event),
                }
            )
            continue
        if event.kind == ev.BUS:
            bus_seen = True
            out.append(
                {
                    "ph": "i",
                    "pid": PID_SYSTEM,
                    "tid": TID_BUS,
                    "ts": ts,
                    "s": "t",
                    "name": str(event.data.get("op", "bus")),
                    "cat": "bus",
                    "args": _args(event),
                }
            )
            continue
        if event.kind in _HARNESS_KINDS:
            harness_seen = True
            out.append(
                {
                    "ph": "i",
                    "pid": PID_SYSTEM,
                    "tid": TID_HARNESS,
                    "ts": ts,
                    "s": "g",
                    "name": event.kind,
                    "cat": "harness",
                    "args": _args(event),
                }
            )
            continue
        # Core-track instants: _CORE_KINDS plus anything unrecognized
        # (forward compatibility — a new kind still renders somewhere).
        core = event.core if event.core is not None else 0
        cores_seen.add(core)
        out.append(
            {
                "ph": "i",
                "pid": PID_CORES,
                "tid": core,
                "ts": ts,
                "s": "t",
                "name": event.kind,
                "cat": "protocol",
                "args": _args(event),
            }
        )

    metadata: "List[Dict[str, Any]]" = [_metadata(PID_CORES, "cores")]
    for core in sorted(cores_seen):
        metadata.append(_metadata(PID_CORES, "cores", core, f"core {core}"))
    if dgroups_seen:
        metadata.append(_metadata(PID_DGROUPS, "d-groups"))
        for dgroup in sorted(dgroups_seen):
            metadata.append(
                _metadata(PID_DGROUPS, "d-groups", dgroup, f"d-group {dgroup}")
            )
    if bus_seen or harness_seen:
        metadata.append(_metadata(PID_SYSTEM, "system"))
        if bus_seen:
            metadata.append(_metadata(PID_SYSTEM, "system", TID_BUS, "bus"))
        if harness_seen:
            metadata.append(
                _metadata(PID_SYSTEM, "system", TID_HARNESS, "harness")
            )

    payload: "Dict[str, Any]" = {
        "traceEvents": metadata + out,
        "displayTimeUnit": "ms",
        "otherData": {
            "source": "repro-sim",
            "time_unit": "1 simulated cycle = 1 us",
            "skipped_step_records": skipped,
        },
    }
    if out_path is not None:
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, separators=(",", ":"))
            handle.write("\n")
    return payload


def export_jsonl(jsonl_path: str, out_path: "Optional[str]" = None) -> "Dict[str, Any]":
    """Convert a recorded JSONL trace file to Chrome trace-event JSON."""
    return export_chrome_trace(read_jsonl(jsonl_path), out_path)


# ----------------------------------------------------------------------

_PHASES = frozenset(("M", "X", "i", "I", "C", "B", "E", "b", "e", "n", "s", "t", "f"))


def validate_chrome_trace(payload: object) -> "List[str]":
    """Check a payload against the Chrome trace-event schema.

    Covers the subset this exporter emits (plus the common phases), so
    tests and CI can assert an exported file will load in Perfetto.
    Returns a list of problems; empty means valid.
    """
    errors: "List[str]" = []
    if not isinstance(payload, dict):
        return [f"payload is {type(payload).__name__}, expected object"]
    trace_events = payload.get("traceEvents")
    if not isinstance(trace_events, list):
        return ["payload.traceEvents must be a list"]
    for index, entry in enumerate(trace_events):
        where = f"traceEvents[{index}]"
        if not isinstance(entry, dict):
            errors.append(f"{where}: not an object")
            continue
        phase = entry.get("ph")
        if phase not in _PHASES:
            errors.append(f"{where}: unknown phase {phase!r}")
            continue
        if not isinstance(entry.get("name"), str):
            errors.append(f"{where}: name must be a string")
        pid = entry.get("pid")
        if not isinstance(pid, int) or isinstance(pid, bool):
            errors.append(f"{where}: pid must be an integer")
        if phase == "M":
            if entry.get("name") not in ("process_name", "thread_name",
                                         "process_labels", "process_sort_index",
                                         "thread_sort_index"):
                errors.append(f"{where}: unknown metadata name {entry.get('name')!r}")
            continue
        ts = entry.get("ts")
        if not isinstance(ts, (int, float)) or isinstance(ts, bool) or ts < 0:
            errors.append(f"{where}: ts must be a non-negative number")
        tid = entry.get("tid")
        if tid is not None and (not isinstance(tid, int) or isinstance(tid, bool)):
            errors.append(f"{where}: tid must be an integer")
        if phase == "X":
            dur = entry.get("dur")
            if not isinstance(dur, (int, float)) or isinstance(dur, bool) or dur < 0:
                errors.append(f"{where}: X event dur must be a non-negative number")
        if phase in ("i", "I"):
            scope = entry.get("s", "t")
            if scope not in ("t", "p", "g"):
                errors.append(f"{where}: instant scope must be t/p/g, got {scope!r}")
        args = entry.get("args")
        if args is not None and not isinstance(args, dict):
            errors.append(f"{where}: args must be an object")
    return errors


__all__ = [
    "PID_CORES",
    "PID_DGROUPS",
    "PID_SYSTEM",
    "export_chrome_trace",
    "export_jsonl",
    "validate_chrome_trace",
]
