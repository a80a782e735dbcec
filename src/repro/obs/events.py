"""Typed trace-event records: the one serialization schema for events.

Every observable occurrence in a run — an L2 access outcome, a
controlled-replication pointer return, a MESIC transition, a capacity-
stealing promotion, a bus broadcast, a harness fault or invariant
violation — is recorded as one :class:`TraceEvent` and serialized as
one JSON object per line (JSONL).  The streaming trace sink and the
Perfetto exporter read and write this schema; nothing else in the
repository serializes these records.  (The harness's crash-window dumps
are workload trace files, :mod:`repro.workloads.tracefile`, not event
records.)

Record schema (one JSON object per ``.jsonl`` line)::

    {
      "kind":    str,          # one of KINDS below
      "cycle":   int,          # issuing core's cycle (virtual clock)
      "core":    int | null,   # issuing/holding core, if any
      "address": int | null,   # block address, if any
      "dgroup":  int | null,   # d-group acted on, if any
      "data":    object        # kind-specific payload (see KINDS)
    }

Kinds and their ``data`` payloads:

================  =====================================================
``step``          one workload event presented to the system —
                  replayable: ``{type, sharing, gap, colocated}``
``access``        L2-reaching access outcome:
                  ``{type, miss_class, latency, distance}``
``pointer-return``  CR first use: tag-only copy; ``dgroup`` names the
                  supplier's d-group
``replication``   CR second use: data copied into ``dgroup``
``transition``    MESIC state change: ``{from, to, trigger}``
``c-write``       ISC write hit in C: in-place write-through
``relocation``    ISC read miss on dirty: copy moved to ``dgroup``;
                  ``{from_dgroup}``
``c-migration``   C-block migration extension: ``{from_dgroup}``
``promotion``     CS promotion into ``dgroup``: ``{from_dgroup}``
``demotion``      CS demotion into ``dgroup``: ``{from_dgroup}``
``eviction``      distance replacement freed a frame in ``dgroup``:
                  ``{shared, dirty}``
``bus``           one bus broadcast: ``{op}`` (BusRd, BusRdX, BusUpg,
                  BusRepl, WrThru)
``fault``         harness fault injection:
                  ``{fault, at_index, applied, description}``
``violation``     invariant violation: ``{invariant, access_index,
                  detail, dump_path}``
``retry``         sweep supervision re-queued a failed cell:
                  ``{cell, attempt, backoff_seconds, after}``
``quarantine``    a cell exhausted its retries and was skipped:
                  ``{cell, attempts, last_failure}``
``worker-death``  a sweep worker process died or was SIGKILLed:
                  ``{cell, reason | exitcode, attempt}``
``shard-corrupt`` an unreadable shard journal was quarantined:
                  ``{shard, quarantined_to}``
================  =====================================================
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterator, List, Optional, Tuple

# Event kind constants (module-level so hot paths avoid enum overhead).
STEP = "step"
ACCESS = "access"
POINTER_RETURN = "pointer-return"
REPLICATION = "replication"
TRANSITION = "transition"
C_WRITE = "c-write"
RELOCATION = "relocation"
C_MIGRATION = "c-migration"
PROMOTION = "promotion"
DEMOTION = "demotion"
EVICTION = "eviction"
BUS = "bus"
FAULT = "fault"
VIOLATION = "violation"
RETRY = "retry"
QUARANTINE = "quarantine"
WORKER_DEATH = "worker-death"
SHARD_CORRUPT = "shard-corrupt"

#: Every recognized event kind, in documentation order.
KINDS = frozenset(
    (
        STEP,
        ACCESS,
        POINTER_RETURN,
        REPLICATION,
        TRANSITION,
        C_WRITE,
        RELOCATION,
        C_MIGRATION,
        PROMOTION,
        DEMOTION,
        EVICTION,
        BUS,
        FAULT,
        VIOLATION,
        RETRY,
        QUARANTINE,
        WORKER_DEATH,
        SHARD_CORRUPT,
    )
)

#: Top-level record fields, in serialization order.
FIELDS = ("kind", "cycle", "core", "address", "dgroup", "data")


class TraceEvent:
    """One structured event record.

    A plain slotted class: tracing-enabled runs construct one of these
    per observable event, so construction cost matters.
    """

    __slots__ = FIELDS

    def __init__(
        self,
        kind: str,
        cycle: int = 0,
        core: "Optional[int]" = None,
        address: "Optional[int]" = None,
        dgroup: "Optional[int]" = None,
        data: "Optional[Dict[str, Any]]" = None,
    ) -> None:
        self.kind = kind
        self.cycle = cycle
        self.core = core
        self.address = address
        self.dgroup = dgroup
        self.data = data if data is not None else {}

    def to_dict(self) -> "Dict[str, Any]":
        return {
            "kind": self.kind,
            "cycle": self.cycle,
            "core": self.core,
            "address": self.address,
            "dgroup": self.dgroup,
            "data": self.data,
        }

    def to_json_line(self) -> str:
        return json.dumps(self.to_dict(), separators=(",", ":"))

    @staticmethod
    def from_dict(record: "Dict[str, Any]") -> "TraceEvent":
        errors = validate_record(record)
        if errors:
            raise ValueError("; ".join(errors))
        return TraceEvent(
            record["kind"],
            record.get("cycle", 0),
            record.get("core"),
            record.get("address"),
            record.get("dgroup"),
            record.get("data") or {},
        )

    def __repr__(self) -> str:
        return (
            f"TraceEvent({self.kind!r}, cycle={self.cycle}, core={self.core}, "
            f"address={self.address!r}, dgroup={self.dgroup}, data={self.data!r})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceEvent):
            return NotImplemented
        return self.to_dict() == other.to_dict()


def validate_record(record: object) -> "List[str]":
    """Return schema violations for one deserialized record (empty = ok)."""
    errors: "List[str]" = []
    if not isinstance(record, dict):
        return [f"record is {type(record).__name__}, expected object"]
    kind = record.get("kind")
    if kind not in KINDS:
        errors.append(f"unknown kind {kind!r}")
    cycle = record.get("cycle", 0)
    if not isinstance(cycle, int) or isinstance(cycle, bool) or cycle < 0:
        errors.append(f"cycle must be a non-negative integer, got {cycle!r}")
    for field in ("core", "address", "dgroup"):
        value = record.get(field)
        if value is not None and (not isinstance(value, int) or isinstance(value, bool)):
            errors.append(f"{field} must be an integer or null, got {value!r}")
    data = record.get("data", {})
    if not isinstance(data, dict):
        errors.append(f"data must be an object, got {type(data).__name__}")
    unknown = set(record) - set(FIELDS)
    if unknown:
        errors.append(f"unknown fields {sorted(unknown)}")
    return errors


def read_jsonl(path: str) -> "Iterator[TraceEvent]":
    """Yield the events of a JSONL trace file (raises on a bad record)."""
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as error:
                raise ValueError(f"{path}:{line_number}: not JSON: {error}") from None
            try:
                yield TraceEvent.from_dict(record)
            except ValueError as error:
                raise ValueError(f"{path}:{line_number}: {error}") from None


def validate_jsonl(path: str) -> "Tuple[int, List[str]]":
    """Validate every line of a JSONL trace; returns (count, errors).

    Unlike :func:`read_jsonl` this does not stop at the first bad
    record: it collects one message per invalid line so a CI job can
    report everything wrong with an emitted trace at once.
    """
    count = 0
    errors: "List[str]" = []
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            count += 1
            try:
                record = json.loads(line)
            except json.JSONDecodeError as error:
                errors.append(f"line {line_number}: not JSON: {error}")
                continue
            for problem in validate_record(record):
                errors.append(f"line {line_number}: {problem}")
    return count, errors


__all__ = [
    "ACCESS",
    "BUS",
    "C_MIGRATION",
    "C_WRITE",
    "DEMOTION",
    "EVICTION",
    "FAULT",
    "FIELDS",
    "KINDS",
    "POINTER_RETURN",
    "PROMOTION",
    "QUARANTINE",
    "RELOCATION",
    "REPLICATION",
    "RETRY",
    "SHARD_CORRUPT",
    "STEP",
    "TRANSITION",
    "TraceEvent",
    "VIOLATION",
    "WORKER_DEATH",
    "read_jsonl",
    "validate_jsonl",
    "validate_record",
]
