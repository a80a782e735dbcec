"""Reading and writing trace files.

Users with real traces (e.g. converted from Simics, gem5, or Pin) can
drive the simulators from them instead of the synthetic generators.
The format is one event per line::

    <core> <hex-address> <R|W> [gap] [colocated]

Lines starting with ``#`` and blank lines are ignored.  ``gap`` and
``colocated`` default to 0 (pure access trace).  The format is
deliberately trivial so converters are one-liners.
"""

from __future__ import annotations

import io
from pathlib import Path
from typing import IO, Iterable, Iterator, Optional, Union

from repro.common.types import Access, AccessType
from repro.cpu.system import TimedAccess

PathOrFile = Union[str, Path, IO[str]]


class TraceFormatError(ValueError):
    """A line of the trace file could not be parsed."""


def _parse_line(
    line: str, line_number: int, num_cores: "Optional[int]"
) -> "TimedAccess | None":
    text = line.strip()
    if not text or text.startswith("#"):
        return None
    fields = text.split()
    if not 3 <= len(fields) <= 5:
        raise TraceFormatError(
            f"line {line_number}: expected 3-5 fields, got {len(fields)}: {text!r}"
        )
    try:
        core = int(fields[0])
        address = int(fields[1], 16)
        gap = int(fields[3]) if len(fields) > 3 else 0
        colocated = int(fields[4]) if len(fields) > 4 else 0
    except ValueError as error:
        raise TraceFormatError(f"line {line_number}: {error}") from None
    kind = fields[2].upper()
    if kind not in ("R", "W"):
        raise TraceFormatError(
            f"line {line_number}: access type must be R or W, got {fields[2]!r}"
        )
    if core < 0 or address < 0:
        raise TraceFormatError(f"line {line_number}: negative core or address")
    if num_cores is not None and core >= num_cores:
        raise TraceFormatError(
            f"line {line_number}: core {core} is outside the "
            f"{num_cores}-core machine"
        )
    if gap < 0 or colocated < 0:
        raise TraceFormatError(f"line {line_number}: negative gap/colocated")
    access_type = AccessType.WRITE if kind == "W" else AccessType.READ
    return TimedAccess(Access(core, address, access_type), gap, colocated)


def read_trace(
    source: PathOrFile, num_cores: "Optional[int]" = None
) -> "Iterator[TimedAccess]":
    """Yield events from a trace file (streaming; constant memory).

    With ``num_cores``, a line naming a core outside the machine is a
    :class:`TraceFormatError` too.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as handle:
            yield from read_trace(handle, num_cores)
        return
    for line_number, line in enumerate(source, start=1):
        event = _parse_line(line, line_number, num_cores)
        if event is not None:
            yield event


def write_trace(events: "Iterable[TimedAccess]", destination: PathOrFile) -> int:
    """Write events in the trace format; returns the event count."""
    if isinstance(destination, (str, Path)):
        with open(destination, "w", encoding="utf-8") as handle:
            return write_trace(events, handle)
    count = 0
    destination.write("# repro trace: core address(hex) R|W gap colocated\n")
    for event in events:
        access = event.access
        kind = "W" if access.is_write else "R"
        destination.write(
            f"{access.core} {access.address:x} {kind} "
            f"{event.gap} {event.colocated}\n"
        )
        count += 1
    return count


def trace_to_string(events: "Iterable[TimedAccess]") -> str:
    """Render events as a trace-format string (tests, small traces)."""
    buffer = io.StringIO()
    write_trace(events, buffer)
    return buffer.getvalue()
