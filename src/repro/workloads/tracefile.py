"""Reading and writing trace files.

Users with real traces (e.g. converted from Simics, gem5, or Pin) can
drive the simulators from them instead of the synthetic generators.
The format is one event per line::

    <core> <hex-address> <R|W> [gap] [colocated]

Lines starting with ``#`` and blank lines are ignored.  ``gap`` and
``colocated`` default to 0 (pure access trace).  The format is
deliberately trivial so converters are one-liners.

A leading comment may name the machine the trace was recorded on::

    # machine: cores=16 bus_model=mesh

The harness writes it into every crash window it dumps, so
``repro trace run`` rebuilds that machine (:func:`read_machine`).
"""

from __future__ import annotations

import io
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, Optional, Tuple, Union

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


#: Prefix of the optional machine comment line.
MACHINE_PREFIX = "# machine:"


def read_machine(
    source: PathOrFile, resolve: "Callable[[str], str]"
) -> "Optional[Tuple[int, str]]":
    """The ``(cores, bus_model)`` a trace's machine line names, or None.

    Only the comment lines before the first event are searched.  The
    bus model is the one ``resolve`` maps the line's name to; a machine
    line that does not read ``cores=<N> bus_model=<name>``, or whose
    name ``resolve`` rejects with a :class:`ValueError`, is a
    :class:`TraceFormatError` naming its line.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as handle:
            return read_machine(handle, resolve)
    for line_number, line in enumerate(source, start=1):
        text = line.strip()
        if text and not text.startswith("#"):
            return None
        if not text.startswith(MACHINE_PREFIX):
            continue
        fields = dict(
            field.partition("=")[::2]
            for field in text[len(MACHINE_PREFIX):].split()
        )
        cores = fields.pop("cores", "")
        bus_model = fields.pop("bus_model", "")
        try:
            if fields or not cores.isdecimal() or int(cores) < 1:
                raise ValueError("expected 'cores=<N> bus_model=<name>'")
            return int(cores), resolve(bus_model)
        except ValueError as error:
            raise TraceFormatError(
                f"line {line_number}: malformed machine line {text!r}; {error}"
            ) from None
    return None


def write_trace(
    events: "Iterable[TimedAccess]",
    destination: PathOrFile,
    machine: "Optional[Tuple[int, str]]" = None,
) -> int:
    """Write events in the trace format; returns the event count.

    ``machine``, a ``(cores, bus_model)`` pair, adds the machine line.
    """
    if isinstance(destination, (str, Path)):
        with open(destination, "w", encoding="utf-8") as handle:
            return write_trace(events, handle, machine)
    count = 0
    destination.write("# repro trace: core address(hex) R|W gap colocated\n")
    if machine is not None:
        cores, bus_model = machine
        destination.write(
            f"{MACHINE_PREFIX} cores={cores} bus_model={bus_model}\n"
        )
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
