"""Design lanes over one shared event tape, for the benchmark.

:class:`EventTape` materializes one workload's event stream once into
columnar numpy arrays, and :class:`BatchKernel` runs each design
lane's own :class:`~repro.cpu.system.CmpSystem` over it with
:func:`~repro.harness.runner.run_events`, which runs every
warm-up-then-measure run, in its default (plain) configuration.  A
lane's ``SimulationStats.fingerprint()`` is therefore identical to a
run of the same (workload, design, seed, bus model) cell by
construction; ``tests/test_kernel_differential.py`` pins it.

The two classes serve the benchmark's ``fig10-batch`` workload
(``bench/workloads.py``) and nothing else: no sweep, command or plan
uses them.  The module goes when that workload does (ROADMAP item 3).

The tape replays in slices of :data:`~repro.workloads.base.BATCH`
events, so a lane never expands more than one generator chunk into
Python lists at a time.
"""

from __future__ import annotations

from array import array
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

import numpy as np

from repro.caches.design import L2Design
from repro.common.stats import SimulationStats
from repro.common.types import AccessType
from repro.cpu.system import SHARING_CLASSES, CmpSystem, EventChunk
from repro.harness.runner import run_events
from repro.workloads.base import BATCH

if TYPE_CHECKING:  # pragma: no cover
    from repro.cpu.system import TimedAccess

_SHARING_CODE = {sharing: code for code, sharing in enumerate(SHARING_CLASSES)}

#: (array typecode, numpy dtype) of the tape's columns, in
#: :meth:`EventChunk.columns` order: core, address, is-write, sharing,
#: gap, colocated.
_COLUMNS = (
    ("h", np.int16),
    ("q", np.int64),
    ("b", np.bool_),
    ("b", np.int8),
    ("i", np.int32),
    ("i", np.int32),
)


class EventTape:
    """One workload's event stream, materialized as columnar arrays.

    The columns are :class:`EventChunk`'s, built in ``array.array``
    buffers (so :meth:`from_events` can append one event at a time)
    and read through numpy views of the same memory.
    """

    __slots__ = ("n", "_columns")

    def __init__(self, columns: "Sequence[array]") -> None:
        self.n = len(columns[0])
        self._columns = tuple(
            np.frombuffer(column, dtype=dtype) if self.n
            else np.zeros(0, dtype=dtype)
            for column, (_, dtype) in zip(columns, _COLUMNS)
        )

    @classmethod
    def from_events(cls, events: "Iterable[TimedAccess]") -> "EventTape":
        """Consume timed accesses into a tape.

        Each event is appended as it arrives, so none outlives its
        turn (holding them for a bulk conversion costs more in garbage
        collection than it saves).
        """
        columns = [array(typecode) for typecode, _ in _COLUMNS]
        cores, addresses, writes, sharings, gaps, colocateds = columns
        write = AccessType.WRITE
        code = _SHARING_CODE
        for event in events:
            access = event.access
            cores.append(access.core)
            addresses.append(access.address)
            writes.append(access.type is write)
            sharings.append(code[access.sharing])
            gaps.append(event.gap)
            colocateds.append(event.colocated)
        return cls(columns)

    def _slices(self) -> "Iterator[EventChunk]":
        """The tape as :class:`EventChunk` views of :data:`BATCH` events."""
        for start in range(0, self.n, BATCH):
            yield EventChunk(
                *(column[start : start + BATCH] for column in self._columns)
            )


class BatchKernel:
    """Steps a group of design lanes over one shared event tape.

    Each lane is its design's own :class:`CmpSystem`, built here: lane
    construction is setup work, as ``CmpSystem(...)`` is for a single
    cell.
    """

    def __init__(self, designs: "Sequence[L2Design]") -> None:
        self.lanes = [CmpSystem(design) for design in designs]

    def run(self, tape: EventTape, warmup_events: int = 0) -> None:
        """Warm up, reset statistics, measure — one lane at a time."""
        for system in self.lanes:
            run_events(system, tape._slices(), warmup_events)

    def lane_stats(self, index: int) -> SimulationStats:
        """One lane's statistics: its system's ``stats()``."""
        return self.lanes[index].stats()


__all__ = ["BatchKernel", "EventTape"]
