"""The batch engine: many design lanes over one shared event tape.

A batch group is every (design, bus model) lane that runs one
workload.  The engine materializes the workload's event stream once
into an :class:`EventTape` (columnar numpy arrays), then runs each
lane's own :class:`~repro.cpu.system.CmpSystem` over it with
:meth:`~repro.cpu.system.CmpSystem.run_chunks`, the scalar engine's
plain loop.  Generation is paid once per workload instead of once per
cell, across designs *and* bus models; that sharing is the engine's
one lever.  Because every lane runs the scalar loop, its
``SimulationStats.fingerprint()`` is identical to a scalar run of the
same (workload, design, seed, bus model) cell by construction — the
differential suite in ``tests/test_kernel_differential.py`` pins it.

The tape replays in slices of :data:`~repro.workloads.base.BATCH`
events, so a lane never expands more than one generator chunk into
Python lists at a time.

The batch engine supports fault-free runs only (no tracer, no
metrics, no fault injection).
"""

from __future__ import annotations

import os
from array import array
from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Sequence

import numpy as np

from repro.caches.design import L2Design
from repro.common.params import SystemParams
from repro.common.stats import SimulationStats
from repro.common.types import AccessType
from repro.cpu.system import SHARING_CLASSES, CmpSystem, EventChunk
from repro.workloads.base import BATCH

if TYPE_CHECKING:  # pragma: no cover
    from repro.cpu.system import TimedAccess
    from repro.experiments.runner import ExperimentConfig

#: Recognized simulation engines (``--engine`` / REPRO_ENGINE).
ENGINES = ("scalar", "batch")

#: Environment variable naming the default engine.
ENGINE_ENV = "REPRO_ENGINE"

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


def resolve_engine(engine: "Optional[str]" = None) -> str:
    """Pick the simulation engine: explicit arg, env, or scalar."""
    if engine is None:
        engine = os.environ.get(ENGINE_ENV) or "scalar"
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; choose from {ENGINES}")
    return engine


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
    def from_chunks(cls, chunks: "Iterable[EventChunk]") -> "EventTape":
        """Consume a workload's event chunks into a tape."""
        columns = [array(typecode) for typecode, _ in _COLUMNS]
        for chunk in chunks:
            for column, values, (_, dtype) in zip(
                columns, chunk.columns(), _COLUMNS
            ):
                column.frombytes(values.astype(dtype).tobytes())
        return cls(columns)

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
    construction is setup work, as ``CmpSystem(...)`` is for a scalar
    run.
    """

    def __init__(
        self, designs: "Sequence[L2Design]", params: "Optional[SystemParams]" = None
    ) -> None:
        self.lanes = [CmpSystem(design, params) for design in designs]

    def run(self, tape: EventTape, warmup_events: int = 0) -> None:
        """Warm up, reset statistics, measure — one lane at a time."""
        for system in self.lanes:
            system.run_chunks(tape._slices(), warmup_events)

    def lane_stats(self, index: int) -> SimulationStats:
        """One lane's statistics: its system's ``stats()``."""
        return self.lanes[index].stats()


#: Interconnect backends the batch kernel can model.  The mesh NoC's
#: split-phase directory transactions (and its scaled tile counts) are
#: scalar-engine territory; ``run_batch`` refuses them explicitly.
BATCH_BUS_MODELS = ("atomic", "eventq")


def _normalize_cell(cell) -> "tuple[str, str, bool, Optional[str]]":
    if hasattr(cell, "workload"):
        return (
            cell.workload,
            cell.design,
            bool(cell.multiprogrammed),
            getattr(cell, "bus_model", None),
        )
    parts = tuple(cell)
    if len(parts) == 3:
        workload, design, multiprogrammed = parts
        bus_model = None
    else:
        workload, design, multiprogrammed, bus_model = parts
    return (str(workload), str(design), bool(multiprogrammed), bus_model)


def run_batch(
    cells: "Iterable",
    config: "Optional[ExperimentConfig]" = None,
    bus_model: "Optional[str]" = None,
) -> "dict[tuple[str, str, bool, str], SimulationStats]":
    """Run a batch of cells through the batch engine.

    ``cells`` may be :class:`repro.experiments.parallel.Cell` objects
    (or anything with ``workload``/``design``/``multiprogrammed`` and
    optionally ``bus_model`` attributes) or plain ``(workload, design,
    multiprogrammed[, bus_model])`` tuples; a cell without a bus model
    takes the ``bus_model`` argument (itself defaulted from
    ``REPRO_BUS_MODEL``).  Cells sharing a workload are grouped into
    one kernel over one shared event tape — across designs *and* bus
    models, the batch engine's one lever — and the result maps each
    ``(workload, design, multiprogrammed, resolved_bus_model)`` tuple
    to stats bit-identical to a scalar run of the same cell.
    """
    from repro.experiments.runner import (
        ExperimentConfig,
        build_design,
        resolve_bus_model,
    )
    from repro.workloads.multiprogrammed import make_mix
    from repro.workloads.multithreaded import make_workload

    config = config or ExperimentConfig()
    default_bus = resolve_bus_model(bus_model)
    supported = " and ".join(BATCH_BUS_MODELS)
    groups: "dict[tuple[str, bool], list[tuple[str, str]]]" = {}
    for cell in cells:
        workload, design, multiprogrammed, cell_bus = _normalize_cell(cell)
        if cell_bus is None:
            cell_bus = default_bus
        else:
            cell_bus = resolve_bus_model(cell_bus)
        if cell_bus not in BATCH_BUS_MODELS:
            detail = (
                "the mesh NoC's split-phase directory transactions need "
                "the scalar engine"
                if cell_bus == "mesh"
                else "this backend needs the scalar engine"
            )
            raise ValueError(
                f"cell ({workload}, {design}) requests bus model "
                f"{cell_bus!r}, but the batch kernel supports only the "
                f"{supported} bus models; {detail} "
                "(rerun with --engine scalar)"
            )
        cell_cores = getattr(cell, "num_cores", 0)
        if cell_cores:
            raise ValueError(
                f"cell ({workload}, {design}) requests "
                f"num_cores={cell_cores}, but the batch kernel models "
                "the paper's 4-core machine only; scaled cells need the "
                "scalar engine (rerun with --engine scalar)"
            )
        lanes = groups.setdefault((workload, multiprogrammed), [])
        if (design, cell_bus) not in lanes:
            lanes.append((design, cell_bus))
    results: "dict[tuple[str, str, bool, str], SimulationStats]" = {}
    total = config.warmup_per_core + config.measure_per_core
    for (workload_name, multiprogrammed), lane_keys in groups.items():
        maker = make_mix if multiprogrammed else make_workload
        workload = maker(workload_name, seed=config.seed)
        tape = EventTape.from_chunks(workload.chunks(accesses_per_core=total))
        designs = [
            build_design(name, bus_model=bus) for name, bus in lane_keys
        ]
        kernel = BatchKernel(designs)
        kernel.run(tape, config.warmup_per_core * workload.num_cores)
        for index, (name, bus) in enumerate(lane_keys):
            results[(workload_name, name, multiprogrammed, bus)] = (
                kernel.lane_stats(index)
            )
    return results


__all__ = [
    "BATCH_BUS_MODELS",
    "ENGINE_ENV",
    "ENGINES",
    "BatchKernel",
    "EventTape",
    "resolve_engine",
    "run_batch",
]
