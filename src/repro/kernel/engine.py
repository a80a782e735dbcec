"""The batch engine: run many simulation cells per numpy operation.

The engine replaces the scalar per-event loop of
:class:`repro.cpu.system.CmpSystem` with a *speculative window* over a
materialized event tape:

1. **Materialize** one workload's event stream into an
   :class:`EventTape` (columnar numpy arrays).  Every design lane in a
   batch group shares the same tape — across designs *and* bus models —
   so generation is paid once per workload instead of once per cell.
   (Generation was 36% of a traced scalar Figure 10 pass before it
   became columnar; generating and taping the three Figure 10 tapes
   took 1.06 s before and 0.54 s after, as DESIGN.md §13 records.)
2. **Probe a window** of upcoming events for every lane against the
   SoA L1 state with :meth:`~repro.kernel.soa.L1Pool.classify`, which
   sorts each event into one of **two classes**: a *pure L1 hit* (load
   hit, or store hit on a writable line), or *everything else* (L1
   misses and store upgrades — every event that reaches the L2).
3. **Commit** each lane's prefix of pure hits as masked array ops
   (:meth:`~repro.kernel.soa.L1Pool.commit_hits`: ranked LRU stamps,
   dirty bits, counters) plus per-slot timing sums.  This is sound
   because a pure hit never changes line presence or write permission,
   so the window's classification stays valid up to the first event
   of the other class.
4. **Batch the scalar residue.**  The consecutive run of non-pure
   events that follows a lane's prefix executes back-to-back on the
   scalar path (with per-lane timing hoisted into plain python ints
   for the run) up to the lane's next pure hit in the window, instead
   of breaking the window for a single event, so a miss-heavy stream
   does not pay one vector dispatch per miss.  The next pass re-probes
   from the event after the run, so no classification made stale by
   the residue is ever committed.

Every event is committed exactly once, so ``pure_commits +
scalar_events`` equals lanes × tape events after a run.  Statistics
are assembled per lane exactly as ``CmpSystem.stats`` does, so
``SimulationStats.fingerprint()`` is identical to the scalar engine's
for the same (workload, design, seed, bus model) cell — the
differential suite in ``tests/test_kernel_differential.py`` pins this.

Scalar-fallback contract: the batch engine supports fault-free runs
only (no tracer, no metrics, no fault injection).  Under the eventq
backend the queue is drained at each fallback event; in fault-free
operation every transaction drains inside its issuing call, so the
queue is empty between events in both engines and the drain points are
equivalent to the scalar engine's per-event drain.
"""

from __future__ import annotations

import os
from array import array
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

import numpy as np

from repro.caches.design import L2Design
from repro.common.params import L1Params, SystemParams
from repro.common.stats import CoreTiming, SimulationStats
from repro.common.types import Access, AccessType
from repro.cpu.system import SHARING_CLASSES, EventChunk
from repro.kernel.soa import L1Pool

if TYPE_CHECKING:  # pragma: no cover
    from repro.cpu.system import TimedAccess
    from repro.experiments.runner import ExperimentConfig

#: Recognized simulation engines (``--engine`` / REPRO_ENGINE).
ENGINES = ("scalar", "batch")

#: Environment variable naming the default engine.
ENGINE_ENV = "REPRO_ENGINE"

#: Speculative window length (events probed per lane per pass).  Sized
#: a little above the mean committable run length so most passes commit
#: a full run and meet its residue in the same probe.
WINDOW = 24

_SHARING_CODE = {sharing: code for code, sharing in enumerate(SHARING_CLASSES)}

#: (array typecode, numpy dtype) of the tape's raw columns, in
#: :meth:`EventChunk.columns` order: core, address, is-write, sharing,
#: gap, colocated.
_RAW_COLUMNS = (
    ("h", np.int16),
    ("q", np.int64),
    ("b", np.int8),
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

    Fields are exactly what the engine needs per event: the issuing
    core, the address (plus its precomputed L1 set index and tag), the
    access type and sharing class, and the per-event timing weights —
    ``instr_weight`` = gap + colocated + 1 instructions and
    ``cycle_weight`` = gap + colocated·lat + lat cycles, the totals a
    stall-free event adds to its core (fallbacks recover the pre-access
    portion from the raw gap/colocated columns).

    The builder ``array.array`` columns are kept (``*_raw``) alongside
    the numpy views: the scalar fallback path reads single events, and
    ``array.array`` indexing hands back plain python ints without the
    numpy scalar-extraction overhead.
    """

    __slots__ = (
        "n",
        "core",
        "address",
        "set_index",
        "tag",
        "is_write",
        "instr_weight",
        "cycle_weight",
        "core_raw",
        "address_raw",
        "write_raw",
        "sharing_raw",
        "gap_raw",
        "colocated_raw",
    )

    def __init__(self) -> None:
        self.n = 0

    @classmethod
    def from_chunks(
        cls, chunks: "Iterable[EventChunk]", params: "L1Params | None" = None
    ) -> "EventTape":
        """Consume a workload's event chunks into a tape."""
        columns = [array(typecode) for typecode, _ in _RAW_COLUMNS]
        for chunk in chunks:
            for column, values, (_, dtype) in zip(
                columns, chunk.columns(), _RAW_COLUMNS
            ):
                column.frombytes(values.astype(dtype).tobytes())
        return cls._from_raw(columns, params)

    @classmethod
    def from_events(
        cls, events: "Iterable[TimedAccess]", params: "L1Params | None" = None
    ) -> "EventTape":
        """Consume timed accesses into a tape.

        Each event is appended as it arrives, so none outlives its
        turn (holding them for a bulk conversion costs more in garbage
        collection than it saves).
        """
        columns = [array(typecode) for typecode, _ in _RAW_COLUMNS]
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
        return cls._from_raw(columns, params)

    @classmethod
    def _from_raw(
        cls, columns: "list[array]", params: "L1Params | None"
    ) -> "EventTape":
        """A tape over raw columns in :data:`_RAW_COLUMNS` order."""
        params = params or L1Params()
        tape = cls()
        (
            tape.core_raw, tape.address_raw, tape.write_raw,
            tape.sharing_raw, tape.gap_raw, tape.colocated_raw,
        ) = columns
        tape.n = len(tape.core_raw)
        # frombuffer shares memory with the array.array columns.
        core, address, is_write, _, gap, colocated = (
            np.frombuffer(column, dtype=dtype) if tape.n
            else np.zeros(0, dtype=dtype)
            for column, (_, dtype) in zip(columns, _RAW_COLUMNS)
        )
        tape.core = core
        tape.address = address
        tape.is_write = is_write.view(bool)
        geo = params.geometry
        tape.set_index = (
            (tape.address >> geo.offset_bits) & (geo.num_sets - 1)
        ).astype(np.int32)
        tape.tag = tape.address >> (geo.offset_bits + geo.index_bits)
        lat = params.latency
        tape.instr_weight = gap + colocated + 1
        tape.cycle_weight = gap + colocated * lat + lat
        return tape


class _Lane:
    """One design's seat in a batch group."""

    __slots__ = ("design", "queue", "slot_base")

    def __init__(self, design: L2Design, slot_base: int) -> None:
        self.design = design
        self.queue = getattr(design, "queue", None)
        self.slot_base = slot_base


class BatchKernel:
    """Steps a group of design lanes over one shared event tape."""

    def __init__(
        self, designs: "Sequence[L2Design]", params: "Optional[SystemParams]" = None
    ) -> None:
        self.params = params or SystemParams()
        self.num_cores = self.params.num_cores
        self.l1_latency = self.params.l1.latency
        self._blocking_stores = self.params.blocking_stores
        num_slots = len(designs) * self.num_cores
        self.pool = L1Pool(num_slots, self.params.l1)
        self.instructions = np.zeros(num_slots, dtype=np.int64)
        self.cycles = np.zeros(num_slots, dtype=np.int64)
        self.instructions_at_reset = np.zeros(num_slots, dtype=np.int64)
        self.cycles_at_reset = np.zeros(num_slots, dtype=np.int64)
        self.lanes = []
        for index, design in enumerate(designs):
            base = index * self.num_cores
            design.set_l1_invalidate_hook(self._make_invalidate_hook(base, design))
            self.lanes.append(_Lane(design, base))
        self._peers = tuple(
            tuple(c for c in range(self.num_cores) if c != i)
            for i in range(self.num_cores)
        )
        # Instrumentation (events per class, probe passes).
        self.pure_commits = 0
        self.scalar_events = 0
        self.windows = 0

    def _make_invalidate_hook(self, slot_base: int, design: L2Design):
        """The design's L1-inclusion hook, redirected at the pool."""
        pool = self.pool

        def hook(core: int, l2_block_address: int) -> None:
            pool.invalidate_l2_block(
                slot_base + core, l2_block_address, design.block_size
            )

        return hook

    def run(self, tape: EventTape, warmup_events: int = 0) -> None:
        """Warm up, reset statistics, measure — over the whole batch."""
        split = min(warmup_events, tape.n)
        if warmup_events:
            self._advance(tape, 0, split)
            self.reset_stats()
        self._advance(tape, split, tape.n)

    def reset_stats(self) -> None:
        """The warm-up boundary: designs reset, timing baselines move."""
        for lane in self.lanes:
            lane.design.reset_stats()
        self.instructions_at_reset[:] = self.instructions
        self.cycles_at_reset[:] = self.cycles
        self.pool.reset_stats(slice(None))

    def _advance(self, tape: EventTape, start: int, end: int) -> None:
        """The speculative-window loop from event ``start`` to ``end``."""
        if start >= end:
            return
        pool = self.pool
        num_slots = pool.num_slots
        n_lanes = len(self.lanes)
        pos = np.full(n_lanes, start, dtype=np.int64)
        slot_base = np.arange(n_lanes, dtype=np.int64) * self.num_cores
        core_a = tape.core
        set_a = tape.set_index
        tag_a = tape.tag
        write_a = tape.is_write
        instr_w = tape.instr_weight
        cycle_w = tape.cycle_weight
        instructions = self.instructions
        cycles = self.cycles
        window = WINDOW
        # Templates for the full-window fast path: while every lane has
        # at least a window of events left, the ragged (rep, within,
        # starts) structure is constant and needn't be rebuilt per pass.
        lane_index_a = np.arange(n_lanes, dtype=np.int64)
        full_rep = np.repeat(lane_index_a, window)
        full_within = np.tile(np.arange(window, dtype=np.int64), n_lanes)
        full_starts = lane_index_a * window
        full_slot_base = slot_base[full_rep]
        while True:
            remaining = end - pos
            if remaining.min() >= window:
                # Fast path: all lanes probe a full window.
                rep = full_rep
                within = full_within
                starts = full_starts
                ev = np.repeat(pos, window) + full_within
                slot = full_slot_base + core_a[ev]
                full = True
            else:
                active = np.nonzero(remaining > 0)[0]
                if not active.size:
                    return
                counts = np.minimum(window, remaining[active])
                starts = np.cumsum(counts) - counts
                rep = np.repeat(np.arange(active.size), counts)
                within = np.arange(rep.size) - starts[rep]
                ev = pos[active][rep] + within
                slot = slot_base[active][rep] + core_a[ev]
                full = False
            self.windows += 1
            sets = set_a[ev]
            is_write = write_a[ev]
            pure, _, way = pool.classify(slot, sets, tag_a[ev], is_write)
            # First non-pure event per lane bounds its commit run.
            bad = np.where(pure, window, within)
            n_commit = np.minimum.reduceat(bad, starts)
            if not full:
                n_commit = np.minimum(n_commit, counts)
            commit = within < n_commit[rep]
            if commit.all():
                cs, cset, cway, cwrite, cev = slot, sets, way, is_write, ev
            else:
                cs = slot[commit]
                cset = sets[commit]
                cway = way[commit]
                cwrite = is_write[commit]
                cev = ev[commit]
            if cs.size:
                pool.commit_hits(cs, cset, cway, cwrite)
                self.pure_commits += int(cs.size)
                # Sums of small per-event weights: exact in the float64
                # accumulator bincount uses internally.
                instructions += np.bincount(
                    cs, weights=instr_w[cev], minlength=num_slots
                ).astype(np.int64)
                cycles += np.bincount(
                    cs, weights=cycle_w[cev], minlength=num_slots
                ).astype(np.int64)
            if full:
                pos += n_commit
                pending = np.nonzero(n_commit < window)[0]
            else:
                pos[active] += n_commit
                pending = np.nonzero(n_commit < counts)[0]
            if not pending.size:
                continue
            # Per-lane index of the first pure hit past the commit
            # boundary, in one reduction: it ends each pending lane's
            # scalar residue run.
            after = pure & (within >= n_commit[rep])
            first_next = np.minimum.reduceat(
                np.where(after, within, window), starts
            ).tolist()
            nc_list = n_commit.tolist()
            for p in pending.tolist():
                if full:
                    lane_index = p
                    seg_count = window
                else:
                    lane_index = int(active[p])
                    seg_count = int(counts[p])
                run = min(first_next[p], seg_count) - nc_list[p]
                self._run_scalar(tape, lane_index, int(pos[lane_index]), run)
                pos[lane_index] += run

    def _run_scalar(
        self, tape: EventTape, lane_index: int, start: int, count: int
    ) -> None:
        """Run ``count`` consecutive events of one lane on the scalar path.

        Exactly the per-event sequence ``CmpSystem`` runs — queue
        drain, L1 probe, ``design.access`` with the lane's virtual
        clock, fill and peer invalidate/downgrade — but batched: the
        lane's per-core instruction and cycle counters are hoisted into
        plain python ints for the whole run and written back once,
        instead of paying numpy scalar extraction per event.
        """
        lane = self.lanes[lane_index]
        pool = self.pool
        base = lane.slot_base
        num_cores = self.num_cores
        lat = self.l1_latency
        blocking = self._blocking_stores
        queue = lane.queue
        cyc = self.cycles[base : base + num_cores].tolist()
        ins = self.instructions[base : base + num_cores].tolist()
        core_raw = tape.core_raw
        address_raw = tape.address_raw
        write_raw = tape.write_raw
        sharing_raw = tape.sharing_raw
        gap_raw = tape.gap_raw
        colocated_raw = tape.colocated_raw
        access_design = lane.design.access
        load = pool.load
        store = pool.store
        fill = pool.fill
        invalidate = pool.invalidate
        revoke = pool.revoke_writable
        peers = self._peers
        for i in range(start, start + count):
            if queue is not None and queue.pending:
                queue.run_until(max(cyc))
            core = core_raw[i]
            slot = base + core
            gap = gap_raw[i]
            colocated = colocated_raw[i]
            # The core's clock after the pre-access instruction context.
            now = cyc[core] + gap + colocated * lat
            address = address_raw[i]
            if write_raw[i]:
                if store(slot, address):
                    stall = 0
                else:
                    access = Access(
                        core, address, AccessType.WRITE, SHARING_CLASSES[sharing_raw[i]]
                    )
                    result = access_design(access, now=now)
                    fill(
                        slot, address,
                        writable=not result.write_through, dirty=True,
                    )
                    for other in peers[core]:
                        invalidate(base + other, address)
                    stall = result.latency if blocking else 0
            elif load(slot, address):
                stall = 0
            else:
                access = Access(
                    core, address, AccessType.READ, SHARING_CLASSES[sharing_raw[i]]
                )
                result = access_design(access, now=now)
                fill(slot, address, writable=False)
                for other in peers[core]:
                    revoke(base + other, address)
                stall = result.latency
            ins[core] += gap + colocated + 1
            cyc[core] = now + lat + stall
        self.cycles[base : base + num_cores] = cyc
        self.instructions[base : base + num_cores] = ins
        self.scalar_events += count

    def lane_stats(self, index: int) -> SimulationStats:
        """Assemble one lane's stats exactly as ``CmpSystem.stats`` does."""
        lane = self.lanes[index]
        design = lane.design
        stats = SimulationStats(accesses=design.stats)
        base = lane.slot_base
        stats.per_core = [
            CoreTiming(
                int(self.instructions[base + c] - self.instructions_at_reset[base + c]),
                int(self.cycles[base + c] - self.cycles_at_reset[base + c]),
            )
            for c in range(self.num_cores)
        ]
        reuse = getattr(design, "reuse", None)
        if reuse is not None:
            stats.reuse = reuse
        dgroups = getattr(design, "dgroup_stats", None)
        if dgroups is not None:
            stats.dgroups = dgroups
        bus = getattr(design, "bus", None)
        if bus is not None:
            stats.bus = bus.stats
        bus_stats = getattr(design, "bus_stats", None)
        if bus_stats is not None:
            stats.bus = bus_stats
        return stats


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
    """Run a batch of cells through the SoA kernel.

    ``cells`` may be :class:`repro.experiments.parallel.Cell` objects
    (or anything with ``workload``/``design``/``multiprogrammed`` and
    optionally ``bus_model`` attributes) or plain ``(workload, design,
    multiprogrammed[, bus_model])`` tuples; a cell without a bus model
    takes the ``bus_model`` argument (itself defaulted from
    ``REPRO_BUS_MODEL``).  Cells sharing a workload are grouped into
    one kernel over one shared event tape — across designs *and* bus
    models, the batch engine's biggest lever — and the result maps each
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
    params = SystemParams()
    total = config.warmup_per_core + config.measure_per_core
    for (workload_name, multiprogrammed), lane_keys in groups.items():
        maker = make_mix if multiprogrammed else make_workload
        workload = maker(workload_name, seed=config.seed)
        tape = EventTape.from_chunks(
            workload.chunks(accesses_per_core=total), params.l1
        )
        designs = [
            build_design(name, bus_model=bus) for name, bus in lane_keys
        ]
        kernel = BatchKernel(designs, params)
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
    "WINDOW",
    "BatchKernel",
    "EventTape",
    "resolve_engine",
    "run_batch",
]
