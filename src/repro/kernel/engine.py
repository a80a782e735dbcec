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
   SoA L1 state (:class:`~repro.kernel.soa.L1Pool`) and, for eligible
   lanes, the SoA L2 tag mirror (:class:`~repro.kernel.soa.L2Pool`),
   classifying each event into one of **four classes**:

   * **class 1 — pure L1 hit**: load hit, or store hit on a writable
     line; completes inside the L1.
   * **class 2 — private L2 hit, no coherence action**: a read that
     misses the L1 but hits the core's own tag array on a valid E/M
     line served from the core's closest d-group — no promotion under
     either policy, no bus op, no block movement.
   * **class 3 — L2 hit needing only local pointer/LRU updates**: a
     read hit on an S line that provably does not replicate (CR off,
     or served from the closest d-group, or still under the
     replicate-on-use threshold) or on a C line with migration
     disabled.  Side effects are the tag LRU touch, the reuse bump,
     the crossbar traffic count, and the d-group hit statistics —
     all representable as array/column updates.
   * **class 4 — true fallback**: everything else (L1 upgrades, L2
     misses, coherence transitions, replications/promotions/
     migrations, writes reaching the L2, eventq-occupied buses).

3. **Commit** classes 1–3 vectorized.  Pure hits take masked
   recency/counter updates; fast L2 hits additionally perform the L1
   fill, the peer writable-revoke, the design-side reuse/LRU touch,
   and the crossbar/d-group accounting.  All committed events in one
   window share a per-slot occurrence ranking so every LRU stamp is
   the exact scalar clock value.  A window's committable prefix is
   truncated at the first event whose (slot, L1 set) or (slot, L2
   set) was touched by an earlier fast-L2 commit in the same window —
   a fast-L2 fill changes L1 presence and line reuse counts, so later
   classifications in those sets could be stale.
4. **Batch the scalar residue.**  When a lane's prefix ends at a true
   class-4 event, the whole consecutive run of class-4 events is
   executed back-to-back on the scalar path (with per-lane timing
   hoisted into plain python ints for the run) instead of breaking
   the window for a single event — this is what makes cold grids,
   where almost every event reaches the L2, faster than scalar.
   After the run, the L2 mirror rows of every dirty-marked address
   are re-read from the design, so classification state is coherent
   again.

The scalar residue is *self-determining*: ``L1Pool``'s scalar ops plus
``design.access`` are bit-correct for any event, so classification is
purely advisory — a stale "committable" verdict is never committed
(truncation), and running extra events through the residue is always
safe.

Statistics are assembled per lane exactly as ``CmpSystem.stats`` does,
so ``SimulationStats.fingerprint()`` is identical to the scalar
engine's for the same (workload, design, seed, bus model) cell — the
differential suite in ``tests/test_kernel_differential.py`` pins this.

Scalar-fallback contract: the batch engine supports fault-free runs
only (no tracer, no metrics, no fault injection).  Under the eventq
backend the queue is drained at each fallback event; in fault-free
operation every transaction drains inside its issuing call, so the
queue is empty between events in both engines and the drain points are
equivalent to the scalar engine's per-event drain.  Fast L2 classes
are enabled per lane only when the design opts in via
:meth:`~repro.caches.design.L2Design.batch_fast_spec` *and* the lane
runs the atomic bus (an attached event queue observes crossbar data
phases the fast path would skip); ineligible lanes still get shared
tapes and batched residues.
"""

from __future__ import annotations

import os
from array import array
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

import numpy as np

from repro.caches.design import L2Design
from repro.coherence.states import CoherenceState
from repro.common.params import L1Params, SystemParams
from repro.common.stats import CoreTiming, SimulationStats
from repro.common.types import Access, AccessType, MissClass
from repro.core.tag_array import STATE_CODES
from repro.cpu.system import SHARING_CLASSES, EventChunk
from repro.kernel.soa import L1Pool, L2Pool

if TYPE_CHECKING:  # pragma: no cover
    from numpy.typing import NDArray

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

#: Minimum fast-L2 yield (candidate reads, then classified hits) in a
#: window before the fast-L2 commit machinery engages.  Classification
#: is advisory, so skipping it is always correct — below this yield the
#: conflict/ranking overhead costs more than the scalar calls it would
#: save, and the events simply join the batched scalar residue.  Sized
#: so the tier stays idle on ordinary grids (a few L1-missing reads per
#: window) and engages only on genuinely L2-hit-heavy phases.
_FAST_GATE = 8

#: Windows between fast-tier sleep/wake decisions.  While a lane is
#: awake, every residue run conservatively invalidates the mirror rows
#: it touched (cheap, and "unknown" classifies as a miss — correct) and
#: the invalidated sets are re-read at the next epoch boundary.  A lane
#: whose residue rate shows the tier cannot pay for that upkeep is put
#: to *sleep*: its cores leave the candidate mask, so residues stop
#: paying any mirror tax at all.  A later calm epoch (an L2-hit-heavy
#: phase) wakes it with one full lane re-read.
_REFRESH_WINDOWS = 128

#: Calm threshold: a lane running at least this many scalar-residue
#: events per epoch is loud — mirror upkeep would cost more than the
#: fast classes could return, so the lane sleeps.  Below it the lane is
#: calm: upkeep is cheap (refresh cost scales with residue rate) and
#: the hit-heavy traffic is exactly what classes 2 and 3 vectorize.
_CALM_EVENTS = 64

#: Wake threshold: a sleeping lane whose residue shows at least this
#: many *convertible* L2 read hits per epoch — estimated by sampling
#: every 16th hit through the class-2/3 conditions — has traffic worth
#: one full mirror re-read.  Convertible hits, not residue volume,
#: break the chicken-and-egg of sleeping through an L2-hit-heavy
#: phase: those events would go fast if only the mirror were valid.
#: The bar doubles each time a lane goes (back) to sleep, so a lane
#: whose hits never classify fast (e.g. replication-heavy sharing)
#: stops thrash-waking geometrically.
_WAKE_HITS = 512

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

_HIT = MissClass.HIT
_M_CODE = STATE_CODES[CoherenceState.MODIFIED]
_E_CODE = STATE_CODES[CoherenceState.EXCLUSIVE]
_S_CODE = STATE_CODES[CoherenceState.SHARED]
_C_CODE = STATE_CODES[CoherenceState.COMMUNICATION]


def resolve_engine(engine: "Optional[str]" = None) -> str:
    """Pick the simulation engine: explicit arg, env, or scalar."""
    if engine is None:
        engine = os.environ.get(ENGINE_ENV) or "scalar"
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; choose from {ENGINES}")
    return engine


def _poisoned_later(keys: "NDArray", poison: "NDArray") -> "NDArray":
    """True for rows preceded, in row order, by a poison row of equal key.

    Rows are window probes in (lane-major, event-order) layout and
    ``keys`` embed the slot, so a stable sort groups each slot-local
    key without reordering events; an exclusive prefix count of poison
    rows inside each equal-key run then says "something earlier in this
    window already mutated this set".
    """
    n = keys.shape[0]
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    sorted_poison = poison[order].astype(np.int64)
    prefix = np.cumsum(sorted_poison) - sorted_poison
    boundaries = np.empty(n, dtype=bool)
    boundaries[0] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=boundaries[1:])
    index = np.arange(n)
    run_starts = index[boundaries]
    run_base = np.repeat(
        prefix[run_starts], np.diff(np.append(run_starts, n))
    )
    out = np.empty(n, dtype=bool)
    out[order] = (prefix - run_base) > 0
    return out


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
        # Instrumentation (events committed per class; vacuity guards
        # in the differential suite assert the fast classes fired).
        self.pure_commits = 0
        self.fast_l2_commits = 0
        self.scalar_events = 0
        self.windows = 0
        self._init_fast_l2()

    def _make_invalidate_hook(self, slot_base: int, design: L2Design):
        """The design's L1-inclusion hook, redirected at the pool."""
        pool = self.pool

        def hook(core: int, l2_block_address: int) -> None:
            pool.invalidate_l2_block(
                slot_base + core, l2_block_address, design.block_size
            )

        return hook

    def _init_fast_l2(self) -> None:
        """Enroll lanes into the fast L2 classes and build the mirror.

        A lane qualifies when its design publishes a
        :class:`~repro.caches.design.BatchFastSpec`, runs the atomic
        bus (no event queue), has no tracer or pre-attached dirty set,
        and matches the 4-core batch shape; lanes after the first must
        also share its tag geometry and d-group count so one stacked
        mirror covers them all.  Ineligible lanes simply take the
        scalar residue for every L2-reaching event, exactly as before.
        """
        from repro.common.dirty import DirtySet

        num_slots = self.pool.num_slots
        self._any_fast = False
        self.l2: "Optional[L2Pool]" = None
        self._fast_row = [-1] * len(self.lanes)
        self._fast_designs: "list[L2Design]" = []
        self._fast_ok = np.zeros(num_slots, dtype=bool)
        self._fast_eslot = np.zeros(num_slots, dtype=np.int64)
        eligible = []
        first_spec = None
        for index, lane in enumerate(self.lanes):
            design = lane.design
            spec = design.batch_fast_spec()
            if (
                spec is None
                or lane.queue is not None
                or design.tracer.enabled
                or design.dirty_set is not None
                or spec.num_cores != self.num_cores
            ):
                continue
            if first_spec is None:
                first_spec = spec
            elif (
                spec.tag_geometry != first_spec.tag_geometry
                or spec.num_dgroups != first_spec.num_dgroups
            ):
                continue
            eligible.append((index, lane, spec))
        if not eligible:
            return
        designs = [lane.design for _, lane, _ in eligible]
        # Fresh designs (never accessed: every tag clock at zero, no
        # occupied frame) skip the full mirror scan — the pool's
        # freshly allocated columns already say "all invalid".
        fresh = all(
            tag.array._clock == 0 for d in designs for tag in d.tags
        ) and all(
            group.occupied_count == 0 for d in designs for group in d.data.dgroups
        )
        geometry = first_spec.tag_geometry
        num_dgroups = first_spec.num_dgroups
        if fresh:
            self.l2 = L2Pool(
                len(designs),
                self.num_cores,
                geometry,
                num_dgroups,
                designs[0].data.dgroups[0].num_frames if designs[0].data.dgroups else 0,
            )
        else:
            self.l2 = L2Pool.from_designs(designs)
        num_eslots = len(designs) * self.num_cores
        self._l2_closest = np.zeros(num_eslots, dtype=np.int64)
        self._l2_no_cr = np.zeros(num_eslots, dtype=bool)
        self._l2_rep_need = np.zeros(num_eslots, dtype=np.int64)
        self._l2_cmig_ok = np.zeros(num_eslots, dtype=bool)
        self._l2_stall = np.zeros((num_eslots, num_dgroups), dtype=np.int64)
        for row, (index, lane, spec) in enumerate(eligible):
            design = lane.design
            design.dirty_set = DirtySet()
            self._fast_row[index] = row
            self._fast_designs.append(design)
            xbar = design.crossbar
            for core in range(self.num_cores):
                eslot = row * self.num_cores + core
                self._fast_ok[lane.slot_base + core] = True
                self._fast_eslot[lane.slot_base + core] = eslot
                self._l2_closest[eslot] = spec.closest[core]
                self._l2_no_cr[eslot] = not spec.enable_cr
                self._l2_rep_need[eslot] = spec.replicate_on_use
                self._l2_cmig_ok[eslot] = spec.c_migration_threshold == 0
                for group in range(num_dgroups):
                    self._l2_stall[eslot, group] = (
                        spec.tag_latency
                        + xbar.dgroup_latencies[core][group]
                        + xbar.fault_extra_latency
                    )
        # Plain-python copies of the spec tables for _probe_fast (a
        # sampled per-event path where numpy scalar reads would cost).
        self._l2_closest_l = self._l2_closest.tolist()
        self._l2_no_cr_l = self._l2_no_cr.tolist()
        self._l2_rep_need_l = self._l2_rep_need.tolist()
        self._l2_cmig_ok_l = self._l2_cmig_ok.tolist()
        # Lazy mirror maintenance: per fast lane, the set indices whose
        # rows are conservatively invalidated but not yet re-read, the
        # scalar-residue event count in the current refresh epoch, and
        # the sleep/wake state (see _epoch_refresh).
        self._l2_pending = [set() for _ in eligible]
        self._l2_events = [0] * len(eligible)
        self._l2_hits = [0] * len(eligible)
        self._l2_awake = [True] * len(eligible)
        self._l2_wake_bar = [_WAKE_HITS] * len(eligible)
        self._l2_n_awake = len(eligible)
        self._l2_slot_base = [lane.slot_base for _, lane, _ in eligible]
        self._any_fast = True

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
        l2 = self.l2
        any_fast = self._any_fast
        num_slots = pool.num_slots
        n_lanes = len(self.lanes)
        pos = np.full(n_lanes, start, dtype=np.int64)
        slot_base = np.arange(n_lanes, dtype=np.int64) * self.num_cores
        core_a = tape.core
        set_a = tape.set_index
        tag_a = tape.tag
        write_a = tape.is_write
        addr_a = tape.address
        instr_w = tape.instr_weight
        cycle_w = tape.cycle_weight
        valid = pool.valid
        tags = pool.tags
        writable = pool.writable
        instructions = self.instructions
        cycles = self.cycles
        window = WINDOW
        l1_sets = pool.num_sets
        if any_fast:
            fast_ok = self._fast_ok
            fast_eslot = self._fast_eslot
            l2_valid = l2.valid
            l2_tags = l2.tags
            l2_state = l2.state
            l2_dgroup = l2.dgroup
            l2_reuse = l2.reuse
            l2_off = l2.offset_bits
            l2_mask = l2.index_mask
            l2_shift = l2.tag_shift
            l2_sets = l2.num_sets
            l2_ways = l2_tags.shape[2]
            # Disjoint key spaces for the fused conflict scan: L1 keys
            # live below num_slots*l1_sets, L2 keys above it.
            key2_off = num_slots * l1_sets
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
            if any_fast and self.windows % _REFRESH_WINDOWS == 0:
                self._epoch_refresh()
            sets = set_a[ev]
            lines = valid[slot, sets] & (tags[slot, sets] == tag_a[ev][:, None])
            hit = lines.any(axis=1)
            way = lines.argmax(axis=1)
            is_write = write_a[ev]
            pure = hit & (~is_write | writable[slot, sets, way])
            # Classification runs compressed to the candidate rows
            # (fast-eligible L1-missing reads) and only engages when
            # the yield clears the gate — both checks are advisory, so
            # a skipped window just routes those events to the residue.
            fastl2 = None
            if any_fast and self._l2_n_awake:
                cand = fast_ok[slot] & ~(is_write | pure)
                c_rows = np.nonzero(cand)[0]
                if c_rows.size >= _FAST_GATE:
                    c_slot = slot[c_rows]
                    addr = addr_a[ev[c_rows]]
                    l2set_c = (addr >> l2_off) & l2_mask
                    es_c = fast_eslot[c_slot]
                    l2lines = l2_valid[es_c, l2set_c] & (
                        l2_tags[es_c, l2set_c] == (addr >> l2_shift)[:, None]
                    )
                    l2hit = l2lines.any(axis=1)
                    l2way_c = l2lines.argmax(axis=1)
                    state = l2_state[es_c, l2set_c, l2way_c]
                    dgroup_c = l2_dgroup[es_c, l2set_c, l2way_c]
                    near_c = dgroup_c == self._l2_closest[es_c]
                    fast2 = ((state == _M_CODE) | (state == _E_CODE)) & near_c
                    fast3 = (state == _S_CODE) & (
                        self._l2_no_cr[es_c]
                        | near_c
                        | (l2_reuse[es_c, l2set_c, l2way_c] + 2
                           < self._l2_rep_need[es_c])
                    )
                    fast3 |= (state == _C_CODE) & self._l2_cmig_ok[es_c]
                    fast_c = l2hit & (fast2 | fast3)
                    if int(np.count_nonzero(fast_c)) >= _FAST_GATE:
                        fastl2 = np.zeros(slot.shape[0], dtype=bool)
                        fastl2[c_rows[fast_c]] = True
            if fastl2 is not None:
                committable = pure | fastl2
                # Truncate each lane's prefix at the first event an
                # earlier fast-L2 commit of this window could have
                # misclassified.  One fused poison scan: the L1 keys of
                # all rows (a fill changes L1 presence, which every
                # row's classification reads) stacked with offset
                # way-resolved L2 keys.  A fast commit's only L2-side
                # mutation is its own entry's reuse/lru, and of the
                # classification inputs only the S-state replication
                # threshold reads reuse — so the L2 half applies only
                # to those reuse-sensitive victims, letting e.g. two
                # reads of one block's halves commit in one window.
                n_rows = slot.shape[0]
                keys = np.concatenate(
                    (
                        slot * l1_sets + sets,
                        (c_slot * l2_sets + l2set_c) * l2_ways
                        + l2way_c + key2_off,
                    )
                )
                poison = np.concatenate((fastl2, fast_c))
                poisoned = _poisoned_later(keys, poison)
                conflict = poisoned[:n_rows]
                sens_c = fast_c & (state == _S_CODE) & ~(
                    self._l2_no_cr[es_c] | near_c
                )
                conflict[c_rows] |= poisoned[n_rows:] & sens_c
                ok = committable & ~conflict
            else:
                committable = pure
                ok = pure
            # First non-committable event per lane bounds its commit run.
            bad = np.where(ok, window, within)
            if full:
                n_commit = np.minimum.reduceat(bad, full_starts)
                commit = full_within < n_commit[full_rep]
            else:
                n_commit = np.minimum(np.minimum.reduceat(bad, starts), counts)
                commit = within < n_commit[rep]
            if fastl2 is None:
                # Pure-hit-only window: commit_hits handles stamps and
                # the clock internally — the original cheap path.
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
                    # Sums of small per-event weights: exact in the
                    # float64 accumulator bincount uses internally.
                    instructions += np.bincount(
                        cs, weights=instr_w[cev], minlength=num_slots
                    ).astype(np.int64)
                    cycles += np.bincount(
                        cs, weights=cycle_w[cev], minlength=num_slots
                    ).astype(np.int64)
            else:
                c_idx = np.nonzero(commit)[0]
                if c_idx.size:
                    cs = slot[c_idx]
                    n = cs.size
                    # Per-slot occurrence rank over ALL committed events
                    # (classes 1–3 all tick the slot's L1 LRU clock), so
                    # every stamp is the exact scalar clock value.
                    order = np.argsort(cs, kind="stable")
                    sorted_slots = cs[order]
                    boundaries = np.empty(n, dtype=bool)
                    boundaries[0] = True
                    np.not_equal(
                        sorted_slots[1:], sorted_slots[:-1], out=boundaries[1:]
                    )
                    index = np.arange(n)
                    run_starts = index[boundaries]
                    rank = index - np.repeat(
                        run_starts, np.diff(np.append(run_starts, n))
                    )
                    stamps = np.empty(n, dtype=np.int64)
                    stamps[order] = pool.clock[sorted_slots] + rank + 1
                    cev = ev[c_idx]
                    cyc_weights = cycle_w[cev].astype(np.float64)
                    pmask = pure[c_idx]
                    pool.commit_hits_stamped(
                        cs[pmask],
                        sets[c_idx][pmask],
                        way[c_idx][pmask],
                        is_write[c_idx][pmask],
                        stamps[pmask],
                    )
                    fmask = ~pmask
                    if fmask.any():
                        # Map committed fast rows back into the
                        # candidate-compressed classification arrays.
                        pos_in_c = np.empty(slot.shape[0], dtype=np.int64)
                        pos_in_c[c_rows] = np.arange(c_rows.size)
                        ci = pos_in_c[c_idx[fmask]]
                        cyc_weights[fmask] += self._commit_fast_l2(
                            ci,
                            cs[fmask],
                            stamps[fmask],
                            addr,
                            es_c,
                            l2set_c,
                            l2way_c,
                            dgroup_c,
                            near_c,
                        )
                        self.pure_commits += n - int(fmask.sum())
                    else:
                        self.pure_commits += n
                    instructions += np.bincount(
                        cs, weights=instr_w[cev], minlength=num_slots
                    ).astype(np.int64)
                    cycles += np.bincount(
                        cs, weights=cyc_weights, minlength=num_slots
                    ).astype(np.int64)
                    pool.clock += np.bincount(cs, minlength=num_slots)
            if full:
                pos += n_commit
                pending = np.nonzero(n_commit < window)[0]
            else:
                pos[active] += n_commit
                pending = np.nonzero(n_commit < counts)[0]
            if pending.size:
                # Per-lane index of the first committable event at or
                # past the commit boundary, in one reduction: it bounds
                # each pending lane's scalar residue run.
                if full:
                    after = committable & (full_within >= n_commit[full_rep])
                    first_next = np.minimum.reduceat(
                        np.where(after, full_within, window), full_starts
                    )
                else:
                    after = committable & (within >= n_commit[rep])
                    first_next = np.minimum.reduceat(
                        np.where(after, within, window), starts
                    )
                nc_list = n_commit.tolist()
                fn_list = first_next.tolist()
                for p in pending.tolist():
                    offset = nc_list[p]
                    boundary = fn_list[p]
                    if boundary == offset:
                        # Conflict-truncated: the boundary event is
                        # (stale-)classified committable; reprobe it
                        # against refreshed state next pass.
                        continue
                    if full:
                        lane_index = p
                        seg_count = window
                    else:
                        lane_index = int(active[p])
                        seg_count = int(counts[p])
                    run = min(boundary, seg_count) - offset
                    self._run_scalar(tape, lane_index, int(pos[lane_index]), run)
                    pos[lane_index] += run

    def _commit_fast_l2(
        self,
        rows: "NDArray",
        f_slots: "NDArray",
        f_stamps: "NDArray",
        addr_c: "NDArray",
        es_c: "NDArray",
        l2set_c: "NDArray",
        l2way_c: "NDArray",
        dgroup_c: "NDArray",
        near_c: "NDArray",
    ) -> "NDArray":
        """Commit a window's fast L2 hits (classes 2 and 3) in order.

        ``rows`` index the candidate-compressed classification arrays
        (``es_c``/``l2set_c``/``l2way_c``/``dgroup_c``/``near_c``/
        ``addr_c``); ``f_slots``/``f_stamps`` are already gathered.
        Per event this mirrors the scalar sequence for a read that
        misses the L1 and hits its own tag array with no coherence
        action: the L2 lookup's LRU touch and reuse bump, the crossbar
        traffic count, the d-group hit record, the HIT count, the L1
        miss count, the L1 fill (``writable=False``) at the event's
        ranked stamp, and the peer writable-revoke sweep.  Returns the
        per-event stall (the access latency) for the caller's timing
        bincount.  Small batches (the common shape under the window
        gate) fold the statistics into the per-event loop; large
        batches — L2-hit-heavy workloads — aggregate them vectorized.
        """
        pool = self.pool
        l2 = self.l2
        num_slots = pool.num_slots
        num_cores = self.num_cores
        f_es = es_c[rows]
        f_set = l2set_c[rows]
        f_way = l2way_c[rows]
        f_dg = dgroup_c[rows]
        stall = self._l2_stall[f_es, f_dg]
        # Design-side per-entry updates, in event order per core (the
        # only L2 clock ticks during a vectorized commit, so applying
        # them here in row order is exact).
        lanes = self.lanes
        slots_list = f_slots.tolist()
        n = len(slots_list)
        set_list = f_set.tolist()
        way_list = f_way.tolist()
        small = n < 32
        if small:
            addr_list = addr_c[rows].tolist()
            stamp_list = f_stamps.tolist()
            fill_read = pool.fill_read_stamped
            revoke = pool.revoke_writable
            peers = self._peers
            es_list = f_es.tolist()
            dg_list = f_dg.tolist()
            near_list = near_c[rows].tolist()
            load_misses = pool.load_misses
            l2_reuse = l2.reuse
        for k in range(n):
            slot = slots_list[k]
            lane = lanes[slot // num_cores]
            core = slot - lane.slot_base
            design = lane.design
            tag_array = design.tags[core].array
            set_index = set_list[k]
            way_index = way_list[k]
            entry = tag_array._sets[set_index][way_index]
            entry.reuse += 1
            tag_array._clock += 1
            entry.lru = tag_array._clock
            if small:
                address = addr_list[k]
                fill_read(slot, address, stamp_list[k])
                base = lane.slot_base
                for other in peers[core]:
                    revoke(base + other, address)
                l2_reuse[es_list[k], set_index, way_index] += 1
                load_misses[slot] += 1
                design.stats.counts[_HIT] += 1
                dgroups = design.dgroup_stats
                if near_list[k]:
                    dgroups.closest_hits += 1
                else:
                    dgroups.farther_hits += 1
                design.crossbar.traffic[(core, dg_list[k])] += 1
        if not small:
            f_addr = addr_c[rows]
            # The L1 side in bulk: the window's fills are unique per
            # (slot, set) — conflict truncation guarantees it — and the
            # peer revoke sweep is idempotent, so batching both after
            # the ordered design-entry updates is exact.
            pool.fill_read_batch(f_slots, f_addr, f_stamps)
            lane_base = (f_slots // num_cores) * num_cores
            for core in range(num_cores):
                ps = lane_base + core
                m = ps != f_slots
                if m.any():
                    pool.revoke_writable_batch(ps[m], f_addr[m])
            f_near = near_c[rows]
            # Mirror reuse keeps classification exact for future windows.
            np.add.at(l2.reuse, (f_es, f_set, f_way), 1)
            # Aggregated statistics, per lane.
            counts = np.bincount(f_slots, minlength=num_slots)
            pool.load_misses += counts
            near_counts = np.bincount(f_slots[f_near], minlength=num_slots)
            lane_totals = counts.reshape(-1, num_cores).sum(axis=1)
            near_totals = near_counts.reshape(-1, num_cores).sum(axis=1)
            for lane_index in np.nonzero(lane_totals)[0].tolist():
                design = lanes[lane_index].design
                total = int(lane_totals[lane_index])
                design.stats.counts[_HIT] += total
                dgroups = design.dgroup_stats
                near_total = int(near_totals[lane_index])
                dgroups.closest_hits += near_total
                dgroups.farther_hits += total - near_total
            # Crossbar traffic per (core, d-group) link.
            num_dgroups = l2.num_dgroups
            combo, combo_counts = np.unique(
                f_es * num_dgroups + f_dg, return_counts=True
            )
            fast_designs = self._fast_designs
            for key, count in zip(combo.tolist(), combo_counts.tolist()):
                eslot, group = divmod(key, num_dgroups)
                row, core = divmod(eslot, num_cores)
                fast_designs[row].crossbar.traffic[(core, group)] += count
        self.fast_l2_commits += n
        return stall

    def _run_scalar(
        self, tape: EventTape, lane_index: int, start: int, count: int
    ) -> None:
        """Run ``count`` consecutive events of one lane on the scalar path.

        Exactly the per-event sequence ``CmpSystem`` runs — queue
        drain, L1 probe, ``design.access`` with the lane's virtual
        clock, fill and peer invalidate/downgrade — but batched: the
        lane's per-core instruction and cycle counters are hoisted into
        plain python ints for the whole run and written back once,
        instead of paying numpy scalar extraction per event.  After the
        run, the L2 mirror is re-synced from the design's dirty-address
        marks.
        """
        lane = self.lanes[lane_index]
        design = lane.design
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
        access_design = design.access
        load = pool.load
        store = pool.store
        fill = pool.fill
        invalidate = pool.invalidate
        revoke = pool.revoke_writable
        peers = self._peers
        row = self._fast_row[lane_index]
        probing = row >= 0 and design.dirty_set is None
        n_hit = 0
        fast_est = 0
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
                if probing and result.miss_class is _HIT:
                    n_hit += 1
                    if not (n_hit & 15):
                        fast_est += self._probe_fast(row, core, address)
                fill(slot, address, writable=False)
                for other in peers[core]:
                    revoke(base + other, address)
                stall = result.latency
            ins[core] += gap + colocated + 1
            cyc[core] = now + lat + stall
        self.cycles[base : base + num_cores] = cyc
        self.instructions[base : base + num_cores] = ins
        self.scalar_events += count
        if row >= 0:
            self._l2_events[row] += count
            if probing:
                # Scale the 1-in-16 sample back to a convertible-hit
                # estimate for the wake decision.
                self._l2_hits[row] += fast_est << 4
            dirty = design.dirty_set
            if dirty is not None:  # awake: keep the mirror conservative
                l2 = self.l2
                if dirty.full:
                    l2.refresh_lane(row, design)
                    self._l2_pending[row].clear()
                elif dirty.addresses:
                    shift = l2.offset_bits
                    mask = l2.index_mask
                    touched = {(a >> shift) & mask for a in dirty.addresses}
                    # Conservative: an invalid mirror row classifies as
                    # an L2 miss, which routes the event back to this
                    # scalar path — always correct, just not fast.  The
                    # re-read that restores classification power waits
                    # for the next epoch boundary (see _epoch_refresh).
                    l2.invalidate_sets(row, touched)
                    self._l2_pending[row] |= touched
                dirty.clear()

    def _probe_fast(self, row: int, core: int, address: int) -> bool:
        """Would this (just-accessed) resident block classify fast?

        Sleeping lanes sample their residue's L2 read hits through the
        class-2/3 conditions to estimate how much of the traffic the
        fast tier could convert — the wake signal in _epoch_refresh.
        The post-access entry state is read without touching LRU, so
        this is a pure observation.
        """
        design = self._fast_designs[row]
        entry = design.tags[core].lookup(address, touch=False)
        if entry is None or entry.fwd is None:
            return False
        es = row * self.num_cores + core
        near = entry.fwd.dgroup == self._l2_closest_l[es]
        state = entry.state
        if state is CoherenceState.MODIFIED or state is CoherenceState.EXCLUSIVE:
            return near
        if state is CoherenceState.SHARED:
            return (
                self._l2_no_cr_l[es]
                or near
                or entry.reuse + 2 < self._l2_rep_need_l[es]
            )
        return (
            state is CoherenceState.COMMUNICATION and self._l2_cmig_ok_l[es]
        )

    def _epoch_refresh(self) -> None:
        """Epoch boundary: adapt each fast lane to its residue rate.

        A *loud* awake lane (heavy scalar residue) is put to sleep: its
        cores leave the candidate mask and its dirty-set is detached,
        so residues stop paying any mirror tax — re-validated rows
        would only be re-invalidated.  A calm awake lane gets its small
        pending set re-read, restoring classification power.  A
        sleeping lane wakes — with one full lane re-read, since its
        mirror went stale untracked — when its residue's L2 read hits
        show enough convertible traffic to pay for the re-read.
        """
        from repro.common.dirty import DirtySet

        num_cores = self.num_cores
        for row, design in enumerate(self._fast_designs):
            loud = self._l2_events[row] >= _CALM_EVENTS
            hits = self._l2_hits[row]
            self._l2_events[row] = 0
            self._l2_hits[row] = 0
            base = self._l2_slot_base[row]
            if self._l2_awake[row]:
                if loud:
                    self._l2_awake[row] = False
                    self._l2_n_awake -= 1
                    self._l2_wake_bar[row] = min(
                        self._l2_wake_bar[row] * 2, 1 << 20
                    )
                    self._fast_ok[base : base + num_cores] = False
                    self._l2_pending[row].clear()
                    design.dirty_set = None
                else:
                    pending = self._l2_pending[row]
                    if pending:
                        self.l2.refresh_sets(row, design, pending)
                        pending.clear()
            elif hits >= self._l2_wake_bar[row]:
                self.l2.refresh_lane(row, design)
                self._l2_awake[row] = True
                self._l2_n_awake += 1
                self._fast_ok[base : base + num_cores] = True
                design.dirty_set = DirtySet()

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
