"""CMP-NuRAPID: hybrid private-tag / shared-data L2 (Sections 2 and 3).

The controller combines:

* **private per-core tag arrays** snooping a split-transaction bus,
  with forward pointers into
* **a shared data array** of four single-ported 2 MB d-groups reached
  through a crossbar, with reverse pointers back to the owner tag;

and implements the paper's three optimizations:

* **Controlled replication (CR, Section 3.1)** — a read miss that finds
  a clean on-chip copy takes only a *tag* copy: the holder returns its
  forward pointer on the bus's pointer wires instead of the data.  On
  the block's *second* use the reader replicates the data into its
  closest d-group.  Replacing a shared data copy broadcasts ``BusRepl``
  so tag entries pointing at the dying frame are invalidated — unless
  a sharer has its own replica (its pointer names a different frame).
* **In-situ communication (ISC, Section 3.2)** — the MESIC protocol's C
  state lets a writer and its readers share one *dirty* copy.  A read
  miss on a dirty block relocates the single copy into the reader's
  closest d-group and repoints every sharer; a write miss on a dirty
  block joins the communication group and writes the copy *in place*;
  a write hit in C writes through from L1 and posts a ``BusRdX`` that
  invalidates other sharers' L1 copies while their tag copies stay in C.
* **Capacity stealing (CS, Section 3.3)** — private blocks are placed
  in the closest d-group and promoted there on reuse (*fastest* policy
  by default); replacement demotes private victims step-by-step along
  the core's staggered d-group preference ranking into neighbours'
  under-used d-groups, stopping at a randomly chosen d-group; shared
  victims are evicted (never demoted) to avoid dangling reverse
  pointers.

Timing: a hit costs the tag latency plus the crossbar access to the
serving d-group; a miss adds the 32-cycle bus and either a remote
d-group access (on-chip supply / pointer return) or the 300-cycle
memory.  The ``BusRdX`` posted on a C-state write hit and the L1
write-through are treated as posted (non-blocking) operations — they
consume bus bandwidth (counted in bus stats) but do not stall the
store, mirroring how invalidations retire behind a store buffer.

Concurrency races (Section 3.1's busy bits and queue re-probe) cannot
arise in this atomic trace-driven model, but the same mechanism is used
internally: frames being read mid-operation are *protected* from the
demotion/eviction chains, exactly what the busy bit achieves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

import numpy as np

from repro.caches.design import L2Design
from repro.coherence import mesic
from repro.coherence.mesic import DataAction
from repro.coherence.states import CoherenceState
from repro.common.params import BUS_LATENCY, MEMORY_LATENCY, NurapidParams
from repro.common.rng import DEFAULT_SEED, stream
from repro.common.stats import BusStats, DgroupStats
from repro.common.types import Access, AccessResult, MissClass, block_address
from repro.core.data_array import DataArray
from repro.core.pointers import FramePtr, TagPtr
from repro.core.tag_array import NurapidTagEntry, TagArray
from repro.interconnect.bus import BusOp
from repro.interconnect.crossbar import Crossbar
from repro.latency.tables import dgroup_preferences
from repro.obs import events as ev

M = CoherenceState.MODIFIED
E = CoherenceState.EXCLUSIVE
S = CoherenceState.SHARED
I = CoherenceState.INVALID  # noqa: E741 - matches the protocol literature
C = CoherenceState.COMMUNICATION


@dataclass
class NurapidCounters:
    """Optimization-level event counts (ablation reporting)."""

    pointer_returns: int = 0
    replications: int = 0
    relocations: int = 0
    promotions: int = 0
    demotions: int = 0
    shared_evictions: int = 0
    writebacks: int = 0
    upgrades: int = 0
    c_writes: int = 0
    c_migrations: int = 0


class NurapidCache(L2Design):
    """The CMP-NuRAPID L2 design."""

    name = "cmp-nurapid"

    #: Armed by the harness's ``race-delay-repl`` fault (sticky): the
    #: next shared-frame eviction frees the frame *before* its BusRepl
    #: invalidations deliver, leaving stale tag pointers naming a dead
    #: frame until the deferred delivery fires.
    race_delay_repl = False
    #: Human-readable description of the last delayed BusRepl race.
    last_race = None
    #: Mesh NoC set by :func:`repro.interconnect.mesh.attach_mesh`
    #: (``--bus-model mesh``); None on the bus.  When
    #: attached, sharer enumeration routes through its directory, the
    #: tag install/invalidate chokepoints keep the sharer vectors
    #: current, and invalidations deliver as hop-timed mesh messages.
    noc = None

    def __init__(
        self,
        params: "NurapidParams | None" = None,
        bus_latency: int = BUS_LATENCY,
        memory_latency: int = MEMORY_LATENCY,
        enable_cr: bool = True,
        enable_isc: bool = True,
        seed: int = DEFAULT_SEED,
        preferences: "tuple[tuple[int, ...], ...] | None" = None,
    ) -> None:
        self.params = params or NurapidParams()
        super().__init__(self.params.block_size)
        self.bus_latency = bus_latency
        self.memory_latency = memory_latency
        self.enable_cr = enable_cr
        self.enable_isc = enable_isc
        self.num_cores = self.params.num_cores

        # ``preferences`` overrides Figure 1's staggered ranking (used
        # by the ranking ablation); each row must start with the core's
        # own d-group.
        self.prefs = preferences or dgroup_preferences(
            self.num_cores, self.params.num_dgroups
        )
        self.tags = [
            TagArray(core, self.params.tag_geometry) for core in range(self.num_cores)
        ]
        self.data = DataArray(self.params.num_dgroups, self.params.frames_per_dgroup)
        self.crossbar = Crossbar(self.params.dgroup_latencies, queue=self.queue)
        self.bus_stats = BusStats()
        self.dgroup_stats = DgroupStats()
        self.counters = NurapidCounters()
        self._rng = stream("nurapid.replacement", seed)
        self._protect: "set[FramePtr]" = set()

    def reset_stats(self) -> None:
        """Clear access, d-group, and bus statistics (post-warm-up)."""
        super().reset_stats()
        self.dgroup_stats = DgroupStats()
        self.bus_stats = BusStats()
        self.counters = NurapidCounters()
        if self.noc is not None:
            self.noc.reset_stats()

    # ------------------------------------------------------------------
    # Small helpers

    def closest(self, core: int) -> int:
        """The d-group a core places and promotes its blocks into."""
        return self.prefs[core][0]

    def _record_bus(
        self, op: BusOp, core: "Optional[int]" = None,
        address: "Optional[int]" = None,
    ) -> None:
        self.bus_stats.record(op.value)
        if self.noc is not None and address is not None:
            # MESIC runs over the private tag arrays, not through
            # ``MeshNoC.issue``; report the transaction so request/
            # forward/response hops are still accounted on the mesh.
            self.noc.record_protocol_message(core, address)
        if self.tracer.enabled:
            self.tracer.emit(
                ev.BUS, cycle=self.current_time, core=core, address=address,
                op=op.value,
            )

    def _trace_transition(
        self, core: int, address: int, old: CoherenceState,
        new: CoherenceState, trigger: str,
    ) -> None:
        """Emit a MESIC transition record (call sites guard on enabled)."""
        self.tracer.emit(
            ev.TRANSITION, cycle=self.current_time, core=core, address=address,
            **{"from": old.value, "to": new.value, "trigger": trigger},
        )

    def _dgroup_latency(self, core: int, dgroup: int) -> int:
        return self.crossbar.access(core, dgroup, now=self.current_time)

    def _sharers(self, address: int) -> "Iterator[tuple[int, NurapidTagEntry]]":
        if self.noc is not None:
            # Directory-filtered enumeration: visit only the recorded
            # holders (ascending core order matches the broadcast scan).
            # The lookup guard keeps an over-approximating vector
            # harmless — a recorded non-holder yields nothing, exactly
            # like a snooped agent without a copy.
            for core in self.noc.directory.holders(address):
                entry = self.tags[core].lookup(address, touch=False)
                if entry is not None:
                    yield core, entry
            return
        for core in range(self.num_cores):
            entry = self.tags[core].lookup(address, touch=False)
            if entry is not None:
                yield core, entry

    def _signals(self, address: int, except_core: int) -> "tuple[bool, bool]":
        """Wired-OR shared and dirty bus signals for ``address``."""
        shared = dirty = False
        for core, entry in self._sharers(address):
            if core == except_core:
                continue
            shared = shared or entry.state in (E, S)
            dirty = dirty or entry.state.is_dirty
        return shared, dirty

    def _invalidate_tag(
        self, core: int, entry: NurapidTagEntry, address: int,
        trigger: str = "invalidate",
    ) -> None:
        """Drop one tag copy and (inclusion) its L1 blocks."""
        if self.tracer.enabled and entry.state is not I:
            self._trace_transition(core, address, entry.state, I, trigger)
        entry.invalidate()
        if self.noc is not None:
            self.noc.directory.discard(address, core)
        self._invalidate_l1(core, address)
        self._touch(address=address)

    def _owner_entry(self, ptr: FramePtr) -> NurapidTagEntry:
        rev = self.data.frame(ptr).rev
        if rev is None:
            raise RuntimeError(f"frame {ptr} has no reverse pointer")
        return self.tags[rev.core].entry_at(rev)

    # ------------------------------------------------------------------
    # Replacement machinery (Section 3.3.2)

    def _evict_frame(self, ptr: FramePtr) -> None:
        """Data replacement of one frame, including the BusRepl protocol.

        Shared blocks (S or C) are evicted — never demoted — and the
        BusRepl broadcast invalidates every tag entry whose forward
        pointer names the dying frame.  Sharers holding their own
        replica point elsewhere and survive, as Section 3.1 describes.
        Private blocks invalidate only their owner tag.
        """
        frame = self.data.frame(ptr)
        address = frame.address
        owner = self._owner_entry(ptr)
        if owner.fwd != ptr:
            raise RuntimeError(
                f"reverse pointer of {ptr} names a tag not pointing back"
            )
        if frame.dirty:
            self.counters.writebacks += 1
        shared = owner.state in (S, C)
        if self.tracer.enabled:
            rev = frame.rev
            self.tracer.emit(
                ev.EVICTION, cycle=self.current_time,
                core=rev.core if rev is not None else None,
                address=address, dgroup=ptr.dgroup,
                shared=shared, dirty=frame.dirty,
            )
        if shared:
            self.counters.shared_evictions += 1
            self._record_bus(BusOp.BUS_REPL, address=address)
            if self.race_delay_repl:
                # Injected race: the frame dies now, but the BusRepl
                # invalidations deliver late — sharers keep forward
                # pointers into a freed (soon re-occupied) frame.
                self.race_delay_repl = False
                self.last_race = (
                    f"race-delay-repl: BusRepl @{address:#x} frame {ptr} "
                    "freed before invalidation delivery"
                )
                self.queue.at(
                    self.queue.now + 2 * self.bus_latency,
                    self._deliver_bus_repl, (address, ptr),
                    label="bus-repl-late",
                )
            elif self.noc is not None:
                # Mesh backend: BusRepl invalidations are hop-timed
                # forwards from the home bank (all applied before the
                # frame is freed below, same as the broadcast's sweep).
                self._forward_invalidations(
                    address,
                    [
                        core for core, entry in list(self._sharers(address))
                        if entry.fwd == ptr and not entry.busy
                    ],
                    self._deliver_repl_invalidation, ptr,
                )
            else:
                for core, entry in list(self._sharers(address)):
                    if entry.fwd == ptr and not entry.busy:
                        self._invalidate_tag(core, entry, address, trigger="BusRepl")
        else:
            rev = frame.rev
            assert rev is not None
            self._invalidate_tag(rev.core, owner, address, trigger="eviction")
        self._touch(address=address, frame=ptr)
        self.data.free(ptr)

    def _deliver_bus_repl(self, address: int, ptr: FramePtr) -> None:
        """Late BusRepl delivery (the tail of the injected race)."""
        for core, entry in list(self._sharers(address)):
            if entry.fwd == ptr and not entry.busy:
                self._invalidate_tag(core, entry, address, trigger="BusRepl-late")

    def _deliver_repl_invalidation(
        self, core: int, address: int, ptr: FramePtr
    ) -> None:
        """Mesh delivery of one BusRepl invalidation forward."""
        entry = self.tags[core].lookup(address, touch=False)
        if entry is not None and entry.fwd == ptr and not entry.busy:
            self._invalidate_tag(core, entry, address, trigger="BusRepl")

    def _move_block(self, src: FramePtr, dst: FramePtr) -> None:
        """Move a block between frames, fixing the owner's forward pointer."""
        rev = self.data.frame(src).rev
        assert rev is not None
        self.data.move(src, dst)
        self.tags[rev.core].entry_at(rev).fwd = dst
        self._touch(address=self.data.frame(dst).address, frame=src)
        self._touch(frame=dst)

    def _make_room(
        self,
        core: int,
        dgroup: int,
        stop_group: "Optional[int]" = None,
        protect: "Iterable[FramePtr]" = (),
    ) -> int:
        """Return a free frame index in ``dgroup``, demoting as needed.

        Implements distance replacement: if the d-group is full, a
        random frame is chosen; a *shared* victim is evicted outright
        (shared blocks are never demoted), a *private* victim is demoted
        to the next-fastest d-group in ``core``'s preference ranking,
        recursively.  The chain stops — by evicting — at ``stop_group``
        (specific replacement, when a private victim freed a frame
        there) or at a randomly chosen d-group (non-specific, breaking
        the demotion cycle), or at the last-ranked d-group.
        """
        group = self.data[dgroup]
        if group.has_free():
            return group.allocate()

        pref = self.prefs[core]
        rank = pref.index(dgroup)
        if stop_group is None:
            stop_rank = int(self._rng.integers(rank, len(pref)))
            stop_group = pref[stop_rank]

        protect_set = frozenset(protect) | frozenset(self._protect)
        victim_index = group.random_occupied(self._rng, protect_set)
        if victim_index is None:
            raise RuntimeError(f"d-group {dgroup} fully protected; cannot replace")
        victim_ptr = FramePtr(dgroup, victim_index)
        owner = self._owner_entry(victim_ptr)

        last_rank = rank == len(pref) - 1
        if owner.state in (S, C) or dgroup == stop_group or last_rank:
            self._evict_frame(victim_ptr)
            return group.allocate()

        next_group = pref[rank + 1]
        free_index = self._make_room(core, next_group, stop_group, protect_set)
        self._move_block(victim_ptr, FramePtr(next_group, free_index))
        self.counters.demotions += 1
        if self.tracer.enabled:
            frame = self.data.frame(FramePtr(next_group, free_index))
            self.tracer.emit(
                ev.DEMOTION, cycle=self.current_time,
                core=frame.rev.core if frame.rev is not None else None,
                address=frame.address, dgroup=next_group,
                from_dgroup=dgroup,
            )
        return group.allocate()

    # ------------------------------------------------------------------
    # Promotion and replication

    def _promote(self, core: int, entry: NurapidTagEntry, address: int) -> None:
        """Move a private block toward the core (Section 3.3.1).

        ``fastest`` moves straight to the closest d-group;
        ``next-fastest`` moves one step up the preference ranking.  The
        displaced block — if private — is demoted into the promoted
        block's old frame (a swap); a displaced shared block is evicted
        instead, since shared blocks are never demoted.
        """
        src = entry.fwd
        assert src is not None
        pref = self.prefs[core]
        if self.params.promotion_policy == "fastest":
            target = pref[0]
        else:
            target = pref[max(pref.index(src.dgroup) - 1, 0)]
        if target == src.dgroup:
            return

        self.counters.promotions += 1
        if self.tracer.enabled:
            self.tracer.emit(
                ev.PROMOTION, cycle=self.current_time, core=core,
                address=address, dgroup=target, from_dgroup=src.dgroup,
            )
        group = self.data[target]
        if group.has_free():
            dst = FramePtr(target, group.allocate())
            self._move_block(src, dst)
            return

        victim_index = group.random_occupied(self._rng, frozenset({src}))
        if victim_index is None:
            return  # everything protected; skip the promotion
        victim_ptr = FramePtr(target, victim_index)
        victim_owner = self._owner_entry(victim_ptr)
        if victim_owner.state in (S, C):
            self._evict_frame(victim_ptr)
            dst = FramePtr(target, group.allocate())
            self._move_block(src, dst)
        else:
            # Swap: promoted block takes the victim's frame; the victim
            # demotes into the promoted block's old frame.
            if self.tracer.enabled:
                victim_frame = self.data.frame(victim_ptr)
                self.tracer.emit(
                    ev.DEMOTION, cycle=self.current_time,
                    core=victim_frame.rev.core if victim_frame.rev is not None else None,
                    address=victim_frame.address, dgroup=src.dgroup,
                    from_dgroup=target,
                )
            self._swap_blocks(src, victim_ptr)
            self.counters.demotions += 1

    def _swap_blocks(self, a: FramePtr, b: FramePtr) -> None:
        frame_a = self.data.frame(a)
        frame_b = self.data.frame(b)
        rev_a, rev_b = frame_a.rev, frame_b.rev
        assert rev_a is not None and rev_b is not None
        frame_a.address, frame_b.address = frame_b.address, frame_a.address
        frame_a.rev, frame_b.rev = rev_b, rev_a
        frame_a.dirty, frame_b.dirty = frame_b.dirty, frame_a.dirty
        self.tags[rev_a.core].entry_at(rev_a).fwd = b
        self.tags[rev_b.core].entry_at(rev_b).fwd = a
        self._touch(address=frame_a.address, frame=a)
        self._touch(address=frame_b.address, frame=b)

    def _replicate(self, core: int, entry: NurapidTagEntry, address: int) -> None:
        """CR second use: copy the block into the reader's closest d-group.

        If the replicating tag happens to *own* the source frame (an E
        block can be demoted into a farther d-group and then become
        shared, leaving its owner reading remotely), ownership of the
        old frame is handed to another sharer still pointing at it —
        or, with no such sharer, the now-unreferenced frame is freed.
        Without this, the old frame's reverse pointer would dangle.
        """
        src = entry.fwd
        assert src is not None
        closest = self.closest(core)
        entry.busy = True  # busy bit: the source must survive the chain
        try:
            free_index = self._make_room(core, closest, protect=frozenset({src}))
        finally:
            entry.busy = False
        dst = FramePtr(closest, free_index)
        my_ptr = self.tags[core].ptr_of(address, entry)
        self.data.occupy(dst, block_address(address, self.block_size), my_ptr)
        entry.fwd = dst
        self._touch(address=address, frame=dst)
        self._touch(frame=src)
        src_frame = self.data.frame(src)
        if src_frame.rev == my_ptr:
            for other_core, other in self._sharers(address):
                if other is not entry and other.fwd == src:
                    src_frame.rev = self.tags[other_core].ptr_of(address, other)
                    break
            else:
                if src_frame.dirty:
                    self.counters.writebacks += 1
                self.data.free(src)
        self.counters.replications += 1
        if self.tracer.enabled:
            self.tracer.emit(
                ev.REPLICATION, cycle=self.current_time, core=core,
                address=address, dgroup=closest, from_dgroup=src.dgroup,
            )

    def _migrate_c_block(
        self, core: int, entry: NurapidTagEntry, address: int
    ) -> None:
        """Relocate a C block's single copy next to an active reader.

        Extension beyond the paper's no-exits-from-C policy: the same
        relocation machinery as an ISC read miss, triggered by a run of
        remote reads instead of a tag miss.  All sharers stay in C and
        repoint to the new copy.
        """
        old_ptr = entry.fwd
        assert old_ptr is not None
        sharers = list(self._sharers(address))
        was_dirty = self.data.frame(old_ptr).dirty
        self.data.free(old_ptr)
        closest = self.closest(core)
        stop = old_ptr.dgroup if old_ptr.dgroup != closest else None
        free_index = self._make_room(core, closest, stop)
        new_ptr = FramePtr(closest, free_index)
        rev = self.tags[core].ptr_of(address, entry)
        self.data.occupy(new_ptr, address, rev, dirty=was_dirty)
        for _, sharer in sharers:
            sharer.fwd = new_ptr
        self._touch(address=address, frame=new_ptr)
        self._touch(frame=old_ptr)
        self.counters.c_migrations += 1
        if self.tracer.enabled:
            self.tracer.emit(
                ev.C_MIGRATION, cycle=self.current_time, core=core,
                address=address, dgroup=closest, from_dgroup=old_ptr.dgroup,
            )

    def bandwidth_report(self) -> "dict[str, object]":
        """Traffic summary validating the paper's bandwidth claim.

        Section 3.3.2 argues demotions are infrequent enough that
        single-ported, unpipelined tag arrays and d-groups suffice.
        This report gives per-d-group access counts alongside the
        block-movement (promotion/demotion/migration) counts so the
        claim can be checked quantitatively.
        """
        accesses_per_dgroup = {
            group.index: self.crossbar.dgroup_traffic(group.index)
            for group in self.data.dgroups
        }
        total_accesses = sum(accesses_per_dgroup.values())
        movements = (
            self.counters.promotions
            + self.counters.demotions
            + self.counters.relocations
            + self.counters.c_migrations
        )
        return {
            "accesses_per_dgroup": accesses_per_dgroup,
            "total_data_accesses": total_accesses,
            "block_movements": movements,
            "movement_fraction": movements / total_accesses if total_accesses else 0.0,
        }

    # ------------------------------------------------------------------
    # Sharer invalidation (write upgrades / write misses on clean copies)

    def _invalidate_other_sharers(
        self, address: int, keep_core: int, keep_entry: "Optional[NurapidTagEntry]"
    ) -> None:
        """Invalidate every other tag copy, freeing frames they own.

        If the surviving entry points at a frame owned by a dying
        sharer, ownership transfers (the reverse pointer is rewritten)
        instead of freeing the frame under the survivor's feet.
        """
        victims = [
            (core, entry)
            for core, entry in list(self._sharers(address))
            if core != keep_core
        ]
        if self.noc is not None and victims:
            # Mesh backend: the invalidations travel as hop-timed
            # forward messages from the home directory bank and apply
            # before this call returns.  Per-victim handling is
            # order-independent (each victim touches only its own tag,
            # its own L1, and — as owner — its own frame; ownership
            # transfer rewrites the reverse pointer to the survivor,
            # which no other victim examines), so delivery by hop
            # distance leaves the final state identical to the bus's
            # ascending-core sweep.
            self._forward_invalidations(
                address,
                [core for core, _entry in victims],
                self._deliver_invalidation, keep_core, keep_entry is not None,
            )
            return
        for core, entry in victims:
            self._invalidate_one_sharer(core, entry, address, keep_core, keep_entry)

    def _invalidate_one_sharer(
        self,
        core: int,
        entry: NurapidTagEntry,
        address: int,
        keep_core: int,
        keep_entry: "Optional[NurapidTagEntry]",
    ) -> None:
        """Invalidate one dying sharer, freeing or transferring its frame."""
        keep_ptr = keep_entry.fwd if keep_entry is not None else None
        fwd = entry.fwd
        if fwd is not None:
            frame = self.data.frame(fwd)
            tag_ptr = self.tags[core].ptr_of(address, entry)
            if frame.rev == tag_ptr:  # this sharer owns its frame
                if keep_ptr == fwd and keep_entry is not None:
                    frame.rev = self.tags[keep_core].ptr_of(address, keep_entry)
                else:
                    if frame.dirty:
                        self.counters.writebacks += 1
                    self.data.free(fwd)
            self._touch(frame=fwd)
        self._invalidate_tag(core, entry, address)

    def _deliver_invalidation(
        self, core: int, address: int, keep_core: int, keep_valid: bool
    ) -> None:
        """Mesh delivery of one invalidation forward."""
        entry = self.tags[core].lookup(address, touch=False)
        if entry is None:
            return
        keep_entry = (
            self.tags[keep_core].lookup(address, touch=False)
            if keep_valid else None
        )
        self._invalidate_one_sharer(core, entry, address, keep_core, keep_entry)

    def _forward_invalidations(
        self, address: int, cores: "list[int]", deliver, *args
    ) -> None:
        """Deliver one invalidation forward per core, in arrival order.

        Each forward rides the mesh from the block's home directory
        bank to its target core (the forward leg of the transaction;
        the request leg is accounted by ``_record_bus``) and applies as
        ``deliver(core, address, *args)``.  Forwards apply in hop-time
        order (a stable sort), each after every deferred delivery due
        by its cycle.
        """
        noc = self.noc
        queue = self.queue
        base = max(self.current_time, queue.now)
        queue.run_until(base)
        home = noc.directory.home(address)
        arrivals = [
            (
                base + noc.router_latency
                + noc.hop_latency * noc.topology.hops(home, core),
                core,
            )
            for core in cores
        ]
        for time, core in sorted(arrivals, key=lambda arrival: arrival[0]):
            queue.run_until(time)
            deliver(core, address, *args)

    # ------------------------------------------------------------------
    # Hit handling

    def _hit(self, access: Access, address: int, entry: NurapidTagEntry) -> AccessResult:
        core = access.core
        entry.reuse += 1
        served_from = entry.fwd
        assert served_from is not None
        closest = self.closest(core)
        distance = 0 if served_from.dgroup == closest else 1
        latency = self.params.tag_latency + self._dgroup_latency(
            core, served_from.dgroup
        )

        if access.is_write:
            old_state = entry.state
            action = mesic.processor_write(entry.state)
            if BusOp.BUS_UPG in action.bus_ops:
                self.counters.upgrades += 1
                self._record_bus(BusOp.BUS_UPG, core, address)
                latency += self.bus_latency
                self._invalidate_other_sharers(address, core, entry)
                # The upgraded copy is now private; claim frame ownership.
                frame = self.data.frame(served_from)
                frame.rev = self.tags[core].ptr_of(address, entry)
            if BusOp.BUS_RDX in action.bus_ops:
                # C-state write: posted invalidate of other sharers' L1
                # copies; their tag copies stay in C (Section 3.2).
                self.counters.c_writes += 1
                self._record_bus(BusOp.WR_THRU, core, address)
                self._record_bus(BusOp.BUS_RDX, core, address)
                if self.tracer.enabled:
                    self.tracer.emit(
                        ev.C_WRITE, cycle=self.current_time, core=core,
                        address=address, dgroup=served_from.dgroup,
                    )
                for other in range(self.num_cores):
                    if other != core:
                        self._invalidate_l1(other, address)
            entry.state = action.next_state
            if self.tracer.enabled and old_state is not entry.state:
                self._trace_transition(core, address, old_state, entry.state, "PrWr")
            self.data.frame(served_from).dirty = True
            if (
                entry.state is M
                and not action.bus_ops
                and served_from.dgroup != closest
            ):
                entry.busy = True
                try:
                    self._promote(core, entry, address)
                finally:
                    entry.busy = False
        elif entry.state in (E, M):
            if served_from.dgroup != closest:
                entry.busy = True
                try:
                    self._promote(core, entry, address)
                finally:
                    entry.busy = False
        elif entry.state is S and self.enable_cr:
            uses = entry.reuse + 1  # the fill counted as the first use
            if served_from.dgroup != closest and uses >= self.params.replicate_on_use:
                self._replicate(core, entry, address)
        elif entry.state is C:
            # Optional extension (Section 3.2's future work): a C block
            # stuck far from an active reader migrates to that reader
            # after a run of consecutive remote reads.
            threshold = self.params.c_migration_threshold
            if threshold:
                if distance:
                    entry.remote_reads += 1
                    if entry.remote_reads >= threshold:
                        self._migrate_c_block(core, entry, address)
                        entry.remote_reads = 0
                else:
                    entry.remote_reads = 0

        self.dgroup_stats.record(distance, is_hit=True)
        return AccessResult(
            MissClass.HIT,
            latency,
            dgroup_distance=distance,
            write_through=entry.state is C,
        )

    # ------------------------------------------------------------------
    # Miss handling

    def _handle_tag_victim(self, core: int, victim: NurapidTagEntry, address: int) -> "Optional[int]":
        """Make a tag slot available; returns a specific-stop d-group.

        Section 3.3.2's data-replacement cases.  The return value is the
        d-group where a private victim's data eviction freed a frame
        (the *specific* target for distance replacement), or None when
        demotions must stop at a random d-group (*non-specific*).
        """
        if not victim.valid:
            return None
        set_index = self.params.tag_geometry.set_index(address)
        victim_address = self.tags[core].address_of(set_index, victim)
        fwd = victim.fwd
        assert fwd is not None
        frame = self.data.frame(fwd)
        victim_ptr = self.tags[core].ptr_of(victim_address, victim)
        is_owner = frame.rev == victim_ptr
        closest = self.closest(core)

        if victim.state in (E, M):
            # Private: evict the data wherever it lives.
            if frame.dirty:
                self.counters.writebacks += 1
            self._invalidate_tag(core, victim, victim_address)
            self.data.free(fwd)
            self._touch(frame=fwd)
            return fwd.dgroup if fwd.dgroup != closest else None
        if is_owner:
            # Shared owner: evict the data copy with a BusRepl.
            self._evict_frame(fwd)
            return fwd.dgroup if fwd.dgroup != closest else None
        # Shared non-owner: drop only the tag copy; the data stays for
        # the other sharers.
        self._invalidate_tag(core, victim, victim_address)
        return None

    def _fill_tag(
        self,
        core: int,
        address: int,
        victim: NurapidTagEntry,
        state: CoherenceState,
        fwd: "Optional[FramePtr]",
        fill_class: MissClass,
    ) -> NurapidTagEntry:
        self.tags[core].install(victim, address, state, fwd)
        if self.noc is not None:
            self.noc.directory.add(address, core)
        victim.fill_class = fill_class
        self._touch(address=address)
        if self.tracer.enabled:
            self._trace_transition(core, address, I, state, "fill")
        return victim

    def _fill_data(
        self,
        core: int,
        address: int,
        entry: NurapidTagEntry,
        stop_group: "Optional[int]",
        dirty: bool,
        protect: "Iterable[FramePtr]" = (),
    ) -> FramePtr:
        closest = self.closest(core)
        free_index = self._make_room(core, closest, stop_group, protect)
        ptr = FramePtr(closest, free_index)
        rev = self.tags[core].ptr_of(address, entry)
        self.data.occupy(ptr, address, rev, dirty=dirty)
        entry.fwd = ptr
        self._touch(address=address, frame=ptr)
        return ptr

    def _dirty_holder(self, address: int) -> "tuple[int, NurapidTagEntry]":
        for core, entry in self._sharers(address):
            if entry.state.is_dirty:
                return core, entry
        raise RuntimeError(f"dirty signal without a dirty holder for {address:#x}")

    def _any_supplier(self, address: int, except_core: int) -> "tuple[int, NurapidTagEntry]":
        for core, entry in self._sharers(address):
            if core != except_core and entry.fwd is not None:
                return core, entry
        raise RuntimeError(f"no supplier for {address:#x}")

    def _miss(self, access: Access, address: int) -> AccessResult:
        core = access.core
        shared_sig, dirty_sig = self._signals(address, core)

        if dirty_sig:
            miss_class = MissClass.RWS
        elif shared_sig:
            miss_class = MissClass.ROS
        else:
            miss_class = MissClass.CAPACITY

        victim = self.tags[core].victim(address)
        stop_group = self._handle_tag_victim(core, victim, address)
        base_latency = self.params.tag_latency + self.bus_latency

        if access.is_write:
            latency = self._write_miss(
                access, address, victim, shared_sig, dirty_sig, stop_group, base_latency
            )
        else:
            latency = self._read_miss(
                access, address, victim, shared_sig, dirty_sig, stop_group, base_latency
            )

        self.dgroup_stats.record(None, is_hit=False)
        filled = self.tags[core].lookup(address, touch=False)
        write_through = filled is not None and filled.state is C
        return AccessResult(miss_class, latency, write_through=write_through)

    def _read_miss(
        self,
        access: Access,
        address: int,
        victim: NurapidTagEntry,
        shared_sig: bool,
        dirty_sig: bool,
        stop_group: "Optional[int]",
        base_latency: int,
    ) -> int:
        core = access.core
        self._record_bus(BusOp.BUS_RD, core, address)

        if dirty_sig and not self.enable_isc:
            # MESI behaviour: the dirty holder flushes and drops to S;
            # the (now clean) copy is then shared via CR as usual.
            holder_core, holder = self._dirty_holder(address)
            if self.tracer.enabled:
                self._trace_transition(
                    holder_core, address, holder.state, S, "BusRd-flush"
                )
            holder.state = S
            assert holder.fwd is not None
            self.data.frame(holder.fwd).dirty = False
            self.counters.writebacks += 1
            dirty_sig, shared_sig = False, True

        action = mesic.processor_read(I, shared_sig, dirty_sig)

        if action.data_action is DataAction.RELOCATE:
            # ISC: move the single dirty copy next to this reader.
            sharers = list(self._sharers(address))
            _, holder = self._dirty_holder(address)
            old_ptr = holder.fwd
            assert old_ptr is not None
            self.data.free(old_ptr)
            self._touch(frame=old_ptr)
            entry = self._fill_tag(core, address, victim, C, None, MissClass.RWS)
            old_group = old_ptr.dgroup
            stop = old_group if old_group != self.closest(core) else None
            new_ptr = self._fill_data(core, address, entry, stop, dirty=True)
            for sharer_core, sharer in sharers:
                if self.tracer.enabled and sharer.state is not C:
                    self._trace_transition(
                        sharer_core, address, sharer.state, C, "BusRd-relocate"
                    )
                sharer.state = C
                sharer.fwd = new_ptr
            self.counters.relocations += 1
            if self.tracer.enabled:
                self.tracer.emit(
                    ev.RELOCATION, cycle=self.current_time, core=core,
                    address=address, dgroup=new_ptr.dgroup, from_dgroup=old_group,
                )
            return base_latency + self._dgroup_latency(core, old_group)

        if action.data_action is DataAction.POINTER_ONLY:
            supplier_core, supplier = self._any_supplier(address, core)
            supplier_ptr = supplier.fwd
            assert supplier_ptr is not None
            if supplier.state is E:
                if self.tracer.enabled:
                    self._trace_transition(supplier_core, address, E, S, "BusRd")
                supplier.state = S
            if self.enable_cr and self.params.replicate_on_use > 1:
                # Pointer return: tag copy only, no data copy.
                self._fill_tag(core, address, victim, S, supplier_ptr, MissClass.ROS)
                self.counters.pointer_returns += 1
                if self.tracer.enabled:
                    self.tracer.emit(
                        ev.POINTER_RETURN, cycle=self.current_time, core=core,
                        address=address, dgroup=supplier_ptr.dgroup,
                        supplier=supplier_core,
                    )
            else:
                # Uncontrolled replication: immediate data copy.
                entry = self._fill_tag(core, address, victim, S, None, MissClass.ROS)
                supplier.busy = True
                try:
                    dst = self._fill_data(
                        core, address, entry, None, dirty=False,
                        protect=frozenset({supplier_ptr}),
                    )
                finally:
                    supplier.busy = False
                self.counters.replications += 1
                if self.tracer.enabled:
                    self.tracer.emit(
                        ev.REPLICATION, cycle=self.current_time, core=core,
                        address=address, dgroup=dst.dgroup,
                        from_dgroup=supplier_ptr.dgroup,
                    )
            return base_latency + self._dgroup_latency(core, supplier_ptr.dgroup)

        # FILL_CLOSEST: off-chip capacity miss.  Memory attaches to the
        # bus (Figure 2), so the fill pays a bus data-return trip too.
        entry = self._fill_tag(core, address, victim, E, None, MissClass.CAPACITY)
        self._fill_data(core, address, entry, stop_group, dirty=False)
        return base_latency + self.memory_latency + self.bus_latency

    def _write_miss(
        self,
        access: Access,
        address: int,
        victim: NurapidTagEntry,
        shared_sig: bool,
        dirty_sig: bool,
        stop_group: "Optional[int]",
        base_latency: int,
    ) -> int:
        core = access.core

        if dirty_sig and not self.enable_isc:
            # MESI behaviour: BusRdX invalidates the dirty holder.
            self._record_bus(BusOp.BUS_RDX, core, address)
            holder_core, holder = self._dirty_holder(address)
            old_group = holder.fwd.dgroup if holder.fwd else self.closest(core)
            self._invalidate_other_sharers(address, core, None)
            entry = self._fill_tag(core, address, victim, M, None, MissClass.RWS)
            self._fill_data(core, address, entry, stop_group, dirty=True)
            return base_latency + self._dgroup_latency(core, old_group)

        action = mesic.processor_write(I, shared_sig, dirty_sig)

        if action.data_action is DataAction.WRITE_IN_PLACE:
            # ISC: join the communication group; the copy stays put,
            # close to the reader(s).
            self._record_bus(BusOp.BUS_RD, core, address)
            self._record_bus(BusOp.BUS_RDX, core, address)
            sharers = list(self._sharers(address))
            _, holder = self._dirty_holder(address)
            ptr = holder.fwd
            assert ptr is not None
            for sharer_core, sharer in sharers:
                if self.tracer.enabled and sharer.state is not C:
                    self._trace_transition(
                        sharer_core, address, sharer.state, C, "BusRdX-join"
                    )
                sharer.state = C
            self._fill_tag(core, address, victim, C, ptr, MissClass.RWS)
            self.data.frame(ptr).dirty = True
            if self.tracer.enabled:
                self.tracer.emit(
                    ev.C_WRITE, cycle=self.current_time, core=core,
                    address=address, dgroup=ptr.dgroup, join=True,
                )
            for other in range(self.num_cores):
                if other != core:
                    self._invalidate_l1(other, address)
            return base_latency + self._dgroup_latency(core, ptr.dgroup)

        # FILL_CLOSEST: MESI-style write miss.
        self._record_bus(BusOp.BUS_RDX, core, address)
        if shared_sig:
            supplier_core, supplier = self._any_supplier(address, core)
            assert supplier.fwd is not None
            source_group = supplier.fwd.dgroup
            self._invalidate_other_sharers(address, core, None)
            entry = self._fill_tag(core, address, victim, M, None, MissClass.ROS)
            self._fill_data(core, address, entry, stop_group, dirty=True)
            return base_latency + self._dgroup_latency(core, source_group)

        entry = self._fill_tag(core, address, victim, M, None, MissClass.CAPACITY)
        self._fill_data(core, address, entry, stop_group, dirty=True)
        return base_latency + self.memory_latency + self.bus_latency

    # ------------------------------------------------------------------
    # Versioned checkpointing

    def state_dict(self) -> dict:
        from repro.common import serialization

        state = super().state_dict()
        state.update(
            params=serialization.params_state(self.params),
            bus_latency=self.bus_latency,
            memory_latency=self.memory_latency,
            enable_cr=self.enable_cr,
            enable_isc=self.enable_isc,
            prefs=tuple(tuple(row) for row in self.prefs),
            tags=[tags.state_dict() for tags in self.tags],
            data=self.data.state_dict(),
            crossbar=self.crossbar.state_dict(),
            bus_stats=self.bus_stats.state_dict(),
            dgroup_stats=self.dgroup_stats.state_dict(),
            counters=serialization.scalar_fields_state(self.counters),
            rng=serialization.rng_state(self._rng),
            protect=sorted((ptr.dgroup, ptr.frame) for ptr in self._protect),
            race_delay_repl=bool(self.race_delay_repl),
            last_race=self.last_race,
        )
        if self.noc is not None:
            # Counters and geometry only; the directory's sharer
            # vectors are derived state, rebuilt from the tag arrays on
            # load (see ``_rebuild_directory``).
            state["noc"] = self.noc.state_dict()
        return state

    def load_state_dict(self, state: dict, path: str = "design") -> None:
        from repro.common import serialization
        from repro.common.serialization import StateDictError, require

        super().load_state_dict(state, path)
        self.params = serialization.params_from_state(
            NurapidParams, require(state, "params", path), f"{path}.params"
        )
        self.block_size = self.params.block_size
        self.num_cores = self.params.num_cores
        self.bus_latency = int(require(state, "bus_latency", path))
        self.memory_latency = int(require(state, "memory_latency", path))
        self.enable_cr = bool(require(state, "enable_cr", path))
        self.enable_isc = bool(require(state, "enable_isc", path))
        self.prefs = tuple(tuple(row) for row in require(state, "prefs", path))
        tags = require(state, "tags", path)
        if len(tags) != self.num_cores:
            raise StateDictError(
                f"{path}.tags",
                f"{len(tags)} tag arrays in snapshot, num_cores is "
                f"{self.num_cores}",
            )
        self.tags = [
            TagArray(core, self.params.tag_geometry)
            for core in range(self.num_cores)
        ]
        for core, (array, tag_state) in enumerate(zip(self.tags, tags)):
            array.load_state_dict(tag_state, f"{path}.tags[{core}]")
        self.data = DataArray(
            self.params.num_dgroups, self.params.frames_per_dgroup
        )
        self.data.load_state_dict(require(state, "data", path), f"{path}.data")
        # The crossbar object is kept (its event queue must survive);
        # only its contents are restored.
        self.crossbar.load_state_dict(
            require(state, "crossbar", path), f"{path}.crossbar"
        )
        self.bus_stats.load_state_dict(
            require(state, "bus_stats", path), f"{path}.bus_stats"
        )
        self.dgroup_stats.load_state_dict(
            require(state, "dgroup_stats", path), f"{path}.dgroup_stats"
        )
        serialization.load_scalar_fields(
            self.counters, require(state, "counters", path), f"{path}.counters"
        )
        serialization.load_rng(self._rng, require(state, "rng", path), f"{path}.rng")
        self._protect = {
            FramePtr(int(dgroup), int(frame))
            for dgroup, frame in require(state, "protect", path)
        }
        self.race_delay_repl = bool(require(state, "race_delay_repl", path))
        self.last_race = state.get("last_race")
        if self.noc is not None:
            noc_state = state.get("noc")
            if noc_state is not None:
                # Resizes the topology/directory when the snapshot's
                # tile count differs from the freshly built default.
                self.noc.load_state_dict(noc_state, f"{path}.noc")
            self._rebuild_directory()

    def _rebuild_directory(self) -> None:
        """Recompute the mesh directory's vectors from the tag arrays.

        Runs after every state restore, making the directory-vs-tags
        consistency invariant hold by construction on resume.
        """
        holders: "dict[int, int]" = {}
        for core, tag_array in enumerate(self.tags):
            for set_index, _way, entry in tag_array.array.valid_entries():
                address = tag_array.array.block_address(set_index, entry)
                holders[address] = holders.get(address, 0) | (1 << core)
        self.noc.directory.rebuild(holders)

    # ------------------------------------------------------------------
    # Entry point and invariants

    def _access(self, access: Access) -> AccessResult:
        address = access.address & self._block_mask
        entry = self.tags[access.core].array.lookup(address)
        if entry is not None:
            return self._hit(access, address, entry)
        return self._miss(access, address)

    def state_of(self, core: int, address: int) -> CoherenceState:
        entry = self.tags[core].lookup(
            block_address(address, self.block_size), touch=False
        )
        return entry.state if entry else I

    def check_invariants(self) -> None:
        """Verify pointer and protocol integrity (tests/debug only).

        Delegates to :func:`repro.harness.invariants.check_nurapid`
        (imported lazily — the harness imports this module), which
        checks tag-pointer/frame consistency, frame ownership and
        free-list accounting, MESIC exclusivity and C-state legality,
        and the single-dirty-copy rule.  Raises
        :class:`~repro.harness.invariants.InvariantViolation` (an
        :class:`AssertionError` subclass) with structured context.
        """
        from repro.harness.invariants import check_nurapid

        check_nurapid(self)
