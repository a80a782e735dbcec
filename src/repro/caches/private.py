"""Private-cache baseline: four 2 MB MESI caches on a snoopy bus.

Each core owns a 2 MB, 8-way, single-ported L2 (Table 1: 10-cycle hit).
The caches keep coherent through the classic MESI protocol of Figure 4a
over the 32-cycle split-transaction bus, with cache-to-cache transfers
supplying on-chip copies.

This design exhibits exactly the pathologies the paper attacks:

* **uncontrolled replication** — every reader makes a full data copy,
  shrinking effective capacity (more capacity misses than shared);
* **coherence misses** — every write invalidates readers' copies, so
  read-write sharing ping-pongs through RWS misses;
* **blind migration** — a core that outgrows its 2 MB evicts blocks
  even when a neighbour's cache has idle frames.

The controllers also feed the Figure 7 histograms: reuse counts of
ROS-filled blocks at replacement and of RWS-filled blocks at
invalidation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.caches.base import SetAssociativeArray
from repro.caches.design import L2Design
from repro.coherence import mesi
from repro.coherence.states import CoherenceState
from repro.common.params import (
    BUS_LATENCY,
    DEFAULT_NUM_CORES,
    MEMORY_LATENCY,
    PrivateCacheParams,
)
from repro.common.stats import ReuseStats
from repro.common.types import Access, AccessResult, MissClass
from repro.interconnect.bus import BusOp, BusTransaction, SnoopBus, SnoopReply


@dataclass
class PrivateCacheCounters:
    writebacks: int = 0
    cache_to_cache: int = 0
    upgrades: int = 0


class _PrivateController:
    """One core's MESI cache controller (a bus snooper)."""

    def __init__(self, owner: "PrivateCaches", core: int) -> None:
        self.owner = owner
        self.core = core
        self.array = SetAssociativeArray(owner.params.geometry)

    def probe(self, address: int) -> "CoherenceState | None":
        """Coherence state held here, without touching LRU (bus races)."""
        entry = self.array.lookup(address, touch=False)
        return entry.state if entry is not None else None

    def snoop(self, txn: BusTransaction) -> SnoopReply:
        entry = self.array.lookup(txn.address, touch=False)
        if entry is None:
            return SnoopReply()
        self.owner._touch(address=txn.address)
        reply = SnoopReply(
            shared=entry.state in (CoherenceState.EXCLUSIVE, CoherenceState.SHARED),
            dirty=entry.state is CoherenceState.MODIFIED,
        )
        action = mesi.snoop(entry.state, txn.op)
        if action.flush and entry.state is CoherenceState.MODIFIED:
            # Dirty flush: this cache sources the block.
            reply.supplies_data = True
            self.owner.counters.writebacks += 1
        if action.next_state is CoherenceState.INVALID and entry.valid:
            if entry.fill_class is MissClass.RWS:
                self.owner.reuse.record_rws_invalidation(entry.reuse)
            self.owner._invalidate_l1(self.core, txn.address)
            entry.invalidate()
        else:
            entry.state = action.next_state
        return reply


class PrivateCaches(L2Design):
    """Four private 2 MB L2s kept coherent with MESI."""

    name = "private"

    def __init__(
        self,
        params: "PrivateCacheParams | None" = None,
        num_cores: int = DEFAULT_NUM_CORES,
        bus_latency: int = BUS_LATENCY,
        memory_latency: int = MEMORY_LATENCY,
        bus_occupancy: int = 0,
    ) -> None:
        self.params = params or PrivateCacheParams()
        super().__init__(self.params.geometry.block_size)
        self.num_cores = num_cores
        self.memory_latency = memory_latency
        self.bus = SnoopBus(
            latency=bus_latency, occupancy=bus_occupancy, queue=self.queue
        )
        self.reuse = ReuseStats()
        self.counters = PrivateCacheCounters()
        self.controllers = [
            _PrivateController(self, core) for core in range(num_cores)
        ]
        for core, controller in enumerate(self.controllers):
            self.bus.attach(core, controller)

    def reset_stats(self) -> None:
        """Clear access, reuse, and bus statistics (post-warm-up)."""
        super().reset_stats()
        self.reuse = ReuseStats()
        self.counters = PrivateCacheCounters()
        self.bus.reset_stats()

    def _access(self, access: Access) -> AccessResult:
        controller = self.controllers[access.core]
        array = controller.array
        entry = array.lookup(access.address)

        if entry is not None:
            entry.reuse += 1
            if not access.is_write:
                return AccessResult(MissClass.HIT, self.params.hit_latency)
            action = mesi.processor_write(entry.state)
            latency = self.params.hit_latency
            if action.bus_op is BusOp.BUS_UPG:
                self.counters.upgrades += 1
                result = self.bus.issue(
                    BusTransaction(BusOp.BUS_UPG, access.address, access.core),
                    now=self.current_time,
                )
                latency += result.latency
            entry.state = action.next_state
            entry.dirty = True
            return AccessResult(MissClass.HIT, latency)

        # Miss: broadcast and let the snoop replies classify it.
        op = BusOp.BUS_RDX if access.is_write else BusOp.BUS_RD
        result = self.bus.issue(
            BusTransaction(op, access.address, access.core), now=self.current_time
        )

        if result.dirty:
            miss_class = MissClass.RWS
        elif result.shared:
            miss_class = MissClass.ROS
        else:
            miss_class = MissClass.CAPACITY

        # A miss costs the local tag probe, the bus request, the remote
        # supply (another cache or memory), and the data's return trip
        # over the bus — unlike CMP-NuRAPID, whose shared data array
        # serves remote copies through the crossbar without a bus data
        # transfer (Section 3.1's pointer return).
        on_chip = result.dirty or result.shared
        latency = self.params.tag_latency + result.latency
        if on_chip:
            self.counters.cache_to_cache += 1
            latency += self.params.hit_latency + result.latency
        else:
            latency += self.memory_latency + result.latency

        self._fill(access, miss_class, shared_copy_exists=on_chip and not access.is_write)
        return AccessResult(miss_class, latency)

    def _fill(
        self, access: Access, miss_class: MissClass, shared_copy_exists: bool
    ) -> None:
        array = self.controllers[access.core].array
        victim = array.victim(access.address)
        if victim.valid:
            evicted = array.block_address(
                self.params.geometry.set_index(access.address), victim
            )
            if victim.state is CoherenceState.MODIFIED:
                self.counters.writebacks += 1
            if victim.fill_class is MissClass.ROS:
                self.reuse.record_ros_replacement(victim.reuse)
            self._invalidate_l1(access.core, evicted)
            self._touch(address=evicted)
            # The snoopy bus never hears clean replacements; the mesh
            # backend's directory must (a stale sharer vector would
            # over-approximate forever), so send it a replacement hint.
            hint = getattr(self.bus, "note_eviction", None)
            if hint is not None:
                hint(access.core, evicted)
        if access.is_write:
            state = CoherenceState.MODIFIED
        elif shared_copy_exists:
            state = CoherenceState.SHARED
        else:
            state = CoherenceState.EXCLUSIVE
        array.install(victim, access.address, state)
        victim.fill_class = miss_class
        victim.dirty = access.is_write

    def state_of(self, core: int, address: int) -> CoherenceState:
        """Coherence state of ``address`` in ``core``'s cache (for tests)."""
        entry = self.controllers[core].array.lookup(address, touch=False)
        return entry.state if entry else CoherenceState.INVALID

    def state_dict(self) -> dict:
        from repro.common import serialization

        state = super().state_dict()
        state.update(
            params=serialization.params_state(self.params),
            num_cores=self.num_cores,
            memory_latency=self.memory_latency,
            bus=self.bus.state_dict(),
            reuse=self.reuse.state_dict(),
            counters=serialization.scalar_fields_state(self.counters),
            controllers=[c.array.state_dict() for c in self.controllers],
        )
        return state

    def load_state_dict(self, state: dict, path: str = "design") -> None:
        from repro.common import serialization
        from repro.common.serialization import StateDictError

        super().load_state_dict(state, path)
        self.params = serialization.params_from_state(
            PrivateCacheParams,
            serialization.require(state, "params", path),
            f"{path}.params",
        )
        self.block_size = self.params.geometry.block_size
        self.num_cores = int(serialization.require(state, "num_cores", path))
        self.memory_latency = int(serialization.require(state, "memory_latency", path))
        controllers = serialization.require(state, "controllers", path)
        if len(controllers) != self.num_cores:
            raise StateDictError(
                f"{path}.controllers",
                f"{len(controllers)} controllers in snapshot, "
                f"num_cores is {self.num_cores}",
            )
        # Rebuild the controllers at the snapshot's geometry and rewire
        # them to the *existing* bus object (its event queue, tracer, and
        # attach order must survive the swap).
        self.controllers = [
            _PrivateController(self, core) for core in range(self.num_cores)
        ]
        # Restore the bus/NoC *before* re-attaching: a mesh snapshot may
        # carry a different tile count than the freshly built default,
        # and its load resizes the topology the attach range-checks
        # against.
        self.bus._snoopers = []
        self.bus.load_state_dict(
            serialization.require(state, "bus", path), f"{path}.bus"
        )
        for core, controller in enumerate(self.controllers):
            self.bus.attach(core, controller)
        for i, (controller, array_state) in enumerate(
            zip(self.controllers, controllers)
        ):
            controller.array.load_state_dict(
                array_state, f"{path}.controllers[{i}]"
            )
        self.reuse.load_state_dict(
            serialization.require(state, "reuse", path), f"{path}.reuse"
        )
        serialization.load_scalar_fields(
            self.counters,
            serialization.require(state, "counters", path),
            f"{path}.counters",
        )
        from repro.interconnect.mesh import mesh_noc

        noc = mesh_noc(self)
        if noc is not None:
            # The directory's sharer vectors are derived state: rebuild
            # them from the restored arrays so the directory-vs-tags
            # invariant holds by construction after a resume.
            holders: "dict[int, int]" = {}
            for core, controller in enumerate(self.controllers):
                for set_index, _way, entry in controller.array.valid_entries():
                    address = controller.array.block_address(set_index, entry)
                    holders[address] = holders.get(address, 0) | (1 << core)
            noc.directory.rebuild(holders)


class UpdateProtocolCaches(PrivateCaches):
    """Update-based private caches — the Section 3.2 strawman.

    Instead of invalidating sharers, every write to a shared block
    broadcasts the new data on the bus and updates the copies in place
    (Dragon/Firefly style).  Read-write sharing then never coherence-
    misses, but — as the paper argues against this design — (a) every
    write to shared data occupies the bus with a data transfer, and
    (b) the multiple copies stay resident, keeping uncontrolled
    replication's capacity pressure.  The ablation bench compares its
    bus traffic and miss rates against in-situ communication.
    """

    name = "private-update"

    def _access(self, access: Access) -> AccessResult:
        controller = self.controllers[access.core]
        entry = controller.array.lookup(access.address)

        if entry is not None and access.is_write:
            entry.reuse += 1
            latency = self.params.hit_latency
            if entry.state in (CoherenceState.SHARED,):
                # Broadcast the update; sharers keep their copies.
                self.counters.upgrades += 1
                result = self.bus.issue(
                    BusTransaction(BusOp.WR_THRU, access.address, access.core)
                )
                latency += result.latency
                for other, other_controller in enumerate(self.controllers):
                    if other != access.core:
                        self._invalidate_l1(other, access.address)
                entry.dirty = True
                return AccessResult(MissClass.HIT, latency, write_through=True)
            entry.state = CoherenceState.MODIFIED
            entry.dirty = True
            return AccessResult(MissClass.HIT, latency)

        if entry is not None:
            entry.reuse += 1
            return AccessResult(MissClass.HIT, self.params.hit_latency)

        # Misses: like MESI, except a write miss on shared copies joins
        # the sharers (fills in S) and pushes updates instead of
        # invalidating.
        op = BusOp.BUS_RD if not access.is_write else BusOp.BUS_RD
        result = self.bus.issue(
            BusTransaction(op, access.address, access.core), now=self.current_time
        )
        if result.dirty:
            miss_class = MissClass.RWS
        elif result.shared:
            miss_class = MissClass.ROS
        else:
            miss_class = MissClass.CAPACITY
        on_chip = result.dirty or result.shared
        latency = self.params.tag_latency + result.latency
        if on_chip:
            self.counters.cache_to_cache += 1
            latency += self.params.hit_latency + result.latency
        else:
            latency += self.memory_latency + result.latency
        self._fill(access, miss_class, shared_copy_exists=on_chip)
        if access.is_write and on_chip:
            # The fill left the block exclusive/modified in MESI terms;
            # under an update protocol the sharers keep their copies, so
            # record the write broadcast and demote to shared.
            entry = controller.array.lookup(access.address, touch=False)
            if entry is not None:
                entry.state = CoherenceState.SHARED
                entry.dirty = True
            self.bus.issue(
                BusTransaction(BusOp.WR_THRU, access.address, access.core)
            )
            return AccessResult(
                miss_class, latency + self.bus.latency, write_through=True
            )
        return AccessResult(miss_class, latency)
