"""Structure-of-arrays L1 pool: many cores' L1s as stacked numpy state.

One :class:`L1Pool` holds the L1 caches of every core of every cell in
a batch as parallel arrays indexed ``[slot, set, way]``, where a *slot*
is one (cell, core) pair.  The pool exposes two faces:

* **vectorized primitives** — :meth:`probe` (masked tag probe) and
  :meth:`classify` (hit/miss + store-permission classification) read
  state for many accesses in one array op; :meth:`commit_hits` applies
  the recency/dirty/counter updates of a *run of guaranteed pure L1
  hits* in event order (the ring-buffer recency update is an
  occurrence-ranked LRU stamp assignment);
* **scalar ops** — :meth:`load` / :meth:`store` / :meth:`fill` /
  :meth:`revoke_writable` / :meth:`invalidate` /
  :meth:`invalidate_l2_block` mirror :class:`repro.caches.l1.L1Cache`
  bit for bit, so the engine's scalar fallback path (events that reach
  the L2) mutates exactly the state the scalar engine would.  They run
  once per L2-reaching event, so they index flat array views with
  python ints instead of paying tuple fancy-indexing per touch.

The pool round-trips losslessly with real :class:`L1Cache` objects via
:meth:`from_caches` / :meth:`write_back`: every field the L1 ever
mutates (tag, validity, writable, dirty, LRU stamp, LRU clock, stats)
is represented.  L1 entries never carry ``reuse``/``fill_class``
payload (only L2 designs use those), which is what makes the six-array
representation complete.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.caches.l1 import L1Cache, L1Stats
from repro.coherence.states import CoherenceState
from repro.common.params import L1Params
from repro.common.types import block_address

if TYPE_CHECKING:  # pragma: no cover
    from numpy.typing import NDArray

#: L1Stats fields mirrored as per-slot counter arrays, in field order.
COUNTER_FIELDS = (
    "load_hits",
    "load_misses",
    "store_hits",
    "store_upgrades",
    "store_misses",
    "writebacks",
    "invalidations",
)

_INVALID = CoherenceState.INVALID
_SHARED = CoherenceState.SHARED


class L1Pool:
    """The L1s of ``num_slots`` (cell, core) pairs as stacked arrays."""

    def __init__(self, num_slots: int, params: "L1Params | None" = None) -> None:
        self.params = params or L1Params()
        geo = self.params.geometry
        self.num_slots = num_slots
        self.num_sets = geo.num_sets
        self.ways = geo.associativity
        self.offset_bits = geo.offset_bits
        self.index_mask = geo.num_sets - 1
        self.tag_shift = geo.offset_bits + geo.index_bits
        self.block_size = geo.block_size
        shape = (num_slots, self.num_sets, self.ways)
        self.tags = np.zeros(shape, dtype=np.int64)
        self.valid = np.zeros(shape, dtype=bool)
        self.writable = np.zeros(shape, dtype=bool)
        self.dirty = np.zeros(shape, dtype=bool)
        self.lru = np.zeros(shape, dtype=np.int64)
        #: Per-slot monotonic LRU clock (``SetAssociativeArray._clock``).
        self.clock = np.zeros(num_slots, dtype=np.int64)
        # Per-slot L1Stats counters; attributes for the scalar fast
        # path, with ``counters`` mapping field names to the same
        # arrays for bulk reset / re-sync.
        self.load_hits = np.zeros(num_slots, dtype=np.int64)
        self.load_misses = np.zeros(num_slots, dtype=np.int64)
        self.store_hits = np.zeros(num_slots, dtype=np.int64)
        self.store_upgrades = np.zeros(num_slots, dtype=np.int64)
        self.store_misses = np.zeros(num_slots, dtype=np.int64)
        self.writebacks = np.zeros(num_slots, dtype=np.int64)
        self.invalidations = np.zeros(num_slots, dtype=np.int64)
        self.counters = {name: getattr(self, name) for name in COUNTER_FIELDS}
        # Flat views (C-contiguous reshape) for the scalar ops: element
        # ``(slot, set, way)`` lives at ``(slot·num_sets + set)·ways + way``.
        self.tags_flat = self.tags.reshape(-1)
        self.valid_flat = self.valid.reshape(-1)
        self.writable_flat = self.writable.reshape(-1)
        self.dirty_flat = self.dirty.reshape(-1)
        self.lru_flat = self.lru.reshape(-1)
        self.index_bits = geo.index_bits
        # Per-slot map of resident block key (address >> offset_bits,
        # i.e. tag·num_sets + set) → flat element index.  Presence only
        # changes on installs and invalidations — a pure hit never
        # installs or evicts a line — so only the scalar ops maintain
        # these maps; the pure-hit primitives read the arrays.
        self.block_maps: "list[dict[int, int]]" = [
            {} for _ in range(num_slots)
        ]

    # ------------------------------------------------------------------
    # Vectorized primitives (the batch hot path)

    def probe(
        self, slots: "NDArray", sets: "NDArray", tags: "NDArray"
    ) -> "tuple[NDArray, NDArray]":
        """Masked tag probe for many accesses at once; no state change.

        Returns ``(hit, way)`` arrays: ``hit[i]`` is True when slot
        ``slots[i]`` holds ``tags[i]`` valid in set ``sets[i]``, and
        ``way[i]`` is its way index (0 when missing).
        """
        lines = self.valid[slots, sets] & (self.tags[slots, sets] == tags[:, None])
        hit = lines.any(axis=1)
        way = lines.argmax(axis=1)
        return hit, way

    def classify(
        self,
        slots: "NDArray",
        sets: "NDArray",
        tags: "NDArray",
        is_write: "NDArray",
    ) -> "tuple[NDArray, NDArray, NDArray]":
        """Hit/miss + permission classification for many accesses.

        Returns ``(pure, hit, way)``.  ``pure[i]`` is True when the
        access completes inside the L1 without touching the L2: a load
        hit, or a store hit on a writable line.  Everything else (miss,
        or store hit needing an upgrade) must take the scalar fallback.
        """
        hit, way = self.probe(slots, sets, tags)
        pure = hit & (~is_write | self.writable[slots, sets, way])
        return pure, hit, way

    def commit_hits(
        self,
        slots: "NDArray",
        sets: "NDArray",
        ways: "NDArray",
        is_write: "NDArray",
    ) -> None:
        """Apply a run of *pure L1 hits* (already classified) in order.

        Mirrors what ``L1Cache.load``/``store`` do on a hit: bump the
        slot's LRU clock once per access, stamp the touched line with
        the new clock value, count the hit, and set the dirty bit on
        stores.  Events must be passed in execution order; several
        events may touch the same slot (the per-slot stamp sequence is
        the occurrence rank, and a line touched twice keeps the *last*
        stamp, exactly as the scalar clock would leave it).
        """
        n = slots.shape[0]
        if not n:
            return
        # Occurrence rank of each event within its slot: stable-sort by
        # slot, then rank within each equal-slot run.  new_lru is the
        # scalar clock value the event would have observed.
        order = np.argsort(slots, kind="stable")
        sorted_slots = slots[order]
        boundaries = np.empty(n, dtype=bool)
        boundaries[0] = True
        np.not_equal(sorted_slots[1:], sorted_slots[:-1], out=boundaries[1:])
        index = np.arange(n)
        run_starts = index[boundaries]
        rank = index - np.repeat(run_starts, np.diff(np.append(run_starts, n)))
        new_lru = self.clock[sorted_slots] + rank + 1
        # Fancy assignment is last-write-wins in index order; ``order``
        # preserves event order within a slot, so a line touched twice
        # ends with its latest stamp.
        self.lru[sorted_slots, sets[order], ways[order]] = new_lru
        counts = np.bincount(slots, minlength=self.num_slots)
        self.clock += counts
        if is_write.any():
            ws, wt, ww = slots[is_write], sets[is_write], ways[is_write]
            self.dirty[ws, wt, ww] = True
            store_counts = np.bincount(ws, minlength=self.num_slots)
            self.store_hits += store_counts
            self.load_hits += counts - store_counts
        else:
            self.load_hits += counts

    # ------------------------------------------------------------------
    # Scalar ops (the fallback path) — bit-exact mirrors of L1Cache

    def load(self, slot: int, address: int) -> bool:
        """Mirror of ``L1Cache.load``: True on a hit (LRU touched)."""
        j = self.block_maps[slot].get(address >> self.offset_bits, -1)
        if j >= 0:
            clock = self.clock[slot] + 1
            self.clock[slot] = clock
            self.lru_flat[j] = clock
            self.load_hits[slot] += 1
            return True
        self.load_misses[slot] += 1
        return False

    def store(self, slot: int, address: int) -> bool:
        """Mirror of ``L1Cache.store``: True when it completes locally.

        A store hit touches the LRU *before* the permission check, as
        the scalar L1 does; a hit without write permission counts a
        store upgrade and returns False.
        """
        j = self.block_maps[slot].get(address >> self.offset_bits, -1)
        if j >= 0:
            clock = self.clock[slot] + 1
            self.clock[slot] = clock
            self.lru_flat[j] = clock
            if not self.writable_flat[j]:
                self.store_upgrades[slot] += 1
                return False
            self.store_hits[slot] += 1
            self.dirty_flat[j] = True
            return True
        self.store_misses[slot] += 1
        return False

    def fill(
        self, slot: int, address: int, writable: bool = False, dirty: bool = False
    ) -> None:
        """Mirror of ``L1Cache.fill`` (victim: first invalid way, else LRU)."""
        block_map = self.block_maps[slot]
        key = address >> self.offset_bits
        j = block_map.get(key, -1)
        if j < 0:
            set_index = key & self.index_mask
            base = (slot * self.num_sets + set_index) * self.ways
            valid = self.valid_flat
            j = -1
            for candidate in range(base, base + self.ways):
                if not valid[candidate]:
                    j = candidate
                    break
            if j < 0:
                lru = self.lru_flat
                j = base
                best = lru[base]
                for candidate in range(base + 1, base + self.ways):
                    if lru[candidate] < best:
                        best = lru[candidate]
                        j = candidate
            if valid[j]:
                if self.dirty_flat[j]:
                    self.writebacks[slot] += 1
                del block_map[(int(self.tags_flat[j]) << self.index_bits) | set_index]
            self.tags_flat[j] = key >> self.index_bits
            valid[j] = True
            block_map[key] = j
            clock = self.clock[slot] + 1
            self.clock[slot] = clock
            self.lru_flat[j] = clock
        self.writable_flat[j] = writable
        self.dirty_flat[j] = dirty

    def revoke_writable(self, slot: int, address: int) -> None:
        """Mirror of ``L1Cache.revoke_writable`` (no LRU touch)."""
        j = self.block_maps[slot].get(address >> self.offset_bits, -1)
        if j >= 0:
            self.writable_flat[j] = False

    def invalidate(self, slot: int, address: int) -> bool:
        """Mirror of ``L1Cache.invalidate``: tag and LRU stamp are kept."""
        key = address >> self.offset_bits
        j = self.block_maps[slot].get(key, -1)
        if j < 0:
            return False
        if self.dirty_flat[j]:
            self.writebacks[slot] += 1
        self.valid_flat[j] = False
        self.dirty_flat[j] = False
        self.writable_flat[j] = False
        del self.block_maps[slot][key]
        self.invalidations[slot] += 1
        return True

    def invalidate_l2_block(
        self, slot: int, l2_block_address: int, l2_block_size: int
    ) -> int:
        """Mirror of ``L1Cache.invalidate_l2_block`` (inclusion sweep)."""
        l1_size = self.block_size
        span = max(l2_block_size, l1_size)
        base = block_address(l2_block_address, span)
        count = 0
        for offset in range(0, span, l1_size):
            if self.invalidate(slot, base + offset):
                count += 1
        return count

    # ------------------------------------------------------------------
    # Re-sync with scalar L1 objects

    def reset_stats(self, slots: "slice | Sequence[int]") -> None:
        """Zero the given slots' counters (the warm-up boundary)."""
        for array in self.counters.values():
            array[slots] = 0

    def slot_stats(self, slot: int) -> L1Stats:
        """The given slot's counters as a scalar :class:`L1Stats`."""
        return L1Stats(
            **{name: int(self.counters[name][slot]) for name in COUNTER_FIELDS}
        )

    @classmethod
    def from_caches(cls, l1s: "Sequence[L1Cache]") -> "L1Pool":
        """Build a pool mirroring ``l1s`` (one slot per cache), losslessly."""
        if not l1s:
            raise ValueError("from_caches needs at least one L1Cache")
        params = l1s[0].params
        pool = cls(len(l1s), params)
        for slot, l1 in enumerate(l1s):
            if l1.params.geometry != params.geometry:
                raise ValueError("all L1s in a pool must share one geometry")
            block_map = pool.block_maps[slot]
            for set_index, way, entry in l1.array.entries():
                valid = entry.state is not _INVALID
                pool.tags[slot, set_index, way] = entry.tag
                pool.valid[slot, set_index, way] = valid
                pool.writable[slot, set_index, way] = entry.writable
                pool.dirty[slot, set_index, way] = entry.dirty
                pool.lru[slot, set_index, way] = entry.lru
                if valid:
                    block_map[(entry.tag << pool.index_bits) | set_index] = (
                        slot * pool.num_sets + set_index
                    ) * pool.ways + way
            pool.clock[slot] = l1.array._clock
            for name in COUNTER_FIELDS:
                pool.counters[name][slot] = getattr(l1.stats, name)
        return pool

    def write_back(self, l1s: "Sequence[L1Cache]") -> None:
        """Write the pool's state into scalar ``l1s`` (inverse of
        :meth:`from_caches`)."""
        if len(l1s) != self.num_slots:
            raise ValueError(
                f"pool has {self.num_slots} slots, got {len(l1s)} caches"
            )
        for slot, l1 in enumerate(l1s):
            for set_index, way, entry in l1.array.entries():
                entry.tag = int(self.tags[slot, set_index, way])
                entry.state = (
                    _SHARED if self.valid[slot, set_index, way] else _INVALID
                )
                entry.writable = bool(self.writable[slot, set_index, way])
                entry.dirty = bool(self.dirty[slot, set_index, way])
                entry.lru = int(self.lru[slot, set_index, way])
                entry.reuse = 0
                entry.fill_class = None
            l1.array._clock = int(self.clock[slot])
            l1.stats = self.slot_stats(slot)


__all__ = ["COUNTER_FIELDS", "L1Pool"]
