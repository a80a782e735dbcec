"""Per-core L1 cache (Section 4.1: 64 KB, 2-way, 64 B, 3 cycles).

The L1 filters accesses before they reach the L2 design under study.
Inclusion with the L2 is maintained by the system: whenever an L2 block
is evicted or invalidated, :meth:`L1Cache.invalidate_l2_block`
invalidates every L1 block covered by the (larger) L2 block.

Each L1 block carries a **writable** permission bit: stores complete
locally only while it is set; otherwise they are sent to the L2, which
grants (or, for CMP-NuRAPID's write-through C blocks, withholds)
permission.  This is how L2-level coherence observes first writes
without simulating a full L1 coherence protocol.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.caches.base import Entry, SetAssociativeArray
from repro.coherence.states import CoherenceState
from repro.common import serialization
from repro.common.params import L1Params
from repro.common.types import block_address

_INVALID = CoherenceState.INVALID


@dataclass(slots=True)
class L1Entry(Entry):
    """L1 block with a store-permission bit."""

    writable: bool = False

    def invalidate(self) -> None:  # noqa: D102 - see Entry.invalidate
        # Explicit base call: @dataclass(slots=True) rebuilds the class,
        # which breaks zero-argument super()'s __class__ cell.
        Entry.invalidate(self)
        self.writable = False


@dataclass(slots=True)
class L1Stats:
    load_hits: int = 0
    load_misses: int = 0
    store_hits: int = 0
    store_upgrades: int = 0
    store_misses: int = 0
    writebacks: int = 0
    invalidations: int = 0

    @property
    def accesses(self) -> int:
        return (
            self.load_hits
            + self.load_misses
            + self.store_hits
            + self.store_upgrades
            + self.store_misses
        )

    @property
    def misses(self) -> int:
        return self.load_misses + self.store_misses

    @property
    def miss_rate(self) -> float:
        total = self.accesses
        return self.misses / total if total else 0.0


class L1Cache:
    """One core's L1 (instruction+data modelled as a unified array).

    The array's sets are the storage: victim choice, LRU stamps, the
    invariant checker and snapshots read them.  :attr:`lines` indexes
    them: it maps each valid block's line number (``address >>
    offset_bits``) to its entry and holds nothing else, so a lookup is
    one dict probe instead of a scan of the set.  Only this class's
    mutators (:meth:`fill`, :meth:`invalidate`,
    :meth:`load_state_dict`) change which entries are valid, and each
    keeps the index in step.
    """

    def __init__(self, params: L1Params) -> None:
        self.params = params
        self.array = SetAssociativeArray(params.geometry, L1Entry)
        self.stats = L1Stats()
        self.lines: "dict[int, L1Entry]" = {}
        self._derive_shifts()

    def _derive_shifts(self) -> None:
        """Hot-path constants of the array's geometry, and its sets,
        which the incremental invariant check scans."""
        geo = self.params.geometry
        self._offset_bits = geo.offset_bits
        self._index_bits = geo.index_bits
        self._index_mask = geo.num_sets - 1
        self._tag_shift = geo.offset_bits + geo.index_bits
        self._sets = self.array._sets

    @property
    def latency(self) -> int:
        return self.params.latency

    def probe(self, address: int) -> bool:
        """True if ``address`` is present (no LRU update)."""
        return address >> self._offset_bits in self.lines

    def load(self, address: int) -> bool:
        """Load reference; True on an L1 hit (no L2 access needed)."""
        entry = self.lines.get(address >> self._offset_bits)
        if entry is not None:
            array = self.array
            array._clock += 1
            entry.lru = array._clock
            self.stats.load_hits += 1
            return True
        self.stats.load_misses += 1
        return False

    def store(self, address: int) -> bool:
        """Store reference; True when it completes locally.

        Returns False when the L2 must see the store: the block is
        missing, or present without write permission.
        """
        entry = self.lines.get(address >> self._offset_bits)
        if entry is not None:
            array = self.array
            array._clock += 1
            entry.lru = array._clock
            if not entry.writable:
                self.stats.store_upgrades += 1
                return False
            self.stats.store_hits += 1
            entry.dirty = True
            return True
        self.stats.store_misses += 1
        return False

    def fill(self, address: int, writable: bool = False, dirty: bool = False) -> None:
        """Install ``address``'s block after an L2 supply."""
        line = address >> self._offset_bits
        entry = self.lines.get(line)
        if entry is None:
            entry = self.array.victim(address)  # type: ignore[assignment]
            if entry.state is not _INVALID:
                if entry.dirty:
                    self.stats.writebacks += 1
                # The victim shares the new line's set: its line is
                # its tag above that set index.
                del self.lines[
                    (entry.tag << self._index_bits) | (line & self._index_mask)
                ]
            self.array.install(entry, address, CoherenceState.SHARED)
            self.lines[line] = entry
        entry.writable = writable
        entry.dirty = dirty

    def revoke_writable(self, address: int) -> None:
        """Downgrade: another core read the block; next store must ask."""
        entry = self.lines.get(address >> self._offset_bits)
        if entry is not None:
            entry.writable = False

    def invalidate(self, address: int) -> bool:
        """Invalidate the L1 block holding ``address`` if present."""
        entry = self.lines.pop(address >> self._offset_bits, None)
        if entry is None:
            return False
        if entry.dirty:
            self.stats.writebacks += 1
        entry.invalidate()
        self.stats.invalidations += 1
        return True

    def invalidate_l2_block(self, l2_block_address: int, l2_block_size: int) -> int:
        """Inclusion: drop every L1 block inside an evicted L2 block."""
        l1_size = self.params.geometry.block_size
        base = block_address(l2_block_address, max(l2_block_size, l1_size))
        count = 0
        for offset in range(0, max(l2_block_size, l1_size), l1_size):
            if self.invalidate(base + offset):
                count += 1
        return count

    def state_dict(self) -> dict:
        return {
            "params": serialization.params_state(self.params),
            "array": self.array.state_dict(),
            "stats": serialization.scalar_fields_state(self.stats),
        }

    def load_state_dict(self, state: dict, path: str = "l1") -> None:
        """Rebuild the array from the snapshot's geometry, then inject.

        The params in the snapshot win over the ones this instance was
        constructed with, so a checkpoint taken on a non-default L1
        geometry restores onto a default-built system.
        """
        self.params = serialization.params_from_state(
            L1Params, serialization.require(state, "params", path), f"{path}.params"
        )
        self.array = SetAssociativeArray(self.params.geometry, L1Entry)
        self.array.load_state_dict(
            serialization.require(state, "array", path), f"{path}.array"
        )
        serialization.load_scalar_fields(
            self.stats, serialization.require(state, "stats", path), f"{path}.stats"
        )
        # The array object changed: re-derive its mirrors and index it.
        self._derive_shifts()
        self.lines = {
            (entry.tag << self._index_bits) | set_index: entry
            for set_index, _way, entry in self.array.valid_entries()
        }
