"""Reference L1: the set-scan lookup that :class:`repro.caches.l1.L1Cache`
used before its line index.

Kept only as the oracle of ``tests/test_l1.py``'s differential test.
Every lookup scans the address's set for a valid entry with its tag,
so the model has no second structure to keep in step; the L1 under
test must return the same values and snapshot the same state after
every operation.
"""

from __future__ import annotations

from repro.caches.base import SetAssociativeArray
from repro.caches.l1 import L1Entry, L1Stats
from repro.coherence.states import CoherenceState
from repro.common import serialization
from repro.common.params import L1Params
from repro.common.types import block_address

_INVALID = CoherenceState.INVALID


class ReferenceL1:
    """One core's L1, every lookup a scan of the address's set."""

    def __init__(self, params: L1Params) -> None:
        self.params = params
        self.array = SetAssociativeArray(params.geometry, L1Entry)
        self.stats = L1Stats()
        geo = params.geometry
        self._offset_bits = geo.offset_bits
        self._index_mask = geo.num_sets - 1
        self._tag_shift = geo.offset_bits + geo.index_bits

    def probe(self, address: int) -> bool:
        return self.array.lookup(address, touch=False) is not None

    def _entry(self, address: int, touch: bool = True) -> "L1Entry | None":
        array = self.array
        entries = array._sets[(address >> self._offset_bits) & self._index_mask]
        tag = address >> self._tag_shift
        for entry in entries:
            if entry.tag == tag and entry.state is not _INVALID:
                if touch:
                    array._clock += 1
                    entry.lru = array._clock
                return entry
        return None

    def load(self, address: int) -> bool:
        if self._entry(address) is not None:
            self.stats.load_hits += 1
            return True
        self.stats.load_misses += 1
        return False

    def store(self, address: int) -> bool:
        entry = self._entry(address)
        if entry is None:
            self.stats.store_misses += 1
            return False
        if not entry.writable:
            self.stats.store_upgrades += 1
            return False
        self.stats.store_hits += 1
        entry.dirty = True
        return True

    def fill(self, address: int, writable: bool = False, dirty: bool = False) -> None:
        entry = self._entry(address, touch=False)
        if entry is None:
            entry = self.array.victim(address)
            if entry.valid and entry.dirty:
                self.stats.writebacks += 1
            self.array.install(entry, address, CoherenceState.SHARED)
        entry.writable = writable
        entry.dirty = dirty

    def revoke_writable(self, address: int) -> None:
        entry = self._entry(address, touch=False)
        if entry is not None:
            entry.writable = False

    def invalidate(self, address: int) -> bool:
        entry = self._entry(address, touch=False)
        if entry is None:
            return False
        if entry.dirty:
            self.stats.writebacks += 1
        entry.invalidate()
        self.stats.invalidations += 1
        return True

    def invalidate_l2_block(self, l2_block_address: int, l2_block_size: int) -> int:
        l1_size = self.params.geometry.block_size
        span = max(l2_block_size, l1_size)
        base = block_address(l2_block_address, span)
        return sum(
            self.invalidate(base + offset) for offset in range(0, span, l1_size)
        )

    def state_dict(self) -> dict:
        return {
            "params": serialization.params_state(self.params),
            "array": self.array.state_dict(),
            "stats": serialization.scalar_fields_state(self.stats),
        }
