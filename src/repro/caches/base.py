"""Generic set-associative array with pluggable entries and victim policy.

Every tag structure in the repo — L1s, the uniform-shared L2, private
L2s, SNUCA banks, and CMP-NuRAPID's private tag arrays — is built on
this array.  Entries carry coherence state and per-design payload;
replacement is LRU by default with an optional category ordering (CMP-
NuRAPID prefers to replace invalid, then private, then shared entries;
Section 3.3.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

from repro.coherence.states import CoherenceState
from repro.common.params import CacheGeometry


@dataclass(slots=True)
class Entry:
    """One tag entry.

    Slotted: a filled 8 MB L2 holds 65,536 entries (131,072 in CMP-
    NuRAPID's doubled tag arrays) and the lookup/victim scans read
    their attributes on every access, so the per-instance dict is worth
    eliminating (construction is ~2x faster and attribute loads skip a
    dict probe).  Arrays create entries on first fill, not up front;
    see :class:`SetAssociativeArray`.

    Attributes:
        tag: address tag (valid only when ``state`` is valid).
        state: coherence state; ``INVALID`` marks a free entry.
        lru: monotonic last-use stamp (bigger = more recent).
        dirty: dirty bit for designs without an M state (L1, shared L2).
        fill_class: miss class of the fill that brought the block in
            (used for the Figure 7 reuse histograms).
        reuse: number of hits since the last fill.
    """

    tag: int = 0
    state: CoherenceState = CoherenceState.INVALID
    lru: int = 0
    dirty: bool = False
    fill_class: "Optional[object]" = None
    reuse: int = 0

    @property
    def valid(self) -> bool:
        return self.state.is_valid

    def invalidate(self) -> None:
        self.state = CoherenceState.INVALID
        self.dirty = False
        self.fill_class = None
        self.reuse = 0


def _lru_key(entry: Entry) -> int:
    """Module-level LRU key: avoids building a closure per victim call."""
    return entry.lru


class SetAssociativeArray:
    """Set-associative array of :class:`Entry` (or a subclass).

    Entries are created on first fill.  Every set starts empty, and
    :meth:`victim` appends a new entry only when the set has no invalid
    entry and is not full yet.  It lands at way ``len(set)``: the first
    invalid way of a set built full of invalid entries, so every block
    gets the way it would get in such an array.  A set's entries are
    thus ways ``0 .. len(set) - 1``, and a way past them reads as
    invalid.

    Args:
        geometry: size/shape of the array.
        entry_type: the entry class, letting designs attach extra
            payload (e.g. CMP-NuRAPID's forward pointers).
    """

    def __init__(
        self,
        geometry: CacheGeometry,
        entry_type: "type[Entry]" = Entry,
    ) -> None:
        self.geometry = geometry
        self.entry_type = entry_type
        self._sets: "list[list[Entry]]" = [[] for _ in range(geometry.num_sets)]
        self._clock = 0
        # Hot-path constants (geometry properties recompute logs).
        self._associativity = geometry.associativity
        self._offset_bits = geometry.offset_bits
        self._index_mask = geometry.num_sets - 1
        self._tag_shift = geometry.offset_bits + geometry.index_bits

    def _tick(self) -> int:
        self._clock += 1
        return self._clock

    def lookup(self, address: int, touch: bool = True) -> "Optional[Entry]":
        """Return the valid entry matching ``address``, updating LRU."""
        tag = address >> self._tag_shift
        invalid = CoherenceState.INVALID
        for entry in self._sets[(address >> self._offset_bits) & self._index_mask]:
            if entry.tag == tag and entry.state is not invalid:
                if touch:
                    self._clock += 1
                    entry.lru = self._clock
                return entry
        return None

    def victim(
        self,
        address: int,
        category: "Optional[Callable[[Entry], int]]" = None,
    ) -> Entry:
        """Pick the replacement victim in ``address``'s set.

        An invalid entry is always chosen first, creating one when the
        set is not full yet.  Otherwise the entry minimizing
        ``(category(entry), lru)`` is chosen — plain LRU when
        ``category`` is None.
        """
        entries = self._sets[(address >> self._offset_bits) & self._index_mask]
        invalid = CoherenceState.INVALID
        for entry in entries:
            if entry.state is invalid:
                return entry
        if len(entries) < self._associativity:
            entry = self.entry_type()
            entries.append(entry)
            return entry
        if category is None:
            return min(entries, key=_lru_key)
        return min(entries, key=lambda e: (category(e), e.lru))

    def install(self, entry: Entry, address: int, state: CoherenceState) -> None:
        """(Re)fill ``entry`` with ``address``'s block in ``state``."""
        entry.tag = address >> self._tag_shift
        entry.state = state
        entry.dirty = False
        entry.reuse = 0
        entry.fill_class = None
        entry.lru = self._tick()

    def valid_entries(self) -> "Iterator[tuple[int, int, Entry]]":
        # Inlined (no property indirection): the invariant checker
        # calls this on every array per check, so paranoid-mode runs
        # execute this loop hundreds of millions of times.  Sets fill
        # on first use, so never-filled (empty) sets are skipped.
        invalid = CoherenceState.INVALID
        for set_index, entries in enumerate(self._sets):
            if entries:
                for way, entry in enumerate(entries):
                    if entry.state is not invalid:
                        yield set_index, way, entry

    def entry_at(self, set_index: int, way: int) -> Entry:
        """The entry at ``(set_index, way)``, creating the ways up to it.

        Checkpoint restore and pointers into never-filled ways (e.g. a
        fault-flipped reverse pointer) get the invalid entry a full set
        would hold there.
        """
        entries = self._sets[set_index]
        if not 0 <= way < len(entries):
            # Index as a full set would: past the end raises, negative wraps.
            way = range(self._associativity)[way]
            entries.extend(self.entry_type() for _ in range(way + 1 - len(entries)))
        return entries[way]

    def way_of(self, set_index: int, entry: Entry) -> int:
        for way, candidate in enumerate(self._sets[set_index]):
            if candidate is entry:
                return way
        raise ValueError("entry not in set")

    def block_address(self, set_index: int, entry: Entry) -> int:
        """Reconstruct the block address stored in ``entry``."""
        return (entry.tag << self._tag_shift) | (set_index << self._offset_bits)

    @property
    def occupancy(self) -> int:
        return sum(1 for _ in self.valid_entries())

    def state_dict(self) -> dict:
        """Columnar snapshot of the valid entries plus the LRU clock.

        Plain dicts of primitives and numpy arrays only — see
        :mod:`repro.common.serialization` for the field codecs.
        """
        from repro.common import serialization

        return serialization.pack_entries(self)

    def load_state_dict(self, state: dict, path: str = "array") -> None:
        """Restore a :meth:`state_dict` snapshot into this (fresh) array."""
        from repro.common import serialization

        serialization.unpack_entries(self, state, path)


@dataclass
class EvictionRecord:
    """What :meth:`SetAssociativeArray.install` displaced (for stats)."""

    address: int
    state: CoherenceState
    dirty: bool
    fill_class: "Optional[object]" = None
    reuse: int = 0
    payload: "Optional[Entry]" = field(default=None, repr=False)
