"""CMP-NuRAPID's private per-core tag arrays (Section 2.2.2).

Each core has its own tag array placed close to it, snooping on the bus
like an SMP private cache.  To let multiple tag arrays point at a single
shared data copy, each array holds **twice** the entries needed to cover
one d-group (doubled sets, same associativity — the paper's 6%-overhead
compromise that performs almost as well as quadrupling).

Tag entries extend the generic :class:`~repro.caches.base.Entry` with
the forward pointer.  The replacement *category* order — invalid, then
private, then shared — implements Section 3.3.2's preference to avoid
evicting shared blocks (whose replacement costs a BusRepl broadcast).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.caches.base import Entry, SetAssociativeArray
from repro.coherence.states import CoherenceState
from repro.common.params import CacheGeometry
from repro.core.pointers import FramePtr, TagPtr


@dataclass(slots=True)
class NurapidTagEntry(Entry):
    """Tag entry carrying a forward pointer into the shared data array."""

    fwd: "Optional[FramePtr]" = None
    #: Busy marker (Section 3.1): set while a read from a farther
    #: d-group is in progress so replacement invalidations are inhibited.
    busy: bool = False
    #: Consecutive remote reads of a C block through this tag copy —
    #: drives the optional C-migration extension.
    remote_reads: int = 0

    def invalidate(self) -> None:  # noqa: D102 - see Entry.invalidate
        # Explicit base call: @dataclass(slots=True) rebuilds the class,
        # which breaks zero-argument super()'s __class__ cell.
        Entry.invalidate(self)
        self.fwd = None
        self.busy = False
        self.remote_reads = 0


def replacement_category(entry: Entry) -> int:
    """Section 3.3.2 victim ordering: invalid < private < shared."""
    if not entry.valid:
        return 0
    if entry.state in (CoherenceState.EXCLUSIVE, CoherenceState.MODIFIED):
        return 1
    return 2  # SHARED or COMMUNICATION


@dataclass
class TagArray:
    """One core's private tag array."""

    core: int
    geometry: CacheGeometry
    array: SetAssociativeArray = field(init=False)

    def __post_init__(self) -> None:
        self.array = SetAssociativeArray(self.geometry, NurapidTagEntry)

    def lookup(self, address: int, touch: bool = True) -> "Optional[NurapidTagEntry]":
        entry = self.array.lookup(address, touch=touch)
        return entry  # type: ignore[return-value]

    def victim(self, address: int) -> NurapidTagEntry:
        return self.array.victim(address, replacement_category)  # type: ignore[return-value]

    def install(
        self,
        entry: NurapidTagEntry,
        address: int,
        state: CoherenceState,
        fwd: "Optional[FramePtr]",
    ) -> None:
        self.array.install(entry, address, state)
        entry.fwd = fwd
        entry.busy = False

    def ptr_of(self, address: int, entry: NurapidTagEntry) -> TagPtr:
        """Reverse-pointer coordinates of ``entry``."""
        set_index = self.geometry.set_index(address)
        way = self.array.way_of(set_index, entry)
        return TagPtr(self.core, set_index, way)

    def entry_at(self, ptr: TagPtr) -> NurapidTagEntry:
        if ptr.core != self.core:
            raise ValueError(f"pointer targets core {ptr.core}, not {self.core}")
        return self.array.entry_at(ptr.set_index, ptr.way)  # type: ignore[return-value]

    def address_of(self, set_index: int, entry: NurapidTagEntry) -> int:
        return self.array.block_address(set_index, entry)

    def state_dict(self) -> dict:
        return {"core": self.core, "entries": self.array.state_dict()}

    def load_state_dict(self, state: dict, path: str = "tags") -> None:
        from repro.common import serialization
        from repro.common.serialization import StateDictError

        core = serialization.require(state, "core", path)
        if core != self.core:
            raise StateDictError(
                f"{path}.core", f"snapshot is core {core}, this array is {self.core}"
            )
        self.array.load_state_dict(
            serialization.require(state, "entries", path), f"{path}.entries"
        )
