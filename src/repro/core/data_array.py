"""The shared data array and its distance groups (Section 2.2.1).

The data array is divided into d-groups — large (here 2 MB) regions
with a single uniform access latency per core.  Frames inside a d-group
are not constrained by set mapping: distance associativity lets any
block occupy any frame, located through the tag's forward pointer.
Each occupied frame carries a reverse pointer naming its owner tag
entry, used by replacement and demotion to find and update the tag.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

import numpy as np

from repro.core.pointers import FramePtr, TagPtr


@dataclass
class Frame:
    """One data frame: a block-sized slot in a d-group."""

    valid: bool = False
    address: int = 0
    rev: "Optional[TagPtr]" = None
    dirty: bool = False

    def clear(self) -> None:
        self.valid = False
        self.address = 0
        self.rev = None
        self.dirty = False


class DGroup:
    """One distance group: a pool of frames with a free list.

    The free list is a stack of freed indices plus ``fresh``, the next
    never-used index.  Allocation pops freed indices first (LIFO), then
    fresh ones in ascending order.  Frames are created on first
    allocation, so the created frames (``frames``) are always a prefix
    of the d-group, and an index past them reads as a free frame.
    """

    def __init__(self, index: int, num_frames: int) -> None:
        self.index = index
        self.num_frames = num_frames
        self.frames: "list[Frame]" = []
        self._freed: "list[int]" = []
        self.fresh = 0

    def frame(self, index: int) -> Frame:
        """The frame at ``index``, creating the frames up to it."""
        frames = self.frames
        if not 0 <= index < len(frames):
            # Index as a full d-group would: past the end raises, negative wraps.
            index = range(self.num_frames)[index]
            frames.extend(Frame() for _ in range(index + 1 - len(frames)))
        return frames[index]

    @property
    def free_count(self) -> int:
        return len(self._freed) + self.num_frames - self.fresh

    @property
    def occupied_count(self) -> int:
        return self.num_frames - self.free_count

    def has_free(self) -> bool:
        return bool(self._freed) or self.fresh < self.num_frames

    def allocate(self) -> int:
        """Take a free frame index; caller must then occupy it."""
        if self._freed:
            index = self._freed.pop()
        elif self.fresh < self.num_frames:
            index = self.fresh
            self.fresh = index + 1
        else:
            raise RuntimeError(f"d-group {self.index} has no free frames")
        self.frame(index)
        return index

    def release(self, frame_index: int) -> None:
        frame = self.frame(frame_index)
        if frame.valid:
            raise RuntimeError("release of an occupied frame; free it first")
        self._freed.append(frame_index)

    def random_occupied(
        self,
        rng: np.random.Generator,
        protect: "frozenset[FramePtr]" = frozenset(),
    ) -> "Optional[int]":
        """Pick a random occupied, unprotected frame (None if impossible).

        Section 3.3.2: demotion victims are chosen at random because LRU
        over thousands of frames per d-group is impractical in hardware.
        ``protect`` holds frames with a read in progress — the busy-bit
        mechanism of Section 3.1 inhibits replacing them.
        """
        occupied = self.occupied_count
        if occupied == 0:
            return None
        protected_here = {p.frame for p in protect if p.dgroup == self.index}
        if occupied <= len(protected_here):
            return None
        # Rejection-sample; occupancy is near-total in steady state.  A
        # candidate past the created frames is free.
        frames = self.frames
        for _ in range(64):
            candidate = int(rng.integers(0, self.num_frames))
            if (
                candidate < len(frames)
                and frames[candidate].valid
                and candidate not in protected_here
            ):
                return candidate
        for candidate, frame in enumerate(frames):
            if frame.valid and candidate not in protected_here:
                return candidate
        return None


class DataArray:
    """All d-groups of the shared data array."""

    def __init__(self, num_dgroups: int, frames_per_dgroup: int) -> None:
        self.dgroups = [DGroup(g, frames_per_dgroup) for g in range(num_dgroups)]

    def __getitem__(self, dgroup: int) -> DGroup:
        return self.dgroups[dgroup]

    def frame(self, ptr: FramePtr) -> Frame:
        return self.dgroups[ptr.dgroup].frame(ptr.frame)

    def occupy(
        self, ptr: FramePtr, address: int, rev: TagPtr, dirty: bool = False
    ) -> None:
        """Fill an allocated frame with ``address``'s block."""
        frame = self.frame(ptr)
        if frame.valid:
            raise RuntimeError(f"frame {ptr} already occupied")
        frame.valid = True
        frame.address = address
        frame.rev = rev
        frame.dirty = dirty

    def free(self, ptr: FramePtr) -> None:
        """Evict the block in ``ptr`` and return the frame to the pool."""
        frame = self.frame(ptr)
        if not frame.valid:
            raise RuntimeError(f"frame {ptr} already free")
        frame.clear()
        self.dgroups[ptr.dgroup].release(ptr.frame)

    def move(self, src: FramePtr, dst: FramePtr) -> None:
        """Move a block between frames (promotion/demotion)."""
        src_frame = self.frame(src)
        dst_frame = self.frame(dst)
        if not src_frame.valid:
            raise RuntimeError(f"moving from free frame {src}")
        if dst_frame.valid:
            raise RuntimeError(f"moving onto occupied frame {dst}")
        dst_frame.valid = True
        dst_frame.address = src_frame.address
        dst_frame.rev = src_frame.rev
        dst_frame.dirty = src_frame.dirty
        src_frame.clear()
        self.dgroups[src.dgroup].release(src.frame)

    def frames_holding(self, address: int) -> "Iterator[FramePtr]":
        """All frames holding copies of ``address`` (O(frames); tests only)."""
        for dgroup in self.dgroups:
            for index, frame in enumerate(dgroup.frames):
                if frame.valid and frame.address == address:
                    yield FramePtr(dgroup.index, index)

    @property
    def total_occupied(self) -> int:
        return sum(group.occupied_count for group in self.dgroups)

    def state_dict(self) -> dict:
        """Columnar snapshot: occupied frames sparse, free lists in order.

        The free list's *order* is model state, not bookkeeping — a
        resumed run must see the same allocation sequence.  Each
        d-group writes its freed stack (``free``, popped from the end)
        and ``fresh``; the never-used indices past ``fresh`` cost
        nothing.
        """
        groups = []
        for dgroup in self.dgroups:
            indices = []
            addresses = []
            rev_core = []
            rev_set = []
            rev_way = []
            dirty = []
            for index, frame in enumerate(dgroup.frames):
                if not frame.valid:
                    continue
                indices.append(index)
                addresses.append(frame.address)
                rev = frame.rev
                rev_core.append(-1 if rev is None else rev.core)
                rev_set.append(-1 if rev is None else rev.set_index)
                rev_way.append(-1 if rev is None else rev.way)
                dirty.append(frame.dirty)
            groups.append({
                "num_frames": dgroup.num_frames,
                "free": np.asarray(dgroup._freed, dtype=np.int32),
                "fresh": dgroup.fresh,
                "frame": np.asarray(indices, dtype=np.int32),
                "address": np.asarray(addresses, dtype=np.int64),
                "rev_core": np.asarray(rev_core, dtype=np.int32),
                "rev_set": np.asarray(rev_set, dtype=np.int32),
                "rev_way": np.asarray(rev_way, dtype=np.int32),
                "dirty": np.asarray(dirty, dtype=bool),
            })
        return {"dgroups": groups}

    def load_state_dict(self, state: dict, path: str = "data") -> None:
        from repro.common import serialization
        from repro.common.serialization import StateDictError, require

        groups = require(state, "dgroups", path)
        if len(groups) != len(self.dgroups):
            raise StateDictError(
                f"{path}.dgroups",
                f"{len(groups)} d-groups in snapshot, this array has "
                f"{len(self.dgroups)}",
            )
        for g, (dgroup, group_state) in enumerate(zip(self.dgroups, groups)):
            gpath = f"{path}.dgroups[{g}]"
            num_frames = require(group_state, "num_frames", gpath)
            if num_frames != dgroup.num_frames:
                raise StateDictError(
                    f"{gpath}.num_frames",
                    f"snapshot has {num_frames}, this d-group has "
                    f"{dgroup.num_frames}",
                )
            free = np.asarray(require(group_state, "free", gpath))
            frame_idx = np.asarray(require(group_state, "frame", gpath))
            count = len(frame_idx)
            columns = {
                name: serialization._column_array(
                    require(group_state, name, gpath), count, f"{gpath}.{name}"
                )
                for name in ("address", "rev_core", "rev_set", "rev_way", "dirty")
            }
            occupied = set()
            for frame in dgroup.frames:
                frame.clear()
            for row in range(count):
                index = int(frame_idx[row])
                if not 0 <= index < num_frames:
                    raise StateDictError(
                        f"{gpath}.frame[{row}]",
                        f"frame {index} outside {num_frames} frames",
                    )
                if index in occupied:
                    raise StateDictError(
                        f"{gpath}.frame[{row}]", f"frame {index} listed twice"
                    )
                occupied.add(index)
                frame = dgroup.frame(index)
                frame.valid = True
                frame.address = int(columns["address"][row])
                core = int(columns["rev_core"][row])
                frame.rev = None if core < 0 else TagPtr(
                    core,
                    int(columns["rev_set"][row]),
                    int(columns["rev_way"][row]),
                )
                frame.dirty = bool(columns["dirty"][row])
            freed = [int(index) for index in free]
            if "fresh" in group_state:
                fresh = int(group_state["fresh"])
            else:
                # A full free list: its leading run n-1, n-2, ... is the
                # never-used tail.  A freed index that extends the run
                # pops in the same order either way.
                run = 0
                while run < len(freed) and freed[run] == num_frames - 1 - run:
                    run += 1
                fresh = num_frames - run
                freed = freed[run:]
            if not 0 <= fresh <= num_frames or sorted(
                freed + sorted(occupied)
            ) != list(range(fresh)):
                raise StateDictError(
                    f"{gpath}.free",
                    f"free list ({len(freed)}) and occupied frames "
                    f"({len(occupied)}) do not partition the {fresh} "
                    f"frames below fresh",
                )
            dgroup._freed = freed
            dgroup.fresh = fresh
