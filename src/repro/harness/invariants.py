"""Runtime invariant checker for every simulated design.

The checks formalize the model's cross-structure contracts:

* **MESIC legality** — per block: at most one M/E copy, M/E never
  alongside other copies, C and S tag copies never coexist;
* **pointer integrity** (CMP-NuRAPID) — every valid tag entry's forward
  pointer names an occupied frame holding that block, every occupied
  frame's reverse pointer names a valid owner tag pointing straight
  back, and each d-group's free list agrees with its frames;
* **single-dirty-copy** — a dirty frame's owner holds a dirty state
  (M or C), a C block has exactly one data copy and it is dirty,
  exclusive blocks have exactly one copy;
* **directory exactness** (mesh backend) — each block's sharer vector
  names exactly the cores holding a tag copy of it;
* **L1 inclusion** — every valid L1 block is covered by a live L2 copy
  reachable by that core;
* **L1 index** (full scan only) — each L1's line index maps every
  valid L1 block's line to its entry and holds nothing else.

The full scan (:func:`check_system`) groups every valid tag copy by
block once; the directory and inclusion checks read the resulting
holder masks.  The harness's incremental check
(:func:`check_system_incremental`) covers the blocks and frames the
designs marked since the last check, and likewise finds each block's
holders once.

A failed check raises :class:`InvariantViolation` with a minimal repro
context (invariant name, access index, block address, cores, states)
instead of a bare assert, so harness users and the CLI can report — and
tests can assert on — exactly which contract broke.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from repro.caches.ideal import IdealCache
from repro.caches.l1 import L1Cache
from repro.caches.private import PrivateCaches
from repro.caches.shared import SharedCache
from repro.caches.snuca import SnucaCache
from repro.coherence.states import CoherenceState
from repro.common.types import block_address
from repro.core.nurapid import NurapidCache
from repro.core.pointers import FramePtr

M = CoherenceState.MODIFIED
E = CoherenceState.EXCLUSIVE
S = CoherenceState.SHARED
C = CoherenceState.COMMUNICATION
INVALID = CoherenceState.INVALID


class InvariantViolation(AssertionError):
    """A cross-structure model invariant does not hold.

    Subclasses :class:`AssertionError` so callers that treated the old
    ad-hoc asserts as assertion failures keep working.  Attributes give
    the minimal context needed to reproduce and triage:

    Attributes:
        invariant: short name of the violated contract (e.g.
            ``"tag-pointer"``, ``"exclusivity"``, ``"l1-inclusion"``,
            ``"l1-index"``).
        access_index: global event index at detection time (filled in
            by the harness runner; None for on-demand checks).
        address: block address involved, if any.
        cores: cores holding copies involved in the violation.
        states: their coherence states.
        details: free-form extra context.
    """

    def __init__(
        self,
        invariant: str,
        message: str,
        *,
        access_index: "Optional[int]" = None,
        address: "Optional[int]" = None,
        cores: "Sequence[int]" = (),
        states: "Sequence[CoherenceState]" = (),
        details: "Optional[str]" = None,
    ) -> None:
        self.invariant = invariant
        self.message = message
        self.access_index = access_index
        self.address = address
        self.cores = tuple(cores)
        self.states = tuple(states)
        self.details = details
        self.dump_path: "Optional[str]" = None
        super().__init__(self._render())

    def _render(self) -> str:
        parts = [f"[{self.invariant}] {self.message}"]
        if self.access_index is not None:
            parts.append(f"access={self.access_index}")
        if self.address is not None:
            parts.append(f"block={self.address:#x}")
        if self.cores:
            parts.append(f"cores={list(self.cores)}")
        if self.states:
            parts.append(f"states=[{', '.join(s.value for s in self.states)}]")
        if self.details:
            parts.append(self.details)
        return " ".join(parts)

    def __str__(self) -> str:  # keep the context after pickling round-trips
        return self._render()


# ----------------------------------------------------------------------
# Per-block checks, shared by the full scan and the incremental pass.
# ``holders`` lists a block's valid tag copies as (core, entry) pairs in
# core order.

def _block_violation(
    invariant: str, message: str, address: int, holders: list,
    access_index: "Optional[int]",
) -> InvariantViolation:
    return InvariantViolation(
        invariant,
        message,
        access_index=access_index,
        address=address,
        cores=[core for core, _ in holders],
        states=[entry.state for _, entry in holders],
    )


def _forward_frame(
    cache: NurapidCache, core: int, entry, address: int,
    access_index: "Optional[int]",
):
    """The frame ``entry``'s forward pointer names, which must be
    occupied by ``address``'s block."""
    if entry.fwd is None:
        raise InvariantViolation(
            "tag-pointer",
            "valid tag entry without a forward pointer",
            access_index=access_index,
            address=address,
            cores=(core,),
            states=(entry.state,),
        )
    frame = cache.data.frame(entry.fwd)
    if not frame.valid or frame.address != address:
        raise InvariantViolation(
            "tag-pointer",
            f"dangling forward pointer {entry.fwd}",
            access_index=access_index,
            address=address,
            cores=(core,),
            states=(entry.state,),
            details=(
                f"frame valid={frame.valid} holds={frame.address:#x}"
                if frame.valid
                else "frame is free"
            ),
        )
    return frame


def _check_owner(
    cache: NurapidCache, ptr: FramePtr, frame, access_index: "Optional[int]"
) -> None:
    """An occupied frame's reverse pointer must name a valid tag whose
    forward pointer names the frame back."""
    if frame.rev is None:
        raise InvariantViolation(
            "frame-ownership",
            f"occupied frame {ptr} has no reverse pointer",
            access_index=access_index,
            address=frame.address,
        )
    owner = cache.tags[frame.rev.core].entry_at(frame.rev)
    if not owner.valid or owner.fwd != ptr:
        raise InvariantViolation(
            "frame-ownership",
            f"frame {ptr} reverse pointer names a non-owning tag",
            access_index=access_index,
            address=frame.address,
            cores=(frame.rev.core,),
            states=(owner.state,) if owner.valid else (),
            details=f"owner.fwd={owner.fwd}",
        )


def _check_mesic(
    address: int, holders: list, copies, dirty_copies,
    access_index: "Optional[int]",
) -> None:
    """MESIC legality and the single-dirty-copy rules for one block.

    ``copies`` and ``dirty_copies`` are the frames holding the block,
    all of them and the dirty ones.
    """
    states = [entry.state for _, entry in holders]
    if len(states) > 1 and any(s.is_exclusive for s in states):
        raise _block_violation(
            "exclusivity", "M/E copy coexists with other copies",
            address, holders, access_index,
        )
    if C in states:
        if S in states:
            raise _block_violation(
                "c-state", "C and S tag copies coexist",
                address, holders, access_index,
            )
        pointed = {entry.fwd for _, entry in holders}
        if len(pointed) != 1:
            raise _block_violation(
                "c-state", f"C sharers point at {len(pointed)} distinct frames",
                address, holders, access_index,
            )
        if len(dirty_copies) != 1:
            raise _block_violation(
                "c-state", f"C block has {len(dirty_copies)} dirty copies (need 1)",
                address, holders, access_index,
            )
    if states[0].is_exclusive and len(copies) != 1:
        raise _block_violation(
            "single-dirty-copy", f"exclusive block has {len(copies)} data copies",
            address, holders, access_index,
        )
    if len(dirty_copies) > 1:
        raise _block_violation(
            "single-dirty-copy", f"block has {len(dirty_copies)} dirty data copies",
            address, holders, access_index,
        )
    if dirty_copies and not any(s.is_dirty for s in states):
        raise _block_violation(
            "dirty-copy", "dirty data copy whose holders are all clean-state",
            address, holders, access_index,
        )


def _check_mesi_holders(
    address: int, holders: list, access_index: "Optional[int]"
) -> None:
    """MESI legality for one block of the private caches."""
    states = [entry.state for _, entry in holders]
    if C in states:
        raise _block_violation(
            "mesi-legality", "MESI cache holds the MESIC-only C state",
            address, holders, access_index,
        )
    if len(states) > 1 and any(s.is_exclusive for s in states):
        raise _block_violation(
            "exclusivity", "M/E copy coexists with other copies",
            address, holders, access_index,
        )


# ----------------------------------------------------------------------
# CMP-NuRAPID

def check_nurapid(
    cache: NurapidCache, access_index: "Optional[int]" = None
) -> "dict[int, int]":
    """Verify pointer and protocol integrity of a CMP-NuRAPID instance.

    Returns each block's holder mask (bit ``c`` set when core ``c``
    holds a tag copy), which the directory and inclusion checks read.
    """
    # Tag -> frame integrity, and per-address holder collection.
    per_address: "dict[int, list]" = {}
    for core, tag_array in enumerate(cache.tags):
        array = tag_array.array
        for set_index, _way, entry in array.valid_entries():
            address = array.block_address(set_index, entry)
            _forward_frame(cache, core, entry, address, access_index)
            per_address.setdefault(address, []).append((core, entry))

    # Frame -> tag ownership and free-list accounting, plus one pass
    # collecting the frames holding each address (for copy counting).
    frames_of: "dict[int, list[FramePtr]]" = {}
    dirty_frames_of: "dict[int, list[FramePtr]]" = {}
    for dgroup in cache.data.dgroups:
        valid_count = 0
        for index, frame in enumerate(dgroup.frames):
            if not frame.valid:
                continue
            valid_count += 1
            ptr = FramePtr(dgroup.index, index)
            frames_of.setdefault(frame.address, []).append(ptr)
            if frame.dirty:
                dirty_frames_of.setdefault(frame.address, []).append(ptr)
            _check_owner(cache, ptr, frame, access_index)
        if valid_count + dgroup.free_count != dgroup.num_frames:
            raise InvariantViolation(
                "frame-accounting",
                f"d-group {dgroup.index}: {valid_count} occupied + "
                f"{dgroup.free_count} free != {dgroup.num_frames} frames",
                access_index=access_index,
            )

    # Protocol invariants per block.
    masks: "dict[int, int]" = {}
    for address, holders in per_address.items():
        _check_mesic(
            address, holders, frames_of.get(address, ()),
            dirty_frames_of.get(address, ()), access_index,
        )
        masks[address] = sum(1 << core for core, _ in holders)
    return masks


# ----------------------------------------------------------------------
# Baseline designs

def check_mesi(
    caches: PrivateCaches, access_index: "Optional[int]" = None
) -> "dict[int, int]":
    """MESI global legality across the private caches.

    Returns each block's holder mask, as :func:`check_nurapid` does.
    """
    per_address: "dict[int, list]" = {}
    for core, controller in enumerate(caches.controllers):
        array = controller.array
        for set_index, _way, entry in array.valid_entries():
            address = array.block_address(set_index, entry)
            per_address.setdefault(address, []).append((core, entry))
    masks: "dict[int, int]" = {}
    for address, holders in per_address.items():
        _check_mesi_holders(address, holders, access_index)
        masks[address] = sum(1 << core for core, _ in holders)
    return masks


def _check_shared_array(
    design, arrays: Iterable, access_index: "Optional[int]" = None
) -> None:
    """Shared designs hold one copy per block; C must never appear."""
    for array in arrays:
        for set_index, _way, entry in array.valid_entries():
            if entry.state is C:
                raise InvariantViolation(
                    "mesi-legality",
                    f"{design.name} cache holds the MESIC-only C state",
                    access_index=access_index,
                    address=array.block_address(set_index, entry),
                    states=(entry.state,),
                )


def _check_shared_address(design, address: int, access_index: "Optional[int]") -> None:
    if isinstance(design, SnucaCache):
        bank = design.banks[design.bank_of(address)]
        entry = bank.lookup(design._local_address(address), touch=False)
    else:
        entry = design.array.lookup(address, touch=False)
    if entry is not None and entry.state is C:
        raise InvariantViolation(
            "mesi-legality",
            f"{design.name} cache holds the MESIC-only C state",
            access_index=access_index, address=address,
            states=(entry.state,),
        )


# ----------------------------------------------------------------------
# Mesh directory consistency

def _mask_cores(mask: int) -> "list[int]":
    cores = []
    core = 0
    while mask:
        if mask & 1:
            cores.append(core)
        mask >>= 1
        core += 1
    return cores


def _directory_violation(
    address: int, recorded: int, actual: int,
    access_index: "Optional[int]",
) -> InvariantViolation:
    return InvariantViolation(
        "directory",
        "sharer vector disagrees with the tag arrays",
        access_index=access_index,
        address=address,
        cores=_mask_cores(recorded | actual),
        details=(
            f"recorded={_mask_cores(recorded)} actual={_mask_cores(actual)}"
        ),
    )


def check_directory(
    masks: "dict[int, int]", noc, access_index: "Optional[int]" = None
) -> None:
    """Directory-vs-tag-array consistency for the mesh backend.

    ``masks`` are the holder masks the design check read from the tag
    arrays (never through the directory: it is what they audit).  Every
    recorded sharer must actually hold a tag copy and every tag copy
    must be recorded — the exactness that makes directory-filtered
    forwarding trajectory-identical to a snoopy broadcast (the 4-core
    equivalence argument, DESIGN.md section 14).
    """
    recorded: "dict[int, int]" = {}
    for _tile, address, mask in noc.directory.entries():
        recorded[address] = mask
    if recorded == masks:
        return
    for address in set(recorded) | set(masks):
        if recorded.get(address, 0) != masks.get(address, 0):
            raise _directory_violation(
                address, recorded.get(address, 0), masks.get(address, 0),
                access_index,
            )


def _design_noc(design):
    """The design's mesh NoC, if one is attached (lazy import: the
    design modules must stay importable without the harness)."""
    from repro.interconnect.mesh import mesh_noc

    return mesh_noc(design)


# ----------------------------------------------------------------------
# L1 inclusion

def design_contains(design, core: int, address: int) -> "Optional[bool]":
    """Does ``design`` hold a copy of ``address`` visible to ``core``?

    Returns None for designs the harness does not know how to probe
    (inclusion is then not checked for them).
    """
    if isinstance(design, NurapidCache):
        block = block_address(address, design.block_size)
        return design.tags[core].lookup(block, touch=False) is not None
    if isinstance(design, PrivateCaches):
        array = design.controllers[core].array
        return array.lookup(address, touch=False) is not None
    if isinstance(design, (SharedCache, IdealCache)):
        return design.array.lookup(address, touch=False) is not None
    if isinstance(design, SnucaCache):
        bank = design.banks[design.bank_of(address)]
        return bank.lookup(design._local_address(address), touch=False) is not None
    return None


#: The message of each L1 invariant's violation.
_L1_CONTRACTS = {
    "l1-inclusion": "L1 block not covered by any live L2 copy",
    "l1-index": "L1 line index disagrees with the L1's valid blocks",
}


def _l1_violation(
    invariant: str, address: int, core: int, entry, access_index: "Optional[int]"
) -> InvariantViolation:
    return InvariantViolation(
        invariant,
        _L1_CONTRACTS[invariant],
        access_index=access_index,
        address=address,
        cores=(core,),
        states=(entry.state,) if entry is not None else (),
    )


def check_inclusion(
    system,
    access_index: "Optional[int]" = None,
    masks: "Optional[dict[int, int]]" = None,
) -> None:
    """Every valid L1 block must be included in the L2 for its core,
    and each L1's line index must hold exactly its valid blocks.

    With the holder ``masks`` a per-core design's check returned, an L1
    block is covered when its core holds the L2 block containing it.
    Without them (shared designs) each block is looked up with
    :func:`design_contains`.
    """
    design = system.design
    l2_block = ~(design.block_size - 1)
    for core, l1 in enumerate(system.l1s):
        if not isinstance(l1, L1Cache):  # pragma: no cover - defensive
            continue
        bit = 1 << core
        array = l1.array
        lines = l1.lines
        offset_bits = l1._offset_bits
        valid = 0
        for set_index, _way, entry in array.valid_entries():
            address = array.block_address(set_index, entry)
            if lines.get(address >> offset_bits) is not entry:
                raise _l1_violation("l1-index", address, core, entry, access_index)
            valid += 1
            if masks is not None:
                covered = masks.get(address & l2_block, 0) & bit
            else:
                covered = design_contains(design, core, address) is not False
            if not covered:
                raise _l1_violation("l1-inclusion", address, core, entry, access_index)
        # Every valid block is at its own line, so a longer index holds
        # a line whose entry is not that line's valid block.
        if len(lines) != valid:
            for line, entry in lines.items():
                address = line << offset_bits
                if array.lookup(address, touch=False) is not entry:
                    raise _l1_violation("l1-index", address, core, entry, access_index)


# ----------------------------------------------------------------------
# Entry points

def check_design(
    design, access_index: "Optional[int]" = None
) -> "Optional[dict[int, int]]":
    """Run the design-specific invariant suite for ``design``, and the
    directory check on a mesh.

    Returns the per-block holder masks of a design with per-core copies
    (None for the others), which :func:`check_inclusion` reads.
    """
    masks = None
    if isinstance(design, NurapidCache):
        masks = check_nurapid(design, access_index)
    elif isinstance(design, PrivateCaches):
        masks = check_mesi(design, access_index)
    elif isinstance(design, (SharedCache, IdealCache)):
        _check_shared_array(design, [design.array], access_index)
    elif isinstance(design, SnucaCache):
        _check_shared_array(design, design.banks, access_index)
    if masks is not None:
        noc = _design_noc(design)
        if noc is not None:
            check_directory(masks, noc, access_index)
    return masks


def check_system(system, access_index: "Optional[int]" = None) -> None:
    """Full-system check: design invariants plus L1 inclusion."""
    masks = check_design(system.design, access_index)
    check_inclusion(system, access_index, masks)


# ----------------------------------------------------------------------
# Incremental checking (dirty-set rescans)

class CheckPlan:
    """What an incremental check reads of one system, resolved once.

    The design's kind, every core's tag array (its sets, and the index
    and tag shifts they all share: a design builds them from one
    geometry), the mesh NoC, and the L1s' sets and shifts.
    :func:`check_system_incremental` builds a plan per call unless it
    is given one; a :class:`~repro.harness.runner.HarnessRunner` builds
    one for its whole run.  A plan holds the arrays themselves, which
    restoring a snapshot into a system replaces: build it after.
    """

    __slots__ = (
        "system", "design", "nurapid", "shared", "tag_sets", "tag_shifts",
        "noc", "l1_sets", "l1_shifts", "l1_lines",
    )

    def __init__(self, system) -> None:
        design = system.design
        self.system = system
        self.design = design
        self.nurapid = isinstance(design, NurapidCache)
        self.shared = isinstance(design, (SharedCache, IdealCache, SnucaCache))
        if self.nurapid:
            arrays = [tags.array for tags in design.tags]
        elif isinstance(design, PrivateCaches):
            arrays = [controller.array for controller in design.controllers]
        else:
            arrays = []
        self.tag_sets = [array._sets for array in arrays] or None
        self.tag_shifts = self.noc = None
        if arrays:
            first = arrays[0]
            self.tag_shifts = (first._offset_bits, first._index_mask, first._tag_shift)
            self.noc = _design_noc(design)
        # Inclusion from the holder masks: a core holding an L2 block
        # covers every L1 line inside it, so only the other cores' L1s
        # are probed, at each L1 line of the block.  That needs L1
        # lines no larger than L2 blocks, and one L1 geometry; any
        # other machine probes per L1 block.
        l1s = system.l1s
        shapes = {
            (l1._offset_bits, l1._index_mask, l1._tag_shift,
             l1.params.geometry.block_size)
            for l1 in l1s
        }
        self.l1_sets = self.l1_shifts = self.l1_lines = None
        if arrays and len(shapes) == 1:
            offset_bits, index_mask, tag_shift, line = shapes.pop()
            if line <= design.block_size:
                self.l1_sets = [l1._sets for l1 in l1s]
                self.l1_shifts = (offset_bits, index_mask, tag_shift)
                self.l1_lines = range(0, design.block_size, line)


def _check_marked(plan: CheckPlan, dirty, access_index: "Optional[int]") -> None:
    """Check the blocks and frames marked in ``dirty``, finding each
    marked block's holders once.

    The holders come from one lookup per core straight from the tag
    arrays, never through the directory or ``cache._sharers``: under the
    mesh backend that helper is directory-filtered, and the checker
    must stay independent of the structure it is meant to audit.  Each
    block's holder mask then serves the full scan's phases, in its
    order: the design check of every block (pointer and MESIC legality,
    or MESI legality) and of every marked frame, the directory
    comparison, and L1 inclusion.

    On a legal CMP-NuRAPID state every frame holding a block has a
    reverse pointer to an owner tag whose forward pointer names it
    back, so the holders' forward pointers are the frame-side copy set
    the full scan counts: the check is exact, not a heuristic.  (The
    frame free-list accounting check has no per-address anchor and
    stays full-scan-only.)
    """
    design = plan.design
    addresses = dirty.addresses
    blocks: "list[tuple[int, int]]" = []
    if plan.tag_sets is not None:
        tag_sets = plan.tag_sets
        offset_bits, index_mask, tag_shift = plan.tag_shifts
        nurapid = plan.nurapid
        for address in addresses:
            tag = address >> tag_shift
            index = (address >> offset_bits) & index_mask
            holders = []
            mask = 0
            for core, sets in enumerate(tag_sets):
                for entry in sets[index]:
                    if entry.tag == tag and entry.state is not INVALID:
                        holders.append((core, entry))
                        mask |= 1 << core
                        break
            blocks.append((address, mask))
            if not holders:
                continue
            if nurapid:
                copies = set()
                dirty_copies = set()
                for core, entry in holders:
                    frame = _forward_frame(design, core, entry, address, access_index)
                    copies.add(entry.fwd)
                    if frame.dirty:
                        dirty_copies.add(entry.fwd)
                _check_mesic(address, holders, copies, dirty_copies, access_index)
            else:
                _check_mesi_holders(address, holders, access_index)
        if nurapid:
            frame_of = design.data.frame
            for ptr in dirty.frames:
                frame = frame_of(ptr)
                if frame.valid:
                    _check_owner(design, ptr, frame, access_index)
        if plan.noc is not None:
            recorded_mask = plan.noc.directory.mask
            for address, mask in blocks:
                recorded = recorded_mask(address)
                if recorded != mask:
                    raise _directory_violation(address, recorded, mask, access_index)
    elif plan.shared:
        for address in addresses:
            _check_shared_address(design, address, access_index)

    # L1 inclusion: a block is suspect when some L1 holds a line of it
    # that no L2 copy of that core covers; the per-L1-block probe then
    # reports it.
    if plan.l1_lines is None:
        suspects = addresses
    else:
        suspects = [
            address for address, mask in blocks
            if _foreign_l1_line(plan, address, mask)
        ]
    l1s = plan.system.l1s
    l2_size = design.block_size
    for address in suspects:
        for core, l1 in enumerate(l1s):
            l1_size = l1.params.geometry.block_size
            span = max(l2_size, l1_size)
            base = block_address(address, span)
            for line in range(base, base + span, l1_size):
                # The L1's sets, not its line index, which only the full
                # scan audits.
                entry = l1.array.lookup(line, touch=False)
                if entry is not None and design_contains(design, core, line) is False:
                    raise _l1_violation("l1-inclusion", line, core, entry, access_index)


def _foreign_l1_line(plan: CheckPlan, address: int, mask: int) -> bool:
    """Whether a core outside holder ``mask`` has a line of L2 block
    ``address`` in its L1.  A holder's L2 copy covers every line of
    the block, so its L1 is not probed."""
    l1_sets = plan.l1_sets
    offset_bits, index_mask, tag_shift = plan.l1_shifts
    for offset in plan.l1_lines:
        line = address + offset
        index = (line >> offset_bits) & index_mask
        tag = line >> tag_shift
        for core, sets in enumerate(l1_sets):
            if not mask >> core & 1:
                for entry in sets[index]:
                    if entry.tag == tag and entry.state is not INVALID:
                        return True
    return False


def check_system_incremental(
    system,
    dirty,
    access_index: "Optional[int]" = None,
    plan: "Optional[CheckPlan]" = None,
) -> None:
    """Rescan only the state marked in ``dirty`` since the last check.

    Equivalent to :func:`check_system` on the marked entries, less the
    ``l1-index`` audit: that compares each L1's whole line index with
    its sets, so it stays with the full scan and adds nothing to a
    marked block's cost.  Falls back to the full scan when the dirty
    set was escalated with :meth:`~repro.common.dirty.DirtySet.mark_all`
    (fault injection, unknown blast radius).  Clears ``dirty`` on
    success so the caller can just keep invoking it per step.
    ``plan`` is the system's :class:`CheckPlan`, built here when not
    given.
    """
    if dirty is None or dirty.full:
        check_system(system, access_index)
        if dirty is not None:
            dirty.clear()
        return
    if not dirty:
        return
    _check_marked(plan if plan is not None else CheckPlan(system), dirty, access_index)
    dirty.clear()
