"""Differential layer: the incremental invariant check reports what the full scan reports.

The harness checks incrementally: designs mark the blocks and frames
they mutate, and ``check_system_incremental`` rescans only those.  An
injected fault escalates the next check to a full rescan
(``DirtySet.mark_all``), so fault runs never reach the incremental
path's raises.  Each case here starts from a short oltp run, clears the
dirty set, corrupts one contract by hand, and marks only the block or
frame it touched.  The incremental check must then raise the invariant,
block address and cores the full scan (``check_system``) raises, and
both must name the corrupted contract.
"""

import pytest

from repro.caches.private import PrivateCaches
from repro.coherence.states import CoherenceState
from repro.common.dirty import DirtySet
from repro.core.nurapid import NurapidCache
from repro.core.pointers import FramePtr, TagPtr
from repro.cpu.system import CmpSystem
from repro.experiments.runner import build_design
from repro.harness import InvariantViolation, check_system, check_system_incremental
from repro.interconnect.mesh import mesh_noc
from repro.workloads.multithreaded import make_workload

M = CoherenceState.MODIFIED
S = CoherenceState.SHARED
E = CoherenceState.EXCLUSIVE

#: (bus model, cores, oltp accesses per core before the corruption).
MACHINES = {"atomic": (4, 1_500), "mesh": (16, 400)}


def warm_system(design: str, bus_model: str):
    """A legal system after a short oltp run, with a cleared dirty set."""
    cores, per_core = MACHINES[bus_model]
    system = CmpSystem(build_design(design, bus_model=bus_model, num_cores=cores))
    system.run_chunks(
        make_workload("oltp", seed=7, num_cores=cores).chunks(per_core)
    )
    check_system(system)
    dirty = DirtySet()
    system.design.dirty_set = dirty
    return system, dirty


def tag_arrays(design):
    if isinstance(design, NurapidCache):
        return [tags.array for tags in design.tags]
    return [controller.array for controller in design.controllers]


def holders_by_block(design) -> "dict[int, list]":
    """Block address -> [(core, entry)] of its valid L2 tag copies, in
    core order."""
    holders: "dict[int, list]" = {}
    for core, array in enumerate(tag_arrays(design)):
        for set_index, _way, entry in array.valid_entries():
            address = array.block_address(set_index, entry)
            holders.setdefault(address, []).append((core, entry))
    return dict(sorted(holders.items()))


def l1_lines(system, core: int, block: int) -> "list[int]":
    """The lines of L2 block ``block`` that ``core``'s L1 holds."""
    l1 = system.l1s[core]
    size = l1.params.geometry.block_size
    return [
        line for line in range(block, block + system.design.block_size, size)
        if l1.probe(line)
    ]


def owns_its_frame(cache: NurapidCache, core: int, address: int, entry) -> bool:
    frame = cache.data.frame(entry.fwd)
    return frame.rev == cache.tags[core].ptr_of(address, entry)


# ----------------------------------------------------------------------
# One corruption per contract.  Each applies itself, marks what it
# touched, and returns the (invariant, address, cores) it breaks.

def drop_l2_tag(system, dirty):
    """Drop one core's L2 tag under a block its L1 still holds.  The
    directory forgets the core too, so only inclusion breaks; on
    CMP-NuRAPID the tag is a pointer sharer, so no frame loses its
    owner."""
    design = system.design
    for address, holders in holders_by_block(design).items():
        for core, entry in holders:
            lines = l1_lines(system, core, address)
            if not lines:
                continue
            if isinstance(design, NurapidCache) and owns_its_frame(
                design, core, address, entry
            ):
                continue
            entry.invalidate()
            noc = mesh_noc(design)
            if noc is not None:
                noc.directory.discard(address, core)
            dirty.mark_address(address)
            return "l1-inclusion", lines[0], (core,)
    pytest.fail("no L2 tag whose core's L1 holds the block")


def clear_sharer_bit(system, dirty):
    """Clear one holder's bit in its block's directory sharer vector."""
    design = system.design
    for address, holders in holders_by_block(design).items():
        if len(holders) >= 2:
            core = holders[-1][0]
            mesh_noc(design).directory.discard(address, core)
            dirty.mark_address(address)
            return "directory", address, tuple(core for core, _ in holders)
    pytest.fail("no block with two holders")


def second_holder_m(system, dirty):
    """Force the second holder of a shared block into M."""
    for address, holders in holders_by_block(system.design).items():
        if len(holders) >= 2:
            holders[1][1].state = M
            dirty.mark_address(address)
            return "exclusivity", address, tuple(core for core, _ in holders)
    pytest.fail("no block with two holders")


def dirty_clean_frame(system, dirty):
    """Mark a clean frame whose owner is in S or E dirty."""
    cache = system.design
    for dgroup in cache.data.dgroups:
        for index, frame in enumerate(dgroup.frames):
            if not frame.valid or frame.dirty:
                continue
            owner = cache.tags[frame.rev.core].entry_at(frame.rev)
            if owner.state in (S, E):
                frame.dirty = True
                dirty.mark_address(frame.address)
                dirty.mark_frame(FramePtr(dgroup.index, index))
                holders = holders_by_block(cache)[frame.address]
                return "dirty-copy", frame.address, tuple(c for c, _ in holders)
    pytest.fail("no clean frame owned by an S or E tag")


def tag_at_free_frame(system, dirty):
    """Point a valid tag at a frame that holds nothing."""
    cache = system.design
    address, holders = next(iter(holders_by_block(cache).items()))
    core, entry = holders[0]
    dgroup = next(g for g in cache.data.dgroups if g.fresh < g.num_frames)
    entry.fwd = FramePtr(dgroup.index, dgroup.fresh)
    dirty.mark_address(address)
    return "tag-pointer", address, (core,)


def break_reverse_pointer(system, dirty):
    """Point an occupied frame's reverse pointer at another way of its
    owner's set, which never points back at this frame."""
    cache = system.design
    for dgroup in cache.data.dgroups:
        for index, frame in enumerate(dgroup.frames):
            if frame.valid:
                rev = frame.rev
                ways = cache.tags[rev.core].geometry.associativity
                frame.rev = TagPtr(rev.core, rev.set_index, (rev.way + 1) % ways)
                dirty.mark_frame(FramePtr(dgroup.index, index))
                return "frame-ownership", frame.address, (rev.core,)
    pytest.fail("no occupied frame")


CORRUPTIONS = {
    "drop-l2-tag": (drop_l2_tag, None, None),
    "clear-sharer-bit": (clear_sharer_bit, None, "mesh"),
    "second-holder-m": (second_holder_m, None, None),
    "dirty-clean-frame": (dirty_clean_frame, "cmp-nurapid", None),
    "tag-at-free-frame": (tag_at_free_frame, "cmp-nurapid", None),
    "break-reverse-pointer": (break_reverse_pointer, "cmp-nurapid", None),
}

CASES = [
    pytest.param(name, design, bus_model, id=f"{name}-{design}-{bus_model}")
    for name, (_, only_design, only_bus) in CORRUPTIONS.items()
    for design in ("private", "cmp-nurapid")
    for bus_model in MACHINES
    if only_design in (None, design) and only_bus in (None, bus_model)
]


def report(check, system, *args):
    with pytest.raises(InvariantViolation) as caught:
        check(system, *args)
    violation = caught.value
    return violation.invariant, violation.address, violation.cores


@pytest.mark.parametrize("name, design, bus_model", CASES)
def test_incremental_raises_what_the_full_scan_raises(name, design, bus_model):
    system, dirty = warm_system(design, bus_model)
    assert isinstance(system.design, (NurapidCache, PrivateCaches))
    corrupt = CORRUPTIONS[name][0]
    expected = corrupt(system, dirty)
    assert not dirty.full
    incremental = report(check_system_incremental, system, dirty)
    assert incremental == report(check_system, system) == expected
