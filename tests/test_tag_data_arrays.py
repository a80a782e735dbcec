"""Tests for CMP-NuRAPID's tag arrays and d-group data array."""

import gc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.caches.base import Entry, SetAssociativeArray
from repro.coherence.states import CoherenceState
from repro.common.params import KB, CacheGeometry
from repro.core.data_array import DataArray, DGroup
from repro.core.pointers import FramePtr, TagPtr
from repro.core.tag_array import NurapidTagEntry, TagArray, replacement_category
from repro.cpu.system import CmpSystem
from repro.experiments.runner import DESIGN_FACTORIES, build_design
from tests.test_base_array import plain

M = CoherenceState.MODIFIED
E = CoherenceState.EXCLUSIVE
S = CoherenceState.SHARED
I = CoherenceState.INVALID  # noqa: E741
C = CoherenceState.COMMUNICATION


class TestReplacementCategory:
    def test_invalid_first(self):
        entry = Entry()
        assert replacement_category(entry) == 0

    def test_private_before_shared(self):
        private = Entry(state=E)
        modified = Entry(state=M)
        shared = Entry(state=S)
        communication = Entry(state=C)
        assert replacement_category(private) == 1
        assert replacement_category(modified) == 1
        assert replacement_category(shared) == 2
        assert replacement_category(communication) == 2


class TestTagArray:
    def make(self) -> TagArray:
        return TagArray(core=1, geometry=CacheGeometry(32 * KB, 4, 128))

    def test_install_and_lookup(self):
        tags = self.make()
        entry = tags.victim(0x1000)
        tags.install(entry, 0x1000, S, FramePtr(0, 5))
        found = tags.lookup(0x1000)
        assert found is entry
        assert found.fwd == FramePtr(0, 5)

    def test_invalidate_clears_pointer_and_busy(self):
        tags = self.make()
        entry = tags.victim(0x1000)
        tags.install(entry, 0x1000, S, FramePtr(0, 5))
        entry.busy = True
        entry.invalidate()
        assert entry.fwd is None
        assert not entry.busy

    def test_ptr_of_roundtrip(self):
        tags = self.make()
        entry = tags.victim(0x2000)
        tags.install(entry, 0x2000, E, FramePtr(1, 9))
        ptr = tags.ptr_of(0x2000, entry)
        assert ptr.core == 1
        assert tags.entry_at(ptr) is entry

    def test_entry_at_rejects_wrong_core(self):
        tags = self.make()
        with pytest.raises(ValueError):
            tags.entry_at(TagPtr(0, 0, 0))

    def test_victim_prefers_invalid_then_private_then_shared(self):
        tags = self.make()
        step = tags.geometry.num_sets * tags.geometry.block_size
        addresses = [i * step for i in range(4)]
        states = [S, E, S, C]
        for address, state in zip(addresses, states):
            tags.install(tags.victim(address), address, state, FramePtr(0, 0))
        victim = tags.victim(4 * step)
        assert victim.state is E  # the only private entry


class TestDGroup:
    def test_allocate_until_full(self):
        group = DGroup(0, 4)
        indices = {group.allocate() for _ in range(4)}
        assert indices == {0, 1, 2, 3}
        with pytest.raises(RuntimeError):
            group.allocate()

    def test_release_requires_invalid_frame(self):
        group = DGroup(0, 2)
        index = group.allocate()
        group.frames[index].valid = True
        with pytest.raises(RuntimeError):
            group.release(index)

    def test_random_occupied_respects_protection(self):
        group = DGroup(0, 2)
        rng = np.random.default_rng(0)
        for index in (group.allocate(), group.allocate()):
            group.frames[index].valid = True
        protect = frozenset({FramePtr(0, 0)})
        picks = {group.random_occupied(rng, protect) for _ in range(20)}
        assert picks == {1}

    def test_random_occupied_none_when_all_protected(self):
        group = DGroup(0, 1)
        group.frames[group.allocate()].valid = True
        rng = np.random.default_rng(0)
        assert group.random_occupied(rng, frozenset({FramePtr(0, 0)})) is None

    def test_random_occupied_none_when_empty(self):
        group = DGroup(0, 4)
        assert group.random_occupied(np.random.default_rng(0)) is None


class TestDataArray:
    def make(self) -> DataArray:
        return DataArray(num_dgroups=2, frames_per_dgroup=4)

    def test_occupy_and_free(self):
        data = self.make()
        ptr = FramePtr(0, data[0].allocate())
        data.occupy(ptr, 0x1000, TagPtr(0, 0, 0))
        assert data.frame(ptr).valid
        assert data.frame(ptr).address == 0x1000
        data.free(ptr)
        assert not data.frame(ptr).valid
        assert data[0].free_count == 4

    def test_double_occupy_rejected(self):
        data = self.make()
        ptr = FramePtr(0, data[0].allocate())
        data.occupy(ptr, 0x1000, TagPtr(0, 0, 0))
        with pytest.raises(RuntimeError):
            data.occupy(ptr, 0x2000, TagPtr(0, 0, 1))

    def test_double_free_rejected(self):
        data = self.make()
        ptr = FramePtr(0, data[0].allocate())
        data.occupy(ptr, 0x1000, TagPtr(0, 0, 0))
        data.free(ptr)
        with pytest.raises(RuntimeError):
            data.free(ptr)

    def test_move_preserves_contents_and_frees_source(self):
        data = self.make()
        src = FramePtr(0, data[0].allocate())
        data.occupy(src, 0x3000, TagPtr(1, 2, 3), dirty=True)
        dst = FramePtr(1, data[1].allocate())
        data.move(src, dst)
        frame = data.frame(dst)
        assert frame.address == 0x3000
        assert frame.rev == TagPtr(1, 2, 3)
        assert frame.dirty
        assert not data.frame(src).valid
        assert data[0].free_count == 4

    def test_frames_holding_finds_replicas(self):
        data = self.make()
        a = FramePtr(0, data[0].allocate())
        b = FramePtr(1, data[1].allocate())
        data.occupy(a, 0x5000, TagPtr(0, 0, 0))
        data.occupy(b, 0x5000, TagPtr(1, 0, 0))
        assert set(data.frames_holding(0x5000)) == {a, b}

    def test_total_occupied(self):
        data = self.make()
        assert data.total_occupied == 0
        data.occupy(FramePtr(0, data[0].allocate()), 0x0, TagPtr(0, 0, 0))
        assert data.total_occupied == 1


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_first_use_frames_match_dgroups_built_full(seed):
    """Creating frames on first allocation hands out the same frames and
    draws the same random victims as d-groups whose every frame exists
    from the start."""
    frames = 16
    lazy = DataArray(num_dgroups=2, frames_per_dgroup=frames)
    full = DataArray(num_dgroups=2, frames_per_dgroup=frames)
    for group in range(2):
        full.frame(FramePtr(group, frames - 1))
    both = (lazy, full)
    ops = np.random.default_rng(seed)
    victim_rngs = [np.random.default_rng(seed + 1) for _ in both]
    occupied: "list[FramePtr]" = []

    def allocate(group):
        indices = [data[group].allocate() for data in both]
        assert indices[0] == indices[1]
        return FramePtr(group, indices[0])

    for step in range(200):
        group = int(ops.integers(0, 2))
        op = int(ops.integers(0, 4))
        if op == 0 and lazy[group].has_free():
            ptr = allocate(group)
            for data in both:
                data.occupy(ptr, step * 64, TagPtr(0, step, 0))
            occupied.append(ptr)
        elif op == 1 and occupied:
            ptr = occupied.pop(int(ops.integers(0, len(occupied))))
            for data in both:
                data.free(ptr)
        elif op == 2 and occupied and lazy[1 - occupied[-1].dgroup].has_free():
            src = occupied.pop()
            dst = allocate(1 - src.dgroup)
            for data in both:
                data.move(src, dst)
            occupied.append(dst)
        else:
            protect = frozenset(ptr for ptr in occupied if ops.random() < 0.5)
            picks = [
                data[group].random_occupied(rng, protect)
                for data, rng in zip(both, victim_rngs)
            ]
            assert picks[0] == picks[1]
    assert plain(lazy.state_dict()) == plain(full.state_dict())


@settings(max_examples=60, deadline=None)
@given(
    frames=st.integers(min_value=1, max_value=12),
    ops=st.lists(st.integers(min_value=0, max_value=99), max_size=80),
)
def test_free_list_matches_a_full_reference_list(frames, ops):
    """The freed stack plus ``fresh`` allocates exactly as the full
    descending list it replaces: freed indices LIFO, then fresh ones in
    ascending order."""
    group = DGroup(0, frames)
    reference = list(range(frames - 1, -1, -1))
    held = []
    for op in ops:
        if op % 2 and held:
            index = held.pop(op % len(held))
            group.release(index)
            reference.append(index)
        elif reference:
            index = group.allocate()
            assert index == reference.pop()
            group.frames[index].valid = True
            held.append(index)
            group.frames[index].valid = False
        assert group.free_count == len(reference)
        assert group.has_free() == bool(reference)
    while reference:
        assert group.allocate() == reference.pop()
    assert not group.has_free()


def old_layout(state):
    """``state`` as a snapshot that keeps each d-group's full free list:
    the never-used tail, descending, under the freed stack."""
    for group in state["dgroups"]:
        tail = range(group["num_frames"] - 1, group.pop("fresh") - 1, -1)
        group["free"] = np.asarray(
            list(tail) + group["free"].tolist(), dtype=np.int32
        )
    return state


def allocation_order(data):
    """Every index each d-group still hands out, in allocation order."""
    return [
        [group.allocate() for _ in range(group.free_count)]
        for group in data.dgroups
    ]


@pytest.mark.parametrize("extend_run", [False, True])
def test_old_layout_state_loads_to_the_same_allocation_sequence(extend_run):
    """A snapshot written with full free lists, as the committed
    CMP-NuRAPID checkpoint fixtures are, resumes the same allocations.
    With ``extend_run`` a freed index sits just below the never-used
    tail, so the old list reads as one longer descending run."""
    data = DataArray(num_dgroups=2, frames_per_dgroup=8)
    ptrs = [FramePtr(g, data[g].allocate()) for g in (0, 0, 0, 1, 1)]
    for i, ptr in enumerate(ptrs):
        data.occupy(ptr, 0x1000 * i, TagPtr(0, i, 0))
    data.free(ptrs[2] if extend_run else ptrs[0])
    data.free(ptrs[3])
    state = data.state_dict()
    restored = DataArray(num_dgroups=2, frames_per_dgroup=8)
    restored.load_state_dict(old_layout(data.state_dict()))
    if extend_run:  # the freed index joined the never-used tail
        assert restored[0].fresh == data[0].fresh - 1
    else:
        assert plain(restored.state_dict()) == plain(state)
    assert allocation_order(restored) == allocation_order(data)


def reachable(root, kinds):
    """Every instance of ``kinds`` reachable from ``root`` through
    containers and the simulator's own objects."""
    found, seen, stack = [], set(), [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, kinds):
            found.append(obj)
        elif isinstance(obj, (list, tuple, set, frozenset, dict)):
            stack.extend(obj.values() if isinstance(obj, dict) else obj)
        elif type(obj).__module__.startswith("repro."):
            stack.extend(gc.get_referents(obj))
    return found


@pytest.mark.parametrize(
    "design_name, bus_model, num_cores",
    [
        (name, bus_model, None)
        for bus_model in ("atomic", "eventq", "mesh")
        for name in DESIGN_FACTORIES
    ]
    + [("cmp-nurapid", "mesh", 16)],
)
def test_fresh_system_holds_no_entries_or_frames(design_name, bus_model, num_cores):
    """Tag entries and data frames are created on first fill, not when
    the machine is built."""
    system = CmpSystem(
        build_design(design_name, bus_model=bus_model, num_cores=num_cores)
    )
    arrays = reachable(system, SetAssociativeArray)
    dgroups = reachable(system, DGroup)
    assert len(arrays) > len(system.l1s)  # the L1s and the L2's arrays
    assert [sum(map(len, array._sets)) for array in arrays] == [0] * len(arrays)
    assert [len(dgroup.frames) for dgroup in dgroups] == [0] * len(dgroups)
    # No per-frame free list either: the never-used frames are a count.
    assert [
        name
        for dgroup in dgroups
        for name, value in vars(dgroup).items()
        if isinstance(value, list) and value
    ] == []
    assert bool(dgroups) == design_name.startswith("cmp-nurapid")
