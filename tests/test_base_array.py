"""Unit and property tests for the generic set-associative array."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.caches.base import Entry, SetAssociativeArray
from repro.coherence.states import CoherenceState
from repro.common.params import CacheGeometry
from repro.core.tag_array import NurapidTagEntry, replacement_category

S = CoherenceState.SHARED
E = CoherenceState.EXCLUSIVE
M = CoherenceState.MODIFIED
C = CoherenceState.COMMUNICATION
I = CoherenceState.INVALID  # noqa: E741


def plain(state):
    """A state dict with its numpy columns as (dtype, list) pairs, for ==."""
    if isinstance(state, dict):
        return {key: plain(value) for key, value in state.items()}
    if isinstance(state, list):
        return [plain(value) for value in state]
    if isinstance(state, np.ndarray):
        return state.dtype.str, state.tolist()
    return state


def small_array(capacity=4096, assoc=4, block=64) -> SetAssociativeArray:
    return SetAssociativeArray(CacheGeometry(capacity, assoc, block))


class TestLookupInstall:
    def test_miss_on_empty(self):
        array = small_array()
        assert array.lookup(0x1000) is None

    def test_install_then_hit(self):
        array = small_array()
        victim = array.victim(0x1000)
        array.install(victim, 0x1000, S)
        assert array.lookup(0x1000) is victim

    def test_same_set_different_tags_coexist(self):
        array = small_array()
        # Same set index, different tags.
        step = array.geometry.num_sets * array.geometry.block_size
        addresses = [0x0, step, 2 * step, 3 * step]
        for address in addresses:
            array.install(array.victim(address), address, S)
        for address in addresses:
            assert array.lookup(address) is not None

    def test_lookup_ignores_invalid_entries_with_matching_tag(self):
        array = small_array()
        victim = array.victim(0x40)
        array.install(victim, 0x40, S)
        victim.invalidate()
        assert array.lookup(0x40) is None

    def test_block_address_roundtrip(self):
        array = small_array()
        address = 0xABCDEF00 & ~(array.geometry.block_size - 1)
        entry = array.victim(address)
        array.install(entry, address, E)
        set_index = array.geometry.set_index(address)
        assert array.block_address(set_index, entry) == address


class TestVictimSelection:
    def test_prefers_invalid(self):
        array = small_array()
        step = array.geometry.num_sets * array.geometry.block_size
        array.install(array.victim(0), 0, S)
        victim = array.victim(step)
        assert not victim.valid

    def test_lru_when_full(self):
        array = small_array(capacity=1024, assoc=2, block=64)
        step = array.geometry.num_sets * array.geometry.block_size
        array.install(array.victim(0), 0, S)
        array.install(array.victim(step), step, S)
        array.lookup(0)  # touch block 0; block at `step` becomes LRU
        victim = array.victim(2 * step)
        set_index = array.geometry.set_index(step)
        assert array.block_address(set_index, victim) == step

    def test_category_overrides_lru(self):
        array = small_array(capacity=1024, assoc=2, block=64)
        step = array.geometry.num_sets * array.geometry.block_size
        array.install(array.victim(0), 0, E)       # private, older
        array.install(array.victim(step), step, S)  # shared, newer
        # Category: private (0) before shared (1), despite LRU order.
        category = {E: 0, S: 1}
        victim = array.victim(2 * step, lambda e: category[e.state])
        assert victim.state is E


class TestOccupancy:
    def test_occupancy_counts_valid(self):
        array = small_array()
        assert array.occupancy == 0
        array.install(array.victim(0), 0, S)
        assert array.occupancy == 1

    def test_way_of_finds_entry(self):
        array = small_array()
        entry = array.victim(0x80)
        array.install(entry, 0x80, S)
        set_index = array.geometry.set_index(0x80)
        way = array.way_of(set_index, entry)
        assert array.entry_at(set_index, way) is entry


@settings(max_examples=60, deadline=None)
@given(
    addresses=st.lists(
        st.integers(min_value=0, max_value=255).map(lambda b: b * 64),
        min_size=1,
        max_size=300,
    )
)
def test_matches_reference_model(addresses):
    """The array agrees with a brute-force LRU reference model."""
    geometry = CacheGeometry(2048, 2, 64)  # 32 blocks, 16 sets
    array = SetAssociativeArray(geometry)
    reference: "dict[int, list[int]]" = {}  # set -> blocks, LRU order

    for address in addresses:
        block = address & ~63
        set_index = geometry.set_index(block)
        blocks = reference.setdefault(set_index, [])
        entry = array.lookup(block)
        if block in blocks:
            assert entry is not None, f"array missed resident block {block:#x}"
            blocks.remove(block)
            blocks.append(block)
        else:
            assert entry is None, f"array hit non-resident block {block:#x}"
            victim = array.victim(block)
            array.install(victim, block, S)
            if len(blocks) == geometry.associativity:
                blocks.pop(0)
            blocks.append(block)

    for set_index, blocks in reference.items():
        for block in blocks:
            assert array.lookup(block, touch=False) is not None


@settings(max_examples=60, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["access", "lookup", "victim", "invalidate"]),
            st.integers(min_value=0, max_value=47).map(lambda b: b * 64),
            st.sampled_from([S, E, M, C]),
        ),
        min_size=1,
        max_size=200,
    ),
    nurapid=st.booleans(),
)
def test_first_fill_matches_arrays_built_full(ops, nurapid):
    """Creating entries on first fill picks the same ways, finds the
    same blocks and snapshots the same as an array whose every way
    exists from the start."""
    geometry = CacheGeometry(2048, 4, 64)  # 8 sets of 4 ways
    entry_type, category = (
        (NurapidTagEntry, replacement_category) if nurapid else (Entry, None)
    )
    lazy = SetAssociativeArray(geometry, entry_type)
    full = SetAssociativeArray(geometry, entry_type)
    for set_index in range(geometry.num_sets):
        full.entry_at(set_index, geometry.associativity - 1)

    def way_found(array, address, touch):
        entry = array.lookup(address, touch)
        if entry is None:
            return None
        return array.way_of(geometry.set_index(address), entry)

    for kind, address, state in ops:
        set_index = geometry.set_index(address)
        if kind == "invalidate":
            for array in (lazy, full):
                entry = array.lookup(address, touch=False)
                if entry is not None:
                    entry.invalidate()
            continue
        hit = way_found(lazy, address, kind == "access")
        assert hit == way_found(full, address, kind == "access")
        if kind == "lookup" or hit is not None:
            continue
        victims = [array.victim(address, category) for array in (lazy, full)]
        assert lazy.way_of(set_index, victims[0]) == full.way_of(set_index, victims[1])
        if kind == "access":
            for array, victim in zip((lazy, full), victims):
                array.install(victim, address, state)
    assert plain(lazy.state_dict()) == plain(full.state_dict())
