"""Property tests: the SoA pool's primitives track the scalar L1.

Three layers, all against random streams:

* the **vectorized primitives** (masked tag :meth:`L1Pool.probe`,
  :meth:`L1Pool.classify`, and the occurrence-ranked recency update in
  :meth:`L1Pool.commit_hits`) must agree element-wise with what
  ``L1Cache``/``SetAssociativeArray`` compute one access at a time;
* the **scalar fallback ops** (``load``/``store``/``fill``/``revoke``/
  ``invalidate``) must mirror ``L1Cache`` return values, stats, and
  array state bit for bit over arbitrary interleavings;
* **re-sync round-trips** (:meth:`L1Pool.from_caches` →
  :meth:`L1Pool.write_back`) must be lossless for every field the L1
  ever mutates.

A tiny 4 KB / 2-way / 128 B geometry (16 sets) keeps collision and
eviction pressure high at small stream lengths.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.caches.l1 import L1Cache
from repro.common.params import KB, CacheGeometry, L1Params
from repro.kernel import L1Pool

SMALL = L1Params(geometry=CacheGeometry(4 * KB, 2, 128))
BLOCK = SMALL.geometry.block_size
L2_BLOCK = 1024  # spans several L1 blocks, exercising inclusion sweeps


def small_l1() -> L1Cache:
    return L1Cache(SMALL)


# One op: (kind, block, offset, writable, dirty).  Blocks 0..63 over 16
# sets force plenty of aliasing and eviction.
ops = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=0, max_value=63),
        st.integers(min_value=0, max_value=BLOCK - 1),
        st.booleans(),
        st.booleans(),
    ),
    min_size=1,
    max_size=200,
)


def apply_scalar(l1: L1Cache, op):
    kind, block, offset, writable, dirty = op
    address = block * BLOCK + offset
    if kind == 0:
        return l1.load(address)
    if kind == 1:
        return l1.store(address)
    if kind == 2:
        return l1.fill(address, writable=writable, dirty=dirty)
    if kind == 3:
        return l1.revoke_writable(address)
    if kind == 4:
        return l1.invalidate(address)
    return l1.invalidate_l2_block(block * BLOCK, L2_BLOCK)


def apply_pool(pool: L1Pool, slot: int, op):
    kind, block, offset, writable, dirty = op
    address = block * BLOCK + offset
    if kind == 0:
        return pool.load(slot, address)
    if kind == 1:
        return pool.store(slot, address)
    if kind == 2:
        return pool.fill(slot, address, writable=writable, dirty=dirty)
    if kind == 3:
        return pool.revoke_writable(slot, address)
    if kind == 4:
        return pool.invalidate(slot, address)
    return pool.invalidate_l2_block(slot, block * BLOCK, L2_BLOCK)


def cache_state(l1: L1Cache):
    """Every mutable field, as one comparable structure."""
    return (
        [
            (set_index, way, entry.tag, entry.state, entry.writable,
             entry.dirty, entry.lru)
            for set_index, way, entry in l1.array.entries()
        ],
        l1.array._clock,
        l1.stats,
    )


def assert_pool_matches(pool: L1Pool, slot: int, l1: L1Cache):
    """The pool's ``slot`` equals ``l1`` after a write-back."""
    mirror = small_l1()
    single = L1Pool(1, SMALL)
    for name in ("tags", "valid", "writable", "dirty", "lru"):
        getattr(single, name)[0] = getattr(pool, name)[slot]
    single.clock[0] = pool.clock[slot]
    for name, array in single.counters.items():
        array[0] = pool.counters[name][slot]
    single.write_back([mirror])
    got_entries, got_clock, got_stats = cache_state(mirror)
    want_entries, want_clock, want_stats = cache_state(l1)
    # write_back normalizes invalid entries' tag/writable/dirty/lru to
    # whatever the arrays hold; the scalar cache keeps stale tags on
    # invalid entries too, and both agree because invalidate preserves
    # them identically.  Compare everything.
    assert got_entries == want_entries
    assert got_clock == want_clock
    assert got_stats == want_stats


@settings(max_examples=60, deadline=None)
@given(ops=ops)
def test_scalar_ops_mirror_l1cache(ops):
    """Same op stream: same return values, stats, and final state."""
    l1 = small_l1()
    pool = L1Pool(2, SMALL)  # slot 1 stays untouched and must stay zero
    for op in ops:
        want = apply_scalar(l1, op)
        got = apply_pool(pool, 0, op)
        assert got == want, (op, got, want)
    assert_pool_matches(pool, 0, l1)
    assert not pool.valid[1].any()
    assert pool.clock[1] == 0


@settings(max_examples=60, deadline=None)
@given(ops=ops, probes=st.lists(
    st.integers(min_value=0, max_value=63), min_size=1, max_size=50
))
def test_probe_and_classify_match_scalar(ops, probes):
    """After arbitrary state, batched probe/classify == per-access L1."""
    l1 = small_l1()
    pool = L1Pool(1, SMALL)
    for op in ops:
        apply_scalar(l1, op)
        apply_pool(pool, 0, op)

    addresses = np.asarray([block * BLOCK for block in probes])
    slots = np.zeros(len(probes), dtype=np.int64)
    sets = (addresses >> pool.offset_bits) & pool.index_mask
    tags = addresses >> pool.tag_shift

    hit, way = pool.probe(slots, sets, tags)
    for i, address in enumerate(addresses):
        entry = l1.array.lookup(int(address), touch=False)
        assert bool(hit[i]) == (entry is not None)
        if entry is not None:
            assert int(pool.tags[0, sets[i], way[i]]) == entry.tag

    for is_write in (np.zeros(len(probes), dtype=bool),
                     np.ones(len(probes), dtype=bool)):
        pure, chit, cway = pool.classify(slots, sets, tags, is_write)
        np.testing.assert_array_equal(chit, hit)
        for i, address in enumerate(addresses):
            entry = l1.array.lookup(int(address), touch=False)
            if entry is None:
                want_pure = False
            elif is_write[i]:
                want_pure = entry.writable
            else:
                want_pure = True
            assert bool(pure[i]) == want_pure


@settings(max_examples=60, deadline=None)
@given(
    fills=st.lists(
        st.tuples(st.integers(min_value=0, max_value=31), st.booleans()),
        min_size=1, max_size=40, unique_by=lambda f: f[0],
    ),
    data=st.data(),
)
def test_commit_hits_matches_scalar_hit_stream(fills, data):
    """A run of guaranteed hits: ranked stamps == one-at-a-time clock.

    Fill both sides identically, then draw a random hit-only stream
    over the resident blocks (stores only where the line is writable)
    and commit it in one vector call; LRU stamps, clock, dirty bits,
    and hit counters must equal the scalar replay.
    """
    l1 = small_l1()
    pool = L1Pool(1, SMALL)
    for block, writable in fills:
        l1.fill(block * BLOCK, writable=writable, dirty=False)
        pool.fill(0, block * BLOCK, writable=writable, dirty=False)

    stream = data.draw(st.lists(
        st.tuples(st.sampled_from(fills), st.booleans()),
        min_size=1, max_size=80,
    ))
    # A store on a non-writable line would leave the pure-hit contract;
    # demote those to loads, as the engine's classify would.
    stream = [
        (block, is_write and writable)
        for (block, writable), is_write in stream
    ]

    for block, is_write in stream:
        assert (l1.store(block * BLOCK) if is_write
                else l1.load(block * BLOCK))

    addresses = np.asarray([block * BLOCK for block, _ in stream])
    slots = np.zeros(len(stream), dtype=np.int64)
    sets = (addresses >> pool.offset_bits) & pool.index_mask
    tags = addresses >> pool.tag_shift
    is_write = np.asarray([w for _, w in stream])
    pure, hit, way = pool.classify(slots, sets, tags, is_write)
    assert pure.all()
    pool.commit_hits(slots, sets, way, is_write)

    assert_pool_matches(pool, 0, l1)


@settings(max_examples=40, deadline=None)
@given(ops_by_core=st.lists(ops, min_size=1, max_size=3))
def test_from_caches_write_back_round_trip(ops_by_core):
    """from_caches -> write_back is lossless for arbitrary L1 states."""
    l1s = [small_l1() for _ in ops_by_core]
    for l1, core_ops in zip(l1s, ops_by_core):
        for op in core_ops:
            apply_scalar(l1, op)
    want = [cache_state(l1) for l1 in l1s]

    pool = L1Pool.from_caches(l1s)
    fresh = [small_l1() for _ in ops_by_core]
    pool.write_back(fresh)
    got = [cache_state(l1) for l1 in fresh]
    assert got == want

    # And the block maps agree with the arrays they index.
    for slot in range(pool.num_slots):
        resident = {
            (int(pool.tags[slot, s, w]) << pool.index_bits) | s
            for s in range(pool.num_sets)
            for w in range(pool.ways)
            if pool.valid[slot, s, w]
        }
        assert set(pool.block_maps[slot]) == resident


def test_from_caches_rejects_mixed_geometry():
    big = L1Cache(L1Params())
    with pytest.raises(ValueError):
        L1Pool.from_caches([small_l1(), big])


def test_write_back_rejects_wrong_arity():
    pool = L1Pool(2, SMALL)
    with pytest.raises(ValueError):
        pool.write_back([small_l1()])


# ---------------------------------------------------------------------------
# EventTape edge cases: the windowed engine at its boundaries.
#
# The engine consumes tapes in WINDOW-sized speculative slices; the
# interesting lengths are the degenerate ones — no events at all, a
# single event (window of one), a tape that is exactly one window, and
# a ragged tape whose final window is only partially filled.  All four
# must stay bit-identical to the scalar engine for every lane in a
# mixed batch.


def _tape_edge_designs():
    from repro.experiments.runner import build_design

    return [
        ("private", "atomic"),
        ("cmp-nurapid", "atomic"),
        ("cmp-nurapid-cr", "eventq"),
    ], build_design


def _edge_stream(n, num_cores=4):
    """A deterministic n-event mix of aliasing reads and writes."""
    from repro.common.types import Access, AccessType, SharingClass
    from repro.cpu.system import TimedAccess

    for i in range(n):
        core = i % num_cores
        shared = i % 3 == 0
        base = 0x40000 if shared else (core + 1) << 20
        address = base + (i % 7) * 64
        kind = AccessType.WRITE if i % 5 == 2 else AccessType.READ
        sharing = (
            SharingClass.READ_WRITE_SHARED if shared else SharingClass.PRIVATE
        )
        yield TimedAccess(Access(core, address, kind, sharing),
                          gap=i % 4, colocated=i % 2)


@pytest.mark.parametrize(
    "length",
    [0, 1, 24, 53],
    ids=["empty", "single", "exactly-one-window", "ragged-mid-window"],
)
def test_event_tape_edge_lengths_identical(length):
    from repro.common.params import SystemParams
    from repro.experiments.runner import run_design_on_events
    from repro.kernel import BatchKernel, EventTape
    from repro.kernel.engine import WINDOW

    assert 24 == WINDOW  # the ids above encode the window size
    names, build_design = _tape_edge_designs()
    params = SystemParams()
    tape = EventTape.from_events(_edge_stream(length), params.l1)
    assert tape.n == length
    designs = [build_design(n, bus_model=b) for n, b in names]
    kernel = BatchKernel(designs, params)
    kernel.run(tape, 0)
    for index, (name, bus) in enumerate(names):
        fresh = build_design(name, bus_model=bus)
        _, stats = run_design_on_events(fresh, _edge_stream(length), 0)
        assert kernel.lane_stats(index).fingerprint() == stats.fingerprint(), (
            f"{name}/{bus} diverged on a {length}-event tape"
        )


def test_event_tape_warmup_beyond_tape_identical():
    """warmup_events past the end of the tape: both engines measure
    nothing and agree on the (all-zero) statistics."""
    from repro.common.params import SystemParams
    from repro.experiments.runner import run_design_on_events
    from repro.kernel import BatchKernel, EventTape

    names, build_design = _tape_edge_designs()
    params = SystemParams()
    tape = EventTape.from_events(_edge_stream(10), params.l1)
    designs = [build_design(n, bus_model=b) for n, b in names]
    kernel = BatchKernel(designs, params)
    kernel.run(tape, 10)
    for index, (name, bus) in enumerate(names):
        fresh = build_design(name, bus_model=bus)
        _, stats = run_design_on_events(fresh, _edge_stream(10), 10)
        assert kernel.lane_stats(index).fingerprint() == stats.fingerprint()
