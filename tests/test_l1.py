"""Unit tests for the per-core L1 cache."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.caches.l1 import L1Cache
from repro.common.params import KB, CacheGeometry, L1Params
from tests.l1_reference import ReferenceL1
from tests.test_base_array import plain


def make_l1() -> L1Cache:
    return L1Cache(L1Params(geometry=CacheGeometry(4 * KB, 2, 64), latency=3))


class TestLoads:
    def test_load_miss_then_fill_then_hit(self):
        l1 = make_l1()
        assert not l1.load(0x1000)
        l1.fill(0x1000)
        assert l1.load(0x1000)
        assert l1.stats.load_misses == 1
        assert l1.stats.load_hits == 1

    def test_load_does_not_autofill(self):
        l1 = make_l1()
        l1.load(0x1000)
        assert not l1.probe(0x1000)


class TestStores:
    def test_store_miss(self):
        l1 = make_l1()
        assert not l1.store(0x2000)
        assert l1.stats.store_misses == 1

    def test_store_without_permission_is_upgrade(self):
        l1 = make_l1()
        l1.fill(0x2000, writable=False)
        assert not l1.store(0x2000)
        assert l1.stats.store_upgrades == 1

    def test_store_with_permission_completes_locally(self):
        l1 = make_l1()
        l1.fill(0x2000, writable=True)
        assert l1.store(0x2000)
        assert l1.stats.store_hits == 1

    def test_revoke_writable_forces_next_store_down(self):
        l1 = make_l1()
        l1.fill(0x2000, writable=True)
        assert l1.store(0x2000)
        l1.revoke_writable(0x2000)
        assert not l1.store(0x2000)

    def test_write_through_blocks_never_writable(self):
        """CMP-NuRAPID C blocks: every store must reach the L2."""
        l1 = make_l1()
        l1.fill(0x2000, writable=False)
        for _ in range(3):
            assert not l1.store(0x2000)
        assert l1.stats.store_upgrades == 3


class TestInvalidation:
    def test_invalidate_present_block(self):
        l1 = make_l1()
        l1.fill(0x3000)
        assert l1.invalidate(0x3000)
        assert not l1.probe(0x3000)
        assert l1.stats.invalidations == 1

    def test_invalidate_absent_block_is_noop(self):
        l1 = make_l1()
        assert not l1.invalidate(0x3000)
        assert l1.stats.invalidations == 0

    def test_dirty_invalidation_counts_writeback(self):
        l1 = make_l1()
        l1.fill(0x3000, writable=True)
        l1.store(0x3000)
        l1.invalidate(0x3000)
        assert l1.stats.writebacks == 1

    def test_inclusion_covers_both_halves_of_l2_block(self):
        """A 128 B L2 block spans two 64 B L1 blocks."""
        l1 = make_l1()
        l1.fill(0x4000)
        l1.fill(0x4040)
        count = l1.invalidate_l2_block(0x4000, 128)
        assert count == 2
        assert not l1.probe(0x4000)
        assert not l1.probe(0x4040)

    def test_inclusion_with_misaligned_address(self):
        l1 = make_l1()
        l1.fill(0x4000)
        assert l1.invalidate_l2_block(0x4040, 128) == 1


class TestEviction:
    def test_conflict_eviction_writes_back_dirty(self):
        l1 = make_l1()
        geometry = l1.params.geometry
        step = geometry.num_sets * geometry.block_size
        l1.fill(0, writable=True)
        l1.store(0)
        l1.fill(step)
        l1.fill(2 * step)  # 2-way set now evicts the dirty block
        assert l1.stats.writebacks == 1

    def test_miss_rate(self):
        l1 = make_l1()
        l1.load(0x100)
        l1.fill(0x100)
        l1.load(0x100)
        assert l1.stats.miss_rate == 0.5


def indexed_lines(l1) -> "dict[int, int]":
    """Line number -> id of each valid entry, read from the sets."""
    array = l1.array
    offset_bits = l1.params.geometry.offset_bits
    return {
        array.block_address(set_index, entry) >> offset_bits: id(entry)
        for set_index, _way, entry in array.valid_entries()
    }


#: One L1 operation: its name (fills weighted up, so sets fill and
#: evict), the address it names (one of six lines per set of a 4-set
#: L1, at any byte offset), fill's ``writable`` and ``dirty`` flags,
#: and ``invalidate_l2_block``'s L2 block size.
L1_OPS = st.tuples(
    st.sampled_from(
        ["load", "load", "store", "store", "fill", "fill", "fill",
         "revoke", "invalidate", "l2-block", "restore"]
    ),
    st.builds(
        lambda line, offset: line * 64 + offset,
        st.integers(min_value=0, max_value=4 * 6 - 1),
        st.integers(min_value=0, max_value=63),
    ),
    st.booleans(),
    st.booleans(),
    st.sampled_from([64, 128, 256]),
)


def l1_op(name, address, writable=False, dirty=False, l2_size=64):
    return name, address, writable, dirty, l2_size


# The examples run each path that changes the index, whatever the
# draw: an eviction, an invalidation and a restore, each followed by a
# lookup.
@settings(max_examples=80, deadline=None)
@given(
    ways=st.sampled_from([1, 2, 4]),
    ops=st.lists(L1_OPS, min_size=8, max_size=200),
)
@example(ways=1, ops=[l1_op("fill", 0), l1_op("fill", 256), l1_op("load", 0)])
@example(ways=2, ops=[l1_op("fill", 64, True), l1_op("invalidate", 100),
                      l1_op("store", 64)])
@example(ways=4, ops=[l1_op("fill", 128), l1_op("restore", 0), l1_op("load", 130)])
def test_line_index_matches_set_scan(ways, ops):
    """The indexed L1 returns what the set-scanning reference returns
    and holds the same state after every step; its index holds exactly
    the valid entries, also after a snapshot round trip."""
    params = L1Params(geometry=CacheGeometry(4 * ways * 64, ways, 64), latency=3)
    l1, reference = L1Cache(params), ReferenceL1(params)
    for name, address, writable, dirty, l2_size in ops:
        if name == "restore":
            restored = L1Cache(params)
            restored.load_state_dict(l1.state_dict())
            l1 = restored
            got = want = None
        elif name == "fill":
            got = l1.fill(address, writable, dirty)
            want = reference.fill(address, writable, dirty)
        elif name == "revoke":
            got = l1.revoke_writable(address)
            want = reference.revoke_writable(address)
        elif name == "l2-block":
            got = l1.invalidate_l2_block(address, l2_size)
            want = reference.invalidate_l2_block(address, l2_size)
        else:
            got = getattr(l1, name)(address)
            want = getattr(reference, name)(address)
        assert got == want
        assert l1.probe(address) == reference.probe(address)
        assert plain(l1.state_dict()) == plain(reference.state_dict())
        assert {line: id(entry) for line, entry in l1.lines.items()} == (
            indexed_lines(l1)
        )
