"""Tests for the synthetic workload generators."""

import itertools

import numpy as np
import pytest

from repro.common.rng import stream
from repro.common.types import AccessType, SharingClass
from repro.workloads.base import (
    BATCH,
    BLOCK,
    HotSet,
    RegionSpec,
    SyntheticWorkload,
    WorkloadSpec,
    private_block_address,
    shared_ro_block_address,
    shared_rw_block_address,
)
from repro.workloads.multiprogrammed import MIXES, SPEC_APPS, make_mix
from repro.workloads.multithreaded import (
    COMMERCIAL,
    MULTITHREADED,
    make_workload,
    workload_spec,
)
from tests import workload_reference as reference


def tiny_spec(**overrides) -> WorkloadSpec:
    defaults = dict(
        name="tiny",
        mem_ratio=0.4,
        p_private=0.5,
        p_shared_ro=0.25,
        p_shared_rw=0.25,
        private=RegionSpec(blocks=100, hot_blocks=20),
        shared_ro=RegionSpec(blocks=80, hot_blocks=16),
        shared_rw=RegionSpec(blocks=60, hot_blocks=12),
        p_recent=0.5,
        recent_window=8,
        spatial_factor=2.0,
    )
    defaults.update(overrides)
    return WorkloadSpec(**defaults)


class TestSpecValidation:
    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(ValueError):
            tiny_spec(p_private=0.9)

    def test_missing_region_rejected(self):
        with pytest.raises(ValueError):
            tiny_spec(shared_rw=None)

    def test_bad_mem_ratio(self):
        with pytest.raises(ValueError):
            tiny_spec(mem_ratio=0.0)

    def test_bad_spatial_factor(self):
        with pytest.raises(ValueError):
            tiny_spec(spatial_factor=0.5)

    def test_hot_set_cannot_exceed_footprint(self):
        with pytest.raises(ValueError):
            RegionSpec(blocks=10, hot_blocks=11)


class TestAddresses:
    def test_regions_are_disjoint(self):
        privates = {private_block_address(c, b) for c in range(4) for b in range(100)}
        ro = {shared_ro_block_address(b) for b in range(100)}
        rw = {shared_rw_block_address(b) for b in range(100)}
        assert not privates & ro
        assert not privates & rw
        assert not ro & rw

    def test_per_core_private_spaces_disjoint(self):
        a = {private_block_address(0, b) for b in range(1000)}
        b = {private_block_address(1, b) for b in range(1000)}
        assert not a & b

    def test_block_alignment_within_l2_block(self):
        for block in range(200):
            address = shared_ro_block_address(block)
            assert (address // BLOCK) * BLOCK in (address, address - 64)


def columns(workload, accesses_per_core):
    """The workload's chunks, concatenated column by column."""
    chunks = list(workload.chunks(accesses_per_core))
    return {
        name: np.concatenate([getattr(chunk, name) for chunk in chunks])
        for name in ("core", "address", "is_write", "sharing", "gap", "colocated")
    }


class TestEventShaper:
    def test_long_run_average_matches_spec(self):
        spec = tiny_spec(mem_ratio=0.25, spatial_factor=3.0)
        n = 10_000
        shaped = columns(SyntheticWorkload(spec, num_cores=1), n)
        total_gap = int(shaped["gap"].sum())
        total_colocated = int(shaped["colocated"].sum())
        mem_instructions = n * 1 + total_colocated
        all_instructions = mem_instructions + total_gap
        assert mem_instructions / all_instructions == pytest.approx(0.25, rel=0.01)
        assert (total_colocated + n) / n == pytest.approx(3.0, rel=0.01)

    @pytest.mark.parametrize("workload", [make_workload("oltp"), make_mix("MIX1")],
                             ids=["one-spec", "spec-per-core"])
    def test_columns_match_reference_shaper(self, workload):
        """Each core's gap/colocated columns, across chunk boundaries, are
        exactly ``EventShaper.next_shape``'s sequence for its spec."""
        n = 2 * BATCH + 5
        shaped = columns(workload, n)
        for core, core_stream in enumerate(workload._streams()):
            shaper = reference.EventShaper(core_stream.spec)
            want = [shaper.next_shape() for _ in range(n)]
            got = list(zip(shaped["gap"][core::workload.num_cores].tolist(),
                           shaped["colocated"][core::workload.num_cores].tolist()))
            assert got == want, f"core {core}"


class TestHotSet:
    def test_initial_blocks_within_footprint(self):
        region = RegionSpec(blocks=50, hot_blocks=10)
        hot = HotSet(region, stream("test.hot"))
        assert len(hot.blocks) == 10
        assert all(0 <= b < 50 for b in hot.blocks)
        assert len(set(hot.blocks.tolist())) == 10  # sampled without replacement

    def test_draw_uniform_in_range(self):
        region = RegionSpec(blocks=50, hot_blocks=10)
        hot = HotSet(region, stream("test.hot"))
        uniforms = np.arange(100) / 100.0
        draws = hot.resolve(np.arange(100), uniforms, np.ones(100))
        assert set(draws.tolist()) <= set(hot.blocks.tolist())

    def test_rotation_changes_membership(self):
        region = RegionSpec(blocks=1000, hot_blocks=10, rotate_prob=1.0)
        hot = HotSet(region, stream("test.hot"))
        before = hot.blocks.copy()
        hot.resolve(np.arange(50), np.zeros(50), np.zeros(50))
        assert hot.blocks.tolist() != before.tolist()

    def test_no_rotation_above_probability(self):
        region = RegionSpec(blocks=1000, hot_blocks=10, rotate_prob=0.01)
        hot = HotSet(region, stream("test.hot"))
        before = hot.blocks.copy()
        hot.resolve(np.arange(1), np.zeros(1), np.full(1, 0.5))  # 0.5 >= 0.01
        assert hot.blocks.tolist() == before.tolist()

    def test_resolve_matches_per_event_reads_and_rotations(self):
        """Reads given out of time order, over two chunks, see exactly the
        rotations the per-event hot set applies in time order."""
        region = RegionSpec(blocks=40, hot_blocks=4, rotate_prob=0.3)
        oracle = reference.HotSet(region, stream("test.hot"))
        hot = HotSet(region, stream("test.hot"))
        rng = np.random.default_rng(3)
        for _ in range(2):
            times = rng.permutation(600)[:400]
            picks, rotates = rng.random(400), rng.random(400)
            got = hot.resolve(times, picks, rotates)
            want = np.empty(400, dtype=np.int64)
            for i in np.argsort(times):
                want[i] = oracle.draw(picks[i])
                oracle.maybe_rotate(rotates[i])
            assert got.tolist() == want.tolist()
            assert hot.blocks.tolist() == oracle.blocks


def _rows(events):
    return [
        (e.access.core, e.access.address, e.access.type, e.access.sharing,
         e.gap, e.colocated)
        for e in events
    ]


#: tiny_spec edge cases for the reference differential.
EDGE_SPECS = {
    "default": tiny_spec(),
    "window-0": tiny_spec(recent_window=0),
    "window-1": tiny_spec(recent_window=1),
    "no-recent": tiny_spec(p_recent=0.0),
    "always-recent": tiny_spec(p_recent=1.0),
    "always-rotate": tiny_spec(
        private=RegionSpec(blocks=100, hot_blocks=20, rotate_prob=1.0),
        shared_ro=RegionSpec(blocks=80, hot_blocks=16, rotate_prob=1.0),
        shared_rw=RegionSpec(blocks=60, hot_blocks=12, rotate_prob=1.0),
    ),
    "no-hot-set": tiny_spec(
        private=RegionSpec(blocks=100),
        shared_ro=RegionSpec(blocks=80),
        shared_rw=RegionSpec(blocks=60),
    ),
    "all-hot": tiny_spec(
        private=RegionSpec(blocks=100, hot_blocks=20, hot_fraction=1.0),
        shared_ro=RegionSpec(blocks=80, hot_blocks=16, hot_fraction=1.0),
        shared_rw=RegionSpec(blocks=60, hot_blocks=12, hot_fraction=1.0),
    ),
    "private-only": tiny_spec(p_private=1.0, p_shared_ro=0.0, p_shared_rw=0.0),
}


class TestReferenceDifferential:
    """The columnar generator against the per-event one it replaced."""

    @pytest.mark.parametrize("cores", [1, 4])
    @pytest.mark.parametrize("name", sorted(EDGE_SPECS))
    def test_edge_specs_match_reference(self, name, cores):
        workload = SyntheticWorkload(EDGE_SPECS[name], num_cores=cores, seed=5)
        for length in (1, BATCH + 1):
            want = _rows(reference.reference_events(workload, length))
            assert _rows(workload.events(length)) == want, f"length {length}"

    def test_mix_matches_reference(self):
        workload = make_mix("MIX3", seed=9)
        want = _rows(reference.reference_events(workload, BATCH + 3))
        assert _rows(workload.events(BATCH + 3)) == want


class TestStreamProperties:
    def test_deterministic_for_same_seed(self):
        events_a = list(
            SyntheticWorkload(tiny_spec(), seed=5).events(accesses_per_core=50)
        )
        events_b = list(
            SyntheticWorkload(tiny_spec(), seed=5).events(accesses_per_core=50)
        )
        assert [(e.access.core, e.access.address, e.access.type) for e in events_a] == [
            (e.access.core, e.access.address, e.access.type) for e in events_b
        ]

    def test_different_seeds_differ(self):
        events_a = list(
            SyntheticWorkload(tiny_spec(), seed=1).events(accesses_per_core=100)
        )
        events_b = list(
            SyntheticWorkload(tiny_spec(), seed=2).events(accesses_per_core=100)
        )
        assert [e.access.address for e in events_a] != [
            e.access.address for e in events_b
        ]

    def test_round_robin_core_order(self):
        events = list(SyntheticWorkload(tiny_spec()).events(accesses_per_core=3))
        cores = [event.access.core for event in events]
        assert cores == [0, 1, 2, 3] * 3

    def test_sharing_classes_match_regions(self):
        events = list(SyntheticWorkload(tiny_spec()).events(accesses_per_core=200))
        for event in events:
            access = event.access
            if access.sharing is SharingClass.PRIVATE:
                assert access.address >= (1 << 32)
                assert access.address < (1 << 40)
            elif access.sharing is SharingClass.READ_ONLY_SHARED:
                assert (1 << 40) <= access.address < (1 << 41)
            else:
                assert access.address >= (1 << 41)

    def test_read_only_region_never_written(self):
        events = list(SyntheticWorkload(tiny_spec()).events(accesses_per_core=500))
        for event in events:
            if event.access.sharing is SharingClass.READ_ONLY_SHARED:
                assert event.access.type is AccessType.READ

    def test_rws_writes_come_from_writer_core(self):
        events = list(SyntheticWorkload(tiny_spec()).events(accesses_per_core=500))
        for event in events:
            access = event.access
            if (
                access.sharing is SharingClass.READ_WRITE_SHARED
                and access.type is AccessType.WRITE
            ):
                block = (access.address - (1 << 41)) // BLOCK
                assert block % 4 == access.core


class TestTable3Workloads:
    def test_all_five_defined(self):
        names = [spec.name for spec in MULTITHREADED]
        assert names == ["oltp", "apache", "specjbb", "ocean", "barnes"]

    def test_commercial_share_more_than_scientific(self):
        for commercial in COMMERCIAL:
            sharing = commercial.p_shared_ro + commercial.p_shared_rw
            assert sharing > 0.3
        for scientific in ("ocean", "barnes"):
            spec = workload_spec(scientific)
            assert spec.p_shared_ro + spec.p_shared_rw < 0.15

    def test_oltp_is_rws_dominated(self):
        oltp = workload_spec("oltp")
        assert oltp.p_shared_rw > oltp.p_shared_ro

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError):
            workload_spec("tpc-h")

    def test_make_workload_produces_events(self):
        workload = make_workload("barnes")
        events = list(itertools.islice(workload.events(10), 40))
        assert len(events) == 40


class TestTable2Mixes:
    def test_mixes_match_table2(self):
        assert MIXES["MIX1"] == ("apsi", "art", "equake", "mesa")
        assert MIXES["MIX2"] == ("ammp", "swim", "mesa", "vortex")
        assert MIXES["MIX3"] == ("apsi", "mcf", "gzip", "mesa")
        assert MIXES["MIX4"] == ("ammp", "gzip", "vortex", "wupwise")

    def test_all_ten_apps_modelled(self):
        used = {app for mix in MIXES.values() for app in mix}
        assert used == set(SPEC_APPS)

    def test_capacity_demands_are_nonuniform(self):
        """Streaming apps exceed 2 MB (16384 blocks); small apps fit."""
        for big in ("art", "mcf", "swim"):
            assert SPEC_APPS[big].hot_blocks > 16384
        for small in ("mesa", "gzip", "wupwise", "vortex"):
            assert SPEC_APPS[small].hot_blocks < 8192

    def test_mix_events_are_private_only(self):
        mix = make_mix("MIX2")
        events = list(itertools.islice(mix.events(20), 80))
        assert all(e.access.sharing is SharingClass.PRIVATE for e in events)

    def test_unknown_mix_rejected(self):
        with pytest.raises(KeyError):
            make_mix("MIX9")

    def test_mix_deterministic(self):
        a = [e.access.address for e in make_mix("MIX1", seed=4).events(30)]
        b = [e.access.address for e in make_mix("MIX1", seed=4).events(30)]
        assert a == b
