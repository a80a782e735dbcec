"""Unit tests for repro.common.params configuration dataclasses."""

import pytest

from repro.common.params import (
    BUS_LATENCY,
    KB,
    MB,
    MEMORY_LATENCY,
    CacheGeometry,
    IdealCacheParams,
    L1Params,
    NurapidParams,
    PrivateCacheParams,
    SharedCacheParams,
    SnucaParams,
    SystemParams,
)


class TestCacheGeometry:
    def test_paper_l1(self):
        geo = CacheGeometry(64 * KB, 2, 64)
        assert geo.num_blocks == 1024
        assert geo.num_sets == 512
        assert geo.offset_bits == 6
        assert geo.index_bits == 9

    def test_paper_shared_l2(self):
        geo = CacheGeometry(8 * MB, 32, 128)
        assert geo.num_blocks == 65536
        assert geo.num_sets == 2048

    def test_set_index_and_tag_partition_address(self):
        geo = CacheGeometry(2 * MB, 8, 128)
        address = 0xDEADBEEF00
        set_index = geo.set_index(address)
        tag = geo.tag(address)
        reconstructed = (
            (tag << (geo.offset_bits + geo.index_bits))
            | (set_index << geo.offset_bits)
        )
        assert reconstructed == address & ~(geo.block_size - 1)

    def test_set_index_in_range(self):
        geo = CacheGeometry(1 * MB, 4, 128)
        for address in (0, 128, 1 << 30, 0xFFFFFFFF):
            assert 0 <= geo.set_index(address) < geo.num_sets

    def test_rejects_non_power_of_two_capacity(self):
        with pytest.raises(ValueError):
            CacheGeometry(3 * MB, 8, 128)

    def test_rejects_bad_associativity(self):
        with pytest.raises(ValueError):
            CacheGeometry(1 * MB, 0, 128)

    def test_rejects_indivisible_ways(self):
        with pytest.raises(ValueError):
            CacheGeometry(1 * MB, 3, 128)


class TestDefaultParams:
    def test_table1_latencies(self):
        assert SharedCacheParams().hit_latency == 59
        assert PrivateCacheParams().hit_latency == 10
        assert NurapidParams().tag_latency == 5
        assert BUS_LATENCY == 32
        assert MEMORY_LATENCY == 300

    def test_l1_defaults(self):
        params = L1Params()
        assert params.geometry.capacity_bytes == 64 * KB
        assert params.geometry.associativity == 2
        assert params.latency == 3

    def test_ideal_has_private_latency_and_shared_capacity(self):
        params = IdealCacheParams()
        assert params.hit_latency == PrivateCacheParams().hit_latency
        assert params.geometry.capacity_bytes == 8 * MB


class TestSnucaParams:
    def test_default_bank_latencies_filled(self):
        params = SnucaParams()
        assert len(params.bank_latencies) == 4
        assert all(len(row) == params.num_banks for row in params.bank_latencies)

    def test_rejects_non_power_of_two_banks(self):
        with pytest.raises(ValueError):
            SnucaParams(num_banks=12)


class TestNurapidParams:
    def test_frame_counts(self):
        params = NurapidParams()
        assert params.frames_per_dgroup == 16384
        assert params.total_frames == 65536

    def test_tag_geometry_doubles_sets(self):
        params = NurapidParams()
        single = CacheGeometry(2 * MB, 8, 128)
        assert params.tag_geometry.num_sets == 2 * single.num_sets
        assert params.tag_geometry.associativity == single.associativity

    def test_tag_capacity_factor(self):
        quadrupled = NurapidParams(tag_capacity_factor=4)
        doubled = NurapidParams(tag_capacity_factor=2)
        assert quadrupled.tag_geometry.num_sets == 2 * doubled.tag_geometry.num_sets

    def test_default_dgroup_latencies_match_table1(self):
        params = NurapidParams()
        for core in range(4):
            assert sorted(params.dgroup_latencies[core]) == [6, 20, 20, 33]

    def test_rejects_bad_promotion_policy(self):
        with pytest.raises(ValueError):
            NurapidParams(promotion_policy="slowest")

    def test_rejects_bad_replicate_threshold(self):
        with pytest.raises(ValueError):
            NurapidParams(replicate_on_use=0)


class TestSystemParams:
    def test_defaults(self):
        params = SystemParams()
        assert params.num_cores == 4
        assert not params.blocking_stores
