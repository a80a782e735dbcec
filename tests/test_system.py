"""Tests for the CmpSystem hierarchy wiring and the timing model."""

import itertools

import numpy as np
import pytest

from repro.caches.shared import SharedCache
from repro.common.params import KB, CacheGeometry, SharedCacheParams, SystemParams
from repro.common.types import Access, AccessType, SharingClass
from repro.core.nurapid import NurapidCache
from repro.common.params import NurapidParams
from repro.cpu.core import InOrderCore
from repro.cpu.system import (
    CmpSystem,
    DeferredEventError,
    EventChunk,
    TimedAccess,
    run_workload,
    split_chunks,
)
from repro.experiments.runner import BUS_MODELS, DESIGN_FACTORIES, build_design
from repro.harness import FaultInjector, FaultSpec
from repro.workloads.base import BATCH
from repro.workloads.multiprogrammed import make_mix
from repro.workloads.multithreaded import make_workload


def read(core, address):
    return Access(core, address, AccessType.READ)


def write(core, address):
    return Access(core, address, AccessType.WRITE)


def small_system(blocking_stores=False) -> CmpSystem:
    design = SharedCache(SharedCacheParams(geometry=CacheGeometry(32 * KB, 4, 128)))
    return CmpSystem(design, SystemParams(blocking_stores=blocking_stores))


class TestInOrderCore:
    def test_gap_instructions_one_cycle_each(self):
        core = InOrderCore(0, l1_latency=3)
        core.execute_gap(10)
        assert core.instructions == 10
        assert core.cycles == 10

    def test_memory_charges_l1_latency_plus_stall(self):
        core = InOrderCore(0, l1_latency=3)
        core.execute_memory(stall_cycles=59)
        assert core.instructions == 1
        assert core.cycles == 62

    def test_colocated_accesses_are_l1_hits(self):
        core = InOrderCore(0, l1_latency=3)
        core.execute_colocated(4)
        assert core.instructions == 4
        assert core.cycles == 12

    def test_ipc(self):
        core = InOrderCore(0)
        core.execute_gap(7)
        core.execute_memory(0)
        assert core.ipc == 8 / 10


class TestL1Filtering:
    def test_l1_hit_avoids_l2(self):
        system = small_system()
        system.access(read(0, 0x1000))  # miss, fills L1
        l2_before = system.design.stats.total
        stall = system.access(read(0, 0x1000))
        assert stall == 0
        assert system.design.stats.total == l2_before

    def test_l1_miss_goes_to_l2(self):
        system = small_system()
        stall = system.access(read(0, 0x1000))
        assert stall == 59 + 300
        assert system.design.stats.total == 1


class TestStoreSemantics:
    def test_nonblocking_store_returns_zero_stall(self):
        system = small_system(blocking_stores=False)
        stall = system.access(write(0, 0x1000))
        assert stall == 0
        assert system.design.stats.total == 1  # L2 still saw it

    def test_blocking_store_stalls(self):
        system = small_system(blocking_stores=True)
        stall = system.access(write(0, 0x1000))
        assert stall == 59 + 300

    def test_store_grants_write_permission(self):
        system = small_system()
        system.access(write(0, 0x1000))
        l2_before = system.design.stats.total
        system.access(write(0, 0x1000))  # completes in L1
        assert system.design.stats.total == l2_before

    def test_store_invalidates_other_l1_copies(self):
        system = small_system()
        system.access(read(1, 0x1000))  # core 1 caches it
        assert system.l1s[1].probe(0x1000)
        system.access(write(0, 0x1000))
        assert not system.l1s[1].probe(0x1000)

    def test_load_revokes_remote_write_permission(self):
        system = small_system()
        system.access(write(0, 0x1000))   # core 0 writable
        system.access(read(1, 0x1000))    # downgrade
        l2_before = system.design.stats.total
        system.access(write(0, 0x1000))   # must re-request
        assert system.design.stats.total == l2_before + 1


class TestWriteThroughBlocks:
    def test_c_block_stores_always_reach_l2(self):
        from repro.common.params import KB as KiB

        design = NurapidCache(
            NurapidParams(dgroup_capacity_bytes=16 * KiB, tag_associativity=4)
        )
        system = CmpSystem(design)
        system.access(write(0, 0x2000))
        system.access(read(1, 0x2000))  # block enters C
        l2_before = design.stats.total
        system.access(write(0, 0x2000))
        system.access(write(0, 0x2000))
        assert design.stats.total == l2_before + 2  # every store went down


class TestInclusion:
    def test_l2_eviction_invalidates_l1(self):
        system = small_system()
        design = system.design
        geometry = design.params.geometry
        step = geometry.num_sets * geometry.block_size
        system.access(read(0, 0))
        assert system.l1s[0].probe(0)
        for i in range(1, geometry.associativity + 1):
            system.access(read(0, i * step))
        assert not system.l1s[0].probe(0)  # inclusion enforced


class TestRunAndStats:
    def test_run_accumulates_timing(self):
        system = small_system()
        events = [
            TimedAccess(read(0, 0x1000), gap=5, colocated=2),
            TimedAccess(read(0, 0x1000), gap=5, colocated=2),
        ]
        system.run(events)
        stats = system.stats()
        core = stats.per_core[0]
        assert core.instructions == 2 * (5 + 2 + 1)
        # First access stalls 359, second hits L1.
        assert core.cycles == 2 * (5 + 2 * 3 + 3) + 359

    def test_reset_stats_keeps_cache_state(self):
        system = small_system()
        system.access(read(0, 0x1000))
        system.reset_stats()
        assert system.design.stats.total == 0
        stall = system.access(read(0, 0x1000))
        assert stall == 0  # still warm

    def test_run_workload_wrapper(self):
        design = SharedCache(
            SharedCacheParams(geometry=CacheGeometry(32 * KB, 4, 128))
        )
        events = [TimedAccess(read(0, i * 128), gap=1) for i in range(10)]
        stats = run_workload(design, events)
        assert stats.accesses.total == 10
        assert stats.total_instructions == 20


class TestEventChunk:
    def test_timed_view(self):
        chunk = EventChunk(
            np.array([0, 3]),
            np.array([0x1000, 0x2040]),
            np.array([False, True]),
            np.array([2, 0], dtype=np.int8),
            np.array([5, 0]),
            np.array([1, 4]),
        )
        events = list(chunk[1:].timed()) + list(chunk.timed())
        assert [(e.access, e.gap, e.colocated) for e in events] == [
            (Access(3, 0x2040, AccessType.WRITE, SharingClass.PRIVATE), 0, 4),
            (Access(0, 0x1000, AccessType.READ, SharingClass.READ_WRITE_SHARED), 5, 1),
            (Access(3, 0x2040, AccessType.WRITE, SharingClass.PRIVATE), 0, 4),
        ]
        assert len(chunk) == 2 and len(chunk[:0]) == 0

    @pytest.mark.parametrize(
        "index", [0, 1, 4 * BATCH - 1, 4 * BATCH, 4 * BATCH + 1, 4 * BATCH + 400, 10**6]
    )
    def test_split_chunks_at_any_index(self, index):
        chunks = list(make_workload("oltp").chunks(accesses_per_core=BATCH + 100))
        address = np.concatenate([chunk.address for chunk in chunks])
        head, tail = split_chunks(iter(chunks), index)
        before = [len(chunk) for chunk in head]
        after = list(tail)
        assert sum(before) == min(index, address.size)
        assert all(len(chunk) for chunk in after)
        assert np.array_equal(
            np.concatenate([c.address for c in after] or [address[:0]]),
            address[index:],
        )

    def test_tail_alone_skips_the_head(self):
        chunks = list(make_workload("oltp").chunks(accesses_per_core=BATCH + 100))
        _, tail = split_chunks(iter(chunks), 4 * BATCH + 7)
        rest = list(tail)
        assert [len(chunk) for chunk in rest] == [393]
        assert np.array_equal(rest[0].address, chunks[1].address[7:])


def across_bus_models(cases):
    """Cross ``(id, *values)`` cases with every bus model, as the last value.

    An atomic case keeps the bare id; the others append the bus model.
    """
    return [
        pytest.param(
            *values,
            bus_model,
            id=case_id if bus_model == "atomic" else f"{case_id}-{bus_model}",
        )
        for case_id, *values in cases
        for bus_model in BUS_MODELS
    ]


class TestColumnarLoop:
    """``run_chunks``'s plain loop against ``run``, the general loop."""

    @pytest.mark.parametrize(
        "design,blocking,bus_model",
        across_bus_models(
            (f"{design}-{mode}", design, blocking)
            for design in sorted(DESIGN_FACTORIES)
            for mode, blocking in (("store-buffer", False), ("blocking", True))
        ),
    )
    def test_plain_loop_matches_general_loop(self, design, blocking, bus_model):
        params = SystemParams(blocking_stores=blocking)
        for workload in (make_workload("apache", seed=3), make_mix("MIX1", seed=3)):
            warmup = 600 * workload.num_cores
            columnar = CmpSystem(build_design(design, bus_model=bus_model), params)
            columnar.run_chunks(workload.chunks(accesses_per_core=1200), warmup)
            general = CmpSystem(build_design(design, bus_model=bus_model), params)
            events = workload.events(accesses_per_core=1200)
            general.run(itertools.islice(events, warmup))
            general.reset_stats()
            general.run(events)
            assert columnar.stats().fingerprint() == general.stats().fingerprint()

    @pytest.mark.parametrize(
        "design,bus_model",
        across_bus_models((design, design) for design in ("private", "cmp-nurapid")),
    )
    def test_plain_loop_across_chunks(self, design, bus_model):
        """Core clocks carry from chunk to chunk, and the warm-up boundary
        falls inside the second chunk."""
        workload = make_workload("oltp", seed=3)
        length, warmup = BATCH + 300, (BATCH + 100) * workload.num_cores
        columnar = CmpSystem(build_design(design, bus_model=bus_model))
        columnar.run_chunks(workload.chunks(accesses_per_core=length), warmup)
        general = CmpSystem(build_design(design, bus_model=bus_model))
        events = workload.events(accesses_per_core=length)
        general.run(itertools.islice(events, warmup))
        general.reset_stats()
        general.run(events)
        assert columnar.stats().fingerprint() == general.stats().fingerprint()

    def test_deferred_event_is_a_named_error(self):
        """An armed race defers a snoop past its transaction.  The plain
        loop cannot drain it as ``step`` would, so it raises, right
        after the access and again before a later call runs any event."""
        system = CmpSystem(build_design("private", bus_model="eventq"))
        FaultInjector((FaultSpec("race-reorder", 0),)).maybe_inject(system, 0)
        assert system.design.bus.race_pending == "race-reorder"
        workload = make_workload("oltp", seed=3)
        with pytest.raises(DeferredEventError, match="pending after an L2 access"):
            system.run_chunks(workload.chunks(accesses_per_core=2000))
        assert system.design.queue.pending
        clocks = [core.cycles for core in system.cores]
        with pytest.raises(DeferredEventError):
            system.run_chunks(workload.chunks(accesses_per_core=10))
        assert [core.cycles for core in system.cores] == clocks
