"""Tests for the extension features: energy model, trace files,
C-block migration, and the bandwidth report."""

import io

import pytest

from repro.common.params import KB, CacheGeometry, NurapidParams
from repro.common.types import Access, AccessType
from repro.coherence.states import CoherenceState
from repro.core.nurapid import NurapidCache
from repro.cpu.system import TimedAccess
from repro.latency import energy
from repro.workloads import tracefile

C = CoherenceState.COMMUNICATION


def read(core, address):
    return Access(core, address, AccessType.READ)


def write(core, address):
    return Access(core, address, AccessType.WRITE)


class TestEnergyModel:
    def test_sequential_data_access_cheaper_than_parallel(self):
        geometry = CacheGeometry(2 << 20, 8, 128)
        sequential = energy.data_access_energy(geometry, sequential=True)
        parallel = energy.data_access_energy(geometry, sequential=False)
        assert parallel == pytest.approx(8 * sequential)

    def test_pointer_return_is_64x_cheaper_than_block_transfer(self):
        assert energy.pointer_vs_block_transfer_ratio() == pytest.approx(64.0)

    def test_offchip_dominates(self):
        model = energy.shared_cache_model()
        assert model.offchip_miss_energy() > 10 * model.hit_energy()

    def test_private_coherence_miss_beats_nurapid_pointer(self):
        """The energy argument for CR: a pointer return moves 16 bits
        where a cache-to-cache transfer moves 1024."""
        private = energy.private_cache_model()
        nurapid = energy.nurapid_model()
        assert nurapid.pointer_transfer_pj < 0.1 * private.onchip_transfer_pj

    def test_estimate_requires_normalized_mix(self):
        model = energy.shared_cache_model()
        with pytest.raises(ValueError):
            energy.estimate_energy_per_access(model, 0.5, 0.1, 0.1)

    def test_estimate_monotonic_in_offchip_misses(self):
        model = energy.shared_cache_model()
        low = energy.estimate_energy_per_access(model, 0.95, 0.0, 0.05)
        high = energy.estimate_energy_per_access(model, 0.85, 0.0, 0.15)
        assert high > low

    def test_wire_energy_linear(self):
        assert energy.wire_energy(100, 4.0) == pytest.approx(
            2 * energy.wire_energy(100, 2.0)
        )


class TestTraceFile:
    def sample_events(self):
        return [
            TimedAccess(read(0, 0x1000), gap=3, colocated=2),
            TimedAccess(write(2, 0x2040), gap=0, colocated=0),
        ]

    def test_roundtrip(self):
        text = tracefile.trace_to_string(self.sample_events())
        events = list(tracefile.read_trace(io.StringIO(text)))
        assert len(events) == 2
        assert events[0].access.core == 0
        assert events[0].access.address == 0x1000
        assert events[0].gap == 3
        assert events[0].colocated == 2
        assert events[1].access.is_write

    def test_roundtrip_via_file(self, tmp_path):
        path = tmp_path / "trace.txt"
        count = tracefile.write_trace(self.sample_events(), path)
        assert count == 2
        events = list(tracefile.read_trace(path))
        assert [e.access.address for e in events] == [0x1000, 0x2040]

    def test_comments_and_blanks_ignored(self):
        text = "# header\n\n0 40 R\n"
        events = list(tracefile.read_trace(io.StringIO(text)))
        assert len(events) == 1

    def test_defaults_for_short_lines(self):
        events = list(tracefile.read_trace(io.StringIO("1 ff W\n")))
        assert events[0].gap == 0
        assert events[0].colocated == 0

    @pytest.mark.parametrize(
        "bad",
        ["0 40", "0 40 X", "x 40 R", "0 zz R", "-1 40 R", "0 40 R -2", "0 40 R x"],
    )
    def test_malformed_lines_rejected(self, bad):
        with pytest.raises(tracefile.TraceFormatError):
            list(tracefile.read_trace(io.StringIO(bad + "\n")))

    def test_core_outside_machine_rejected(self):
        trace = io.StringIO("3 40 R\n4 40 R\n")
        with pytest.raises(tracefile.TraceFormatError, match="line 2: core 4"):
            list(tracefile.read_trace(trace, num_cores=4))

    def test_trace_drives_a_design(self):
        """A parsed trace is directly consumable by the system."""
        from repro.cpu.system import run_workload
        from repro.caches.shared import SharedCache
        from repro.common.params import SharedCacheParams

        design = SharedCache(
            SharedCacheParams(geometry=CacheGeometry(32 * KB, 4, 128))
        )
        text = tracefile.trace_to_string(self.sample_events())
        stats = run_workload(design, tracefile.read_trace(io.StringIO(text)))
        assert stats.accesses.total == 2


class TestCMigration:
    X = 0x30000

    def make(self, threshold) -> NurapidCache:
        return NurapidCache(
            NurapidParams(
                dgroup_capacity_bytes=16 * KB,
                tag_associativity=4,
                c_migration_threshold=threshold,
            )
        )

    def _form_c_group(self, cache):
        cache.access(write(0, self.X))
        cache.access(read(1, self.X))  # copy relocates next to core 1
        cache.access(read(2, self.X))  # ...then next to core 2

    def test_disabled_by_default_no_exit_from_c(self):
        cache = self.make(threshold=0)
        self._form_c_group(cache)
        entry = cache.tags[1].lookup(self.X, touch=False)
        location = entry.fwd
        for _ in range(10):
            cache.access(read(1, self.X))  # remote reads forever
        assert cache.tags[1].lookup(self.X, touch=False).fwd == location
        assert cache.counters.c_migrations == 0

    def test_migrates_after_threshold_remote_reads(self):
        cache = self.make(threshold=3)
        self._form_c_group(cache)  # copy now in core 2's d-group
        for _ in range(3):
            cache.access(read(1, self.X))
        entry = cache.tags[1].lookup(self.X, touch=False)
        assert entry.fwd.dgroup == cache.closest(1)
        assert cache.counters.c_migrations == 1
        cache.check_invariants()

    def test_sharers_repointed_and_stay_in_c(self):
        cache = self.make(threshold=2)
        self._form_c_group(cache)
        for _ in range(2):
            cache.access(read(1, self.X))
        pointers = set()
        for core in (0, 1, 2):
            entry = cache.tags[core].lookup(self.X, touch=False)
            assert entry.state is C
            pointers.add(entry.fwd)
        assert len(pointers) == 1
        assert len(list(cache.data.frames_holding(self.X))) == 1

    def test_local_reads_reset_the_counter(self):
        cache = self.make(threshold=3)
        self._form_c_group(cache)
        cache.access(read(1, self.X))
        cache.access(read(1, self.X))
        cache.access(read(2, self.X))  # core 2 reads locally: resets...
        entry1 = cache.tags[1].lookup(self.X, touch=False)
        # ...only core 2's counter; core 1's run continues.
        cache.access(read(1, self.X))
        assert cache.counters.c_migrations == 1 or entry1.remote_reads <= 3


class TestBandwidthReport:
    def test_movements_are_rare_for_fitting_working_sets(self):
        """Section 3.3.2's claim: demotion traffic does not need extra
        ports — with a working set that fits, block movements vanish."""
        cache = NurapidCache(
            NurapidParams(dgroup_capacity_bytes=16 * KB, tag_associativity=4)
        )
        for _ in range(10):
            for i in range(100):  # fits the 128-frame closest d-group
                cache.access(read(0, 0x100000 + i * 128))
        report = cache.bandwidth_report()
        assert report["total_data_accesses"] > 0
        assert report["movement_fraction"] < 0.01
        assert set(report["accesses_per_dgroup"]) == {0, 1, 2, 3}

    def test_report_counts_movements_under_pressure(self):
        cache = NurapidCache(
            NurapidParams(dgroup_capacity_bytes=16 * KB, tag_associativity=4)
        )
        frames = cache.params.frames_per_dgroup
        for i in range(2 * frames):
            cache.access(read(0, 0x100000 + i * 128))
        report = cache.bandwidth_report()
        assert report["block_movements"] > 0
        assert report["block_movements"] == (
            cache.counters.promotions
            + cache.counters.demotions
            + cache.counters.relocations
            + cache.counters.c_migrations
        )
