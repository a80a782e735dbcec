"""Differential layer: the parallel sweep executor vs the serial path.

The executor claims bit-identity: fanning a sweep's cells across a
process pool must produce exactly the statistics the serial loop
produces, for every design, both interconnect backends, and the
multiprogrammed mixes — and a crashed worker must degrade to a serial
retry, never a dropped cell.  These tests pin each claim with
:meth:`SimulationStats.fingerprint` comparisons.
"""

import multiprocessing
import os
import pickle
import signal
import time
import zlib

import pytest

from repro.common.stats import SimulationStats
from repro.experiments import parallel, suite
from repro.experiments.parallel import Cell, SupervisorConfig, run_cells
from repro.experiments.runner import (
    DESIGN_FACTORIES,
    ExperimentConfig,
    StatsCache,
    build_design,
    read_sweep,
)
from repro.obs.tracer import Tracer

#: Small but non-trivial: long enough to exercise every miss class.
CONFIG = ExperimentConfig(warmup_per_core=1_500, measure_per_core=1_500)

ALL_DESIGNS = sorted(DESIGN_FACTORIES)


def run_both(cells, bus_model=None, jobs=4, config=CONFIG):
    """Run ``cells`` serially and with a pool; return the two caches."""
    serial = StatsCache()
    run_cells(cells, config, serial, jobs=1, bus_model=bus_model)
    pooled = StatsCache()
    run_cells(cells, config, pooled, jobs=jobs, bus_model=bus_model)
    return serial, pooled


def assert_identical(cells, serial, pooled, config=CONFIG):
    for cell in cells:
        left = serial.peek(cell.key(config)).fingerprint()
        right = pooled.peek(cell.key(config)).fingerprint()
        assert left == right, f"fingerprint diverged for {cell.label}"


class TestBitIdentity:
    def test_all_designs_atomic(self):
        cells = [Cell("oltp", design) for design in ALL_DESIGNS]
        serial, pooled = run_both(cells, bus_model="atomic")
        assert_identical(cells, serial, pooled)

    def test_all_designs_eventq(self):
        cells = [Cell("ocean", design) for design in ALL_DESIGNS]
        serial, pooled = run_both(cells, bus_model="eventq")
        assert_identical(cells, serial, pooled)

    def test_multiprogrammed_mix(self):
        cells = [
            Cell("MIX1", design, multiprogrammed=True)
            for design in ("uniform-shared", "private", "cmp-nurapid")
        ]
        serial, pooled = run_both(cells)
        assert_identical(cells, serial, pooled)

    def test_sweep_entrypoint_parallel(self):
        """A grid filled with jobs=4 reads back, through the figures'
        read_sweep, the same stats the serial fill computes."""
        workloads = ("oltp", "ocean")
        designs = ("uniform-shared", "private")
        serial, pooled = run_both(
            [Cell(workload, design) for workload in workloads
             for design in designs]
        )
        serial = read_sweep(workloads, designs, CONFIG, serial)
        pooled = read_sweep(workloads, designs, CONFIG, pooled)
        for workload in workloads:
            for design in designs:
                assert (
                    serial.stats[workload][design].fingerprint()
                    == pooled.stats[workload][design].fingerprint()
                )


@pytest.mark.parametrize("jobs", [1, 2])
def test_scaled_mix_is_refused_on_every_path(jobs):
    """A mix is 4-core by construction: a scaled one is refused before
    any cell runs, serially and pooled alike, and nothing is stored."""
    cache = StatsCache()
    with pytest.raises(ValueError, match="4-core"):
        run_cells([Cell("MIX1", "private", True, 16)], CONFIG, cache,
                  jobs=jobs)
    assert len(cache) == 0


class TestCrashRecovery:
    """A kill hook without a mark directory fires on every attempt, so
    the cell's workers all die and the parent runs it serially."""

    @pytest.fixture(autouse=True)
    def _kill_every_attempt(self, monkeypatch):
        monkeypatch.delenv(parallel.CHAOS_MARK_DIR_ENV, raising=False)

    def test_crashed_worker_cell_is_retried_not_dropped(self, monkeypatch):
        cells = [Cell("oltp", "private"), Cell("oltp", "uniform-shared")]
        monkeypatch.setenv(parallel.CHAOS_KILL_ENV, "oltp/private")
        cache = StatsCache()
        report = run_cells(cells, CONFIG, cache, jobs=2)
        # Every cell has a result despite the dead worker...
        for cell in cells:
            assert cell.key(CONFIG) in cache
        # ...and the degradation is reported, not silent.
        assert Cell("oltp", "private") in report.retried
        # The retried results match a clean serial run bit-for-bit.
        clean = StatsCache()
        monkeypatch.delenv(parallel.CHAOS_KILL_ENV)
        run_cells(cells, CONFIG, clean, jobs=1)
        assert_identical(cells, clean, cache)

    def test_report_summary_mentions_retries(self, monkeypatch):
        monkeypatch.setenv(parallel.CHAOS_KILL_ENV, "oltp/private")
        cache = StatsCache()
        report = run_cells([Cell("oltp", "private")], CONFIG, cache, jobs=2)
        assert "retried serially" in report.summary()
        assert "oltp/private" in report.summary()


class TestJournalSharding:
    def test_workers_journal_to_pid_shards_and_parent_merges(self, tmp_path):
        """The parent is the journal's only writer: a pooled sweep leaves
        one record per cell in the journal, and no other file."""
        path = str(tmp_path / "stats.cache")
        cells = [Cell("oltp", "private"), Cell("oltp", "ideal")]
        cache = StatsCache(path=path)
        run_cells(cells, CONFIG, cache, jobs=2)
        assert os.listdir(tmp_path) == ["stats.cache"]
        assert sorted(map(repr, _journal_keys(path))) == sorted(
            repr(cell.key(CONFIG)) for cell in cells
        )

    def test_append_record_is_readable_journal(self, tmp_path):
        path = str(tmp_path / "j.cache")
        key = ("oltp", "private", CONFIG, False)
        StatsCache.append_record(path, key, SimulationStats())
        loaded, dirty = StatsCache._load(path)
        assert key in loaded and not dirty

    def test_insert_skips_duplicates(self, tmp_path):
        path = str(tmp_path / "j.cache")
        cache = StatsCache(path=path)
        key = ("oltp", "private", CONFIG, False)
        assert cache.insert(key, SimulationStats())
        assert not cache.insert(key, SimulationStats())
        with open(path, "rb") as handle:
            records = 0
            while True:
                try:
                    pickle.load(handle)
                except EOFError:
                    break
                records += 1
        assert records == 1


#: Supervision knobs sized for tests: fast polls, quick backoff.
def fast_supervision(cell_timeout=0.0, heartbeat_grace=30.0):
    return SupervisorConfig(
        cell_timeout=cell_timeout,
        max_retries=2,
        backoff_base=0.01,
        backoff_cap=0.05,
        heartbeat_interval=0.1,
        heartbeat_grace=heartbeat_grace,
        poll_interval=0.01,
    )


class TestSupervision:
    CELLS = [Cell("oltp", "private"), Cell("oltp", "uniform-shared")]

    def _serial(self):
        clean = StatsCache()
        run_cells(self.CELLS, CONFIG, clean, jobs=1)
        return clean

    def test_hung_worker_is_killed_at_the_cell_timeout(
        self, monkeypatch, tmp_path
    ):
        monkeypatch.setenv(parallel.CHAOS_HANG_ENV, "oltp/private")
        monkeypatch.setenv(parallel.CHAOS_MARK_DIR_ENV, str(tmp_path))
        cache = StatsCache()
        report = run_cells(
            self.CELLS, CONFIG, cache, jobs=2,
            supervision=fast_supervision(cell_timeout=2.0),
        )
        assert report.counters.get("sweep.timeout", 0) >= 1
        assert Cell("oltp", "private") in report.recovered
        monkeypatch.delenv(parallel.CHAOS_HANG_ENV)
        assert_identical(self.CELLS, self._serial(), cache)

    def test_frozen_worker_outed_by_stale_heartbeat(
        self, monkeypatch, tmp_path
    ):
        monkeypatch.setenv(parallel.CHAOS_FREEZE_ENV, "oltp/private")
        monkeypatch.setenv(parallel.CHAOS_MARK_DIR_ENV, str(tmp_path))
        cache = StatsCache()
        report = run_cells(
            self.CELLS, CONFIG, cache, jobs=2,
            supervision=fast_supervision(heartbeat_grace=1.5),
        )
        # No cell timeout is configured: only the heartbeat can have
        # distinguished the frozen worker from a slow one.
        assert report.counters.get("sweep.worker_death", 0) >= 1
        monkeypatch.delenv(parallel.CHAOS_FREEZE_ENV)
        assert_identical(self.CELLS, self._serial(), cache)

    def test_killed_worker_retries_in_a_worker_not_the_parent(
        self, monkeypatch, tmp_path
    ):
        monkeypatch.setenv(parallel.CHAOS_KILL_ENV, "oltp/private")
        monkeypatch.setenv(parallel.CHAOS_MARK_DIR_ENV, str(tmp_path))
        cache = StatsCache()
        tracer = Tracer(capacity=64)
        report = run_cells(
            self.CELLS, CONFIG, cache, jobs=2,
            supervision=fast_supervision(), tracer=tracer,
        )
        # First attempt SIGKILLed, second succeeded in a worker: the
        # cell is recovered, not parent-rescued and not quarantined.
        assert Cell("oltp", "private") in report.recovered
        assert report.retried == [] and report.quarantined == []
        assert report.counters.get("sweep.retry", 0) >= 1
        # The pipe's EOF reported the death, not a stale heartbeat.
        deaths = [event.data for event in tracer.ring
                  if event.kind == "worker-death"]
        assert deaths == [
            {"cell": "oltp/private", "exitcode": -signal.SIGKILL, "attempt": 1}
        ]
        monkeypatch.delenv(parallel.CHAOS_KILL_ENV)
        assert_identical(self.CELLS, self._serial(), cache)

    def test_poison_cell_is_quarantined_with_traceback(
        self, monkeypatch, tmp_path
    ):
        path = str(tmp_path / "stats.cache")
        monkeypatch.setenv(parallel.CHAOS_POISON_ENV, "oltp/private")
        cache = StatsCache(path=path)
        report = run_cells(
            self.CELLS, CONFIG, cache, jobs=2,
            supervision=fast_supervision(),
        )
        assert [r.cell for r in report.quarantined] == [Cell("oltp", "private")]
        record = report.quarantined[0]
        assert record.attempts == 3  # initial + max_retries
        assert all(f.kind == "exception" for f in record.failures)
        assert "RuntimeError" in record.failures[-1].traceback
        # The healthy cell still ran and the poison cell is absent.
        assert Cell("oltp", "uniform-shared").key(CONFIG) in cache
        assert Cell("oltp", "private").key(CONFIG) not in cache
        # The quarantine journal persists next to the stats cache.
        journal = parallel.load_quarantine(parallel.quarantine_path(path))
        assert len(journal) == 1 and journal[0]["label"] == "oltp/private"
        assert report.counters.get("sweep.quarantine", 0) == 1
        assert "quarantined" in report.summary()

    def test_sweep_raises_quarantined_cell_error_after_journaling(
        self, monkeypatch, tmp_path
    ):
        path = str(tmp_path / "stats.cache")
        monkeypatch.setenv(parallel.CHAOS_POISON_ENV, "oltp/private")
        with pytest.raises(parallel.QuarantinedCellError) as excinfo:
            run_cells(
                self.CELLS, CONFIG, StatsCache(path=path), jobs=2,
                supervision=SupervisorConfig(max_retries=0),
            ).raise_quarantined()
        assert "oltp/private" in str(excinfo.value)
        assert excinfo.value.journal == parallel.quarantine_path(path)
        # The healthy cell was journaled before the raise: a rerun
        # (faults cleared) resumes instead of re-simulating.
        survivors = StatsCache(path=path)
        assert Cell("oltp", "uniform-shared").key(CONFIG) in survivors

    def test_pool_failure_falls_back_to_serial(self, monkeypatch):
        def refuse(self):
            raise OSError("fork refused")

        monkeypatch.setattr(multiprocessing.Process, "start", refuse)
        cache = StatsCache()
        report = run_cells(
            self.CELLS, CONFIG, cache, jobs=2,
            supervision=fast_supervision(),
        )
        assert report.fallback_reason is not None
        assert report.counters.get("sweep.fallback_serial", 0) >= 1
        for cell in self.CELLS:
            assert cell.key(CONFIG) in cache
        monkeypatch.undo()
        assert_identical(self.CELLS, self._serial(), cache)

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the patched cell reaches the worker only through fork",
    )
    def test_heartbeats_that_fill_the_pipe_do_not_block_the_result(
        self, monkeypatch
    ):
        # A beat every pass of a busy loop fills the pipe within the
        # second the cell takes: the parent must drain it while the
        # worker runs, or the result waits behind a blocked beat.
        def slow_cell(cell, config, bus_model, cache_path):
            time.sleep(1.0)
            return SimulationStats()

        monkeypatch.setattr(parallel, "_simulate_cell", slow_cell)
        cell = Cell("oltp", "private")
        report = run_cells(
            [cell], CONFIG, StatsCache(), jobs=2,
            supervision=SupervisorConfig(
                max_retries=0, heartbeat_interval=0.0, heartbeat_grace=3.0,
            ),
        )
        assert report.ran == [cell]
        assert report.retried == [] and report.recovered == []
        assert not report.counters.get("sweep.retry")
        assert not report.counters.get("sweep.worker_death")

    def test_resumable_sweep_skips_journaled_cells(self, tmp_path):
        path = str(tmp_path / "stats.cache")
        first = StatsCache(path=path)
        run_cells(self.CELLS, CONFIG, first, jobs=2)
        resumed = StatsCache(path=path)
        report = run_cells(self.CELLS, CONFIG, resumed, jobs=2)
        assert report.ran == [] and sorted(
            c.label for c in report.cached
        ) == sorted(c.label for c in self.CELLS)


def _journal_keys(path):
    """Raw (possibly duplicated) keys of a journal, in record order."""
    keys = []
    with open(path, "rb") as handle:
        while True:
            try:
                record = pickle.load(handle)
            except EOFError:
                break
            assert record[0] == "run2"
            key, _ = pickle.loads(record[2])
            keys.append(key)
    return keys


class TestJournalIntegrity:
    def _write(self, path, count=3):
        keys = [("w", f"d{i}", CONFIG, False) for i in range(count)]
        for key in keys:
            StatsCache.append_record(path, key, SimulationStats())
        return keys

    def test_truncated_journal_salvages_valid_prefix(self, tmp_path):
        path = str(tmp_path / "j.cache")
        keys = self._write(path)
        with open(path, "r+b") as handle:
            handle.truncate(os.path.getsize(path) - 17)
        loaded, dirty = StatsCache._load(path)
        assert dirty
        assert list(loaded) == keys[:2]

    def test_bitflipped_record_is_dropped_by_crc(self, tmp_path):
        path = str(tmp_path / "j.cache")
        keys = self._write(path)
        size = os.path.getsize(path)
        with open(path, "r+b") as handle:
            data = bytearray(handle.read())
            data[size // 2] ^= 0xFF
            handle.seek(0)
            handle.write(data)
        loaded, dirty = StatsCache._load(path)
        assert dirty
        # At most one record lost, and never a corrupt stats object.
        assert len(loaded) >= len(keys) - 1
        for stats in loaded.values():
            stats.fingerprint()

    def test_crc_matches_zlib(self, tmp_path):
        path = str(tmp_path / "j.cache")
        key = ("oltp", "private", CONFIG, False)
        StatsCache.append_record(path, key, SimulationStats())
        with open(path, "rb") as handle:
            tag, crc, blob = pickle.load(handle)
        assert tag == "run2" and crc == zlib.crc32(blob)


def _append_records(path, writer, count, barrier):
    barrier.wait()
    for i in range(count):
        StatsCache.append_record(
            path, ("w", f"writer{writer}-{i}", CONFIG, False), SimulationStats()
        )


class TestConcurrentAppend:
    def test_two_appenders_share_one_journal(self, tmp_path):
        """Two sweeps may share one cache path: every record two
        processes append at once loads back whole."""
        path = str(tmp_path / "stats.cache")
        count = 200
        barrier = multiprocessing.Barrier(2)
        writers = [
            multiprocessing.Process(
                target=_append_records, args=(path, writer, count, barrier)
            )
            for writer in range(2)
        ]
        for proc in writers:
            proc.start()
        for proc in writers:
            proc.join(timeout=60)
            assert proc.exitcode == 0
        loaded, dirty = StatsCache._load(path)
        assert not dirty
        assert set(loaded) == {
            ("w", f"writer{writer}-{i}", CONFIG, False)
            for writer in range(2)
            for i in range(count)
        }


    @staticmethod
    def _dirty_journal(path, key):
        """A journal whose duplicate record makes opening it compact it."""
        StatsCache.append_record(path, key, SimulationStats())
        StatsCache.append_record(path, key, SimulationStats())

    def test_append_between_load_and_compaction_is_kept(
        self, tmp_path, monkeypatch
    ):
        """A record another sweep appends after a dirty journal is read
        but before it is compacted survives the compaction."""
        path = str(tmp_path / "stats.cache")
        first, late = ("w", "a", CONFIG, False), ("w", "b", CONFIG, False)
        self._dirty_journal(path, first)
        load = StatsCache._load
        appended = []

        def load_then_append(journal):
            loaded = load(journal)
            if not appended:
                appended.append(late)
                StatsCache.append_record(journal, late, SimulationStats())
            return loaded

        monkeypatch.setattr(StatsCache, "_load", staticmethod(load_then_append))
        cache = StatsCache(path)
        monkeypatch.undo()
        assert appended and late in cache
        loaded, dirty = StatsCache._load(path)
        assert set(loaded) == {first, late} and not dirty

    def test_append_waiting_on_a_compacted_journal_reaches_the_new_file(
        self, tmp_path, monkeypatch
    ):
        """An appender that opened the journal before a compaction
        replaced it appends to the new file, not the unlinked old one."""
        fcntl = pytest.importorskip("fcntl")
        path = str(tmp_path / "stats.cache")
        first, late = ("w", "a", CONFIG, False), ("w", "b", CONFIG, False)
        self._dirty_journal(path, first)
        flock = fcntl.flock
        compacted = []

        def compact_then_flock(fd, operation):
            if not compacted:
                compacted.append(os.fstat(fd).st_ino)
                StatsCache(path)  # replaces the file ``fd`` is open on
            flock(fd, operation)

        monkeypatch.setattr(fcntl, "flock", compact_then_flock)
        StatsCache.append_record(path, late, SimulationStats())
        monkeypatch.undo()
        assert compacted and compacted[0] != os.stat(path).st_ino
        loaded, dirty = StatsCache._load(path)
        assert set(loaded) == {first, late} and not dirty
        assert os.listdir(tmp_path) == ["stats.cache"]


class TestCellRegistry:
    """The experiment registry's cells (:mod:`repro.experiments.suite`)."""

    def test_experiment_cells_match_figure_grids(self):
        from repro.experiments import fig10_performance as fig10

        assert suite.EXPERIMENTS["fig10"].cells == tuple(
            Cell(workload, design)
            for workload in fig10.WORKLOADS
            for design in fig10.DESIGNS
        )

    def test_mp_figures_flag_multiprogrammed(self):
        for name, experiment in suite.EXPERIMENTS.items():
            flags = {cell.multiprogrammed for cell in experiment.cells}
            if name in ("fig11", "fig12"):
                assert flags == {True}, name
            else:
                assert True not in flags, name

    def test_suite_cells_unique_and_cover_figures(self):
        cells = suite.cells(suite.select("all"))
        assert len(cells) == len(set(cells))
        for name in suite.GROUPS["all"]:
            for cell in suite.EXPERIMENTS[name].cells:
                assert cell in cells

    def test_unknown_experiment_has_no_cells(self):
        """Table 1 simulates nothing; an unknown name has no entry."""
        assert suite.EXPERIMENTS["table1"].cells == ()
        with pytest.raises(KeyError):
            suite.select("fig99")
