"""Tests for the observability stack: tracer, metrics, Perfetto, profiler.

Covers the acceptance contracts of the observability subsystem:

* the ring buffer overflows by dropping the oldest event (and counts
  drops) while a JSONL sink receives everything;
* JSONL round-trips through the schema bit-identically;
* the Perfetto export validates against the Chrome trace-event schema;
* cumulative interval samples reproduce the run's final
  ``SimulationStats`` (miss counts, miss rate, IPC) and interval
  deltas sum back to the final totals;
* a disabled tracer never constructs a record on the hot path (the
  ``NullTracer`` emit methods are unreachable in an untraced run);
* statistics merge pools counters, not ratios;
* the stats cache journal appends, tolerates truncation, drops
  records in retired formats, and compacts duplicates.
"""

import io
import json
import pickle

import pytest

from repro.common.stats import (
    AccessStats,
    BusStats,
    CoreTiming,
    DgroupStats,
    ReuseStats,
    SimulationStats,
)
from repro.common.types import MissClass
from repro.core.nurapid import NurapidCache
from repro.common.params import KB, NurapidParams
from repro.cpu.system import CmpSystem
from repro.obs import events as ev
from repro.obs.events import TraceEvent, read_jsonl, validate_jsonl, validate_record
from repro.obs.metrics import Histogram, MetricsCollector, MetricsRegistry
from repro.obs.perfetto import (
    export_chrome_trace,
    export_jsonl,
    validate_chrome_trace,
)
from repro.obs.profiler import Profiler
from repro.obs.tracer import NO_TRACE, NullTracer, Tracer
from repro.workloads.multithreaded import make_workload


def small_system(tracer=None, metrics=None):
    design = NurapidCache(
        NurapidParams(dgroup_capacity_bytes=4 * KB, tag_associativity=2)
    )
    return CmpSystem(design, tracer=tracer, metrics=metrics)


def run_oltp(system, accesses_per_core=1500):
    workload = make_workload("oltp")
    system.run(workload.events(accesses_per_core=accesses_per_core))


# ---------------------------------------------------------------------------
# Tracer: ring buffer + sink


def test_ring_overflow_drops_oldest_and_counts():
    tracer = Tracer(capacity=4)
    for index in range(10):
        tracer.emit(ev.BUS, cycle=index, op="BusRd")
    assert tracer.emitted == 10
    assert tracer.dropped == 6
    cycles = [event.cycle for event in tracer.events()]
    assert cycles == [6, 7, 8, 9]  # oldest dropped, newest kept


def test_sink_receives_everything_despite_ring_overflow():
    sink = io.StringIO()
    tracer = Tracer(capacity=2, sink=sink)
    for index in range(8):
        tracer.emit(ev.BUS, cycle=index, op="BusRd")
    lines = [line for line in sink.getvalue().splitlines() if line]
    assert len(lines) == 8
    assert len(tracer.events()) == 2


def test_tracer_events_filter_and_tail():
    tracer = Tracer(capacity=16)
    tracer.emit(ev.BUS, cycle=1, op="BusRd")
    tracer.emit(ev.ACCESS, cycle=2, core=0)
    tracer.emit(ev.BUS, cycle=3, op="BusRdX")
    assert [e.cycle for e in tracer.events(ev.BUS)] == [1, 3]
    assert [e.cycle for e in tracer.tail(2)] == [2, 3]
    assert tracer.counts() == {ev.BUS: 2, ev.ACCESS: 1}


def test_jsonl_round_trip(tmp_path):
    path = str(tmp_path / "trace.jsonl")
    with Tracer(capacity=8, sink=path) as tracer:
        tracer.emit(
            ev.ACCESS, cycle=7, core=2, address=0x1F40, dgroup=1,
            miss_class="hit", latency=12,
        )
        tracer.emit(ev.TRANSITION, cycle=9, core=0, address=0x80,
                    **{"from": "E", "to": "S", "trigger": "BusRd"})
    restored = list(read_jsonl(path))
    assert restored == tracer.events()
    count, errors = validate_jsonl(path)
    assert (count, errors) == (2, [])


def test_validate_record_rejects_bad_shapes():
    assert validate_record([]) != []
    assert validate_record({"kind": "nope"}) != []
    assert validate_record({"kind": "bus", "cycle": -1}) != []
    assert validate_record({"kind": "bus", "core": "zero"}) != []
    assert validate_record({"kind": "bus", "extra": 1}) != []
    assert validate_record({"kind": "bus", "cycle": 3, "data": {"op": "BusRd"}}) == []


def test_traced_run_emits_model_events():
    tracer = Tracer(capacity=200_000)
    system = small_system(tracer=tracer)
    run_oltp(system)
    counts = tracer.counts()
    # The small-geometry NuRAPID run must exercise the whole protocol
    # surface: steps, access outcomes, bus traffic, and CMP-NuRAPID's
    # replication/transition machinery.
    for kind in (ev.STEP, ev.ACCESS, ev.BUS, ev.TRANSITION):
        assert counts.get(kind, 0) > 0, (kind, counts)
    steps = tracer.events(ev.STEP)
    accesses = tracer.events(ev.ACCESS)
    assert len(steps) >= len(accesses)  # only L1 misses reach the L2
    assert len(accesses) == system.design.stats.total


def test_disabled_tracer_hot_path_never_emits(monkeypatch):
    """Untraced runs must not reach a NullTracer emit method at all."""

    def boom(*args, **kwargs):  # pragma: no cover - failure path
        raise AssertionError("hot path called emit() on a disabled tracer")

    monkeypatch.setattr(NullTracer, "emit", boom)
    monkeypatch.setattr(NullTracer, "emit_event", boom)
    system = small_system()
    assert system.tracer is NO_TRACE
    run_oltp(system, accesses_per_core=400)
    assert system.design.stats.total > 0


# ---------------------------------------------------------------------------
# Perfetto export


def test_perfetto_export_validates_and_maps_tracks(tmp_path):
    tracer = Tracer(capacity=200_000)
    system = small_system(tracer=tracer)
    run_oltp(system)
    payload = export_chrome_trace(tracer.events())
    assert validate_chrome_trace(payload) == []
    events = payload["traceEvents"]
    phases = {entry["ph"] for entry in events}
    assert {"M", "X", "i"} <= phases
    # Access slices live on core threads; every step record is skipped.
    slices = [entry for entry in events if entry["ph"] == "X"]
    assert slices and all(entry["pid"] == 1 for entry in slices)
    assert payload["otherData"]["skipped_step_records"] == len(
        tracer.events(ev.STEP)
    )
    # Round-trip through a file stays valid JSON that revalidates.
    out = str(tmp_path / "trace.json")
    export_chrome_trace(tracer.events(), out)
    with open(out, "r", encoding="utf-8") as handle:
        assert validate_chrome_trace(json.load(handle)) == []


def test_perfetto_export_from_jsonl(tmp_path):
    jsonl = str(tmp_path / "trace.jsonl")
    with Tracer(capacity=64, sink=jsonl) as tracer:
        tracer.emit(ev.ACCESS, cycle=5, core=1, latency=40, miss_class="capacity")
        tracer.emit(ev.PROMOTION, cycle=6, core=1, dgroup=0, from_dgroup=2)
        tracer.emit(ev.FAULT, cycle=7, fault="drop-bus", applied=True)
    payload = export_jsonl(jsonl, str(tmp_path / "out.json"))
    assert validate_chrome_trace(payload) == []
    pids = {entry["pid"] for entry in payload["traceEvents"] if entry["ph"] != "M"}
    assert pids == {1, 2, 3}  # cores, d-groups, system tracks


def test_validate_chrome_trace_catches_problems():
    assert validate_chrome_trace([]) != []
    assert validate_chrome_trace({"traceEvents": [{"ph": "Z", "pid": 1}]}) != []
    assert validate_chrome_trace(
        {"traceEvents": [{"ph": "X", "pid": 1, "tid": 0, "name": "x", "ts": -1.0}]}
    ) != []


# ---------------------------------------------------------------------------
# Metrics


def test_histogram_buckets_and_mean():
    histogram = Histogram(bounds=(10, 20))
    for value in (5, 15, 25, 100):
        histogram.record(value)
    snap = histogram.snapshot()
    assert snap["buckets"] == {"<=10": 1, "<=20": 1, ">20": 2}
    assert snap["count"] == 4
    assert snap["mean"] == pytest.approx(36.25)
    with pytest.raises(ValueError):
        Histogram(bounds=(20, 10))


def test_histogram_percentiles_from_buckets():
    histogram = Histogram(bounds=(10, 20, 50))
    for value in (5, 5, 15, 25, 40, 45):
        histogram.record(value)
    # 6 samples: 2 in <=10, 1 in <=20, 3 in <=50.  Interpolated within
    # the bucket that crosses the target rank (Prometheus-style).
    assert histogram.percentile(0.0) == 0.0
    assert histogram.percentile(0.5) == pytest.approx(20.0)
    assert histogram.percentile(1.0) == pytest.approx(50.0)
    snap = histogram.snapshot()
    assert snap["p50"] == histogram.percentile(0.50)
    assert snap["p95"] == histogram.percentile(0.95)
    assert snap["p99"] == histogram.percentile(0.99)
    with pytest.raises(ValueError):
        histogram.percentile(1.5)


def test_histogram_percentile_overflow_and_empty():
    empty = Histogram(bounds=(10,))
    assert empty.percentile(0.99) == 0.0
    overflow = Histogram(bounds=(10,))
    overflow.record(500)  # everything past the last edge
    # The overflow bucket has no finite upper edge; report the last one.
    assert overflow.percentile(0.99) == 10.0


def test_registry_rejects_kind_mismatch():
    registry = MetricsRegistry()
    registry.counter("x")
    with pytest.raises(TypeError):
        registry.gauge("x")


def test_metrics_final_sample_reproduces_simulation_stats(tmp_path):
    metrics = MetricsCollector(sample_every=500)
    system = small_system(metrics=metrics)
    run_oltp(system)
    series = metrics.finish()
    stats = system.stats()
    assert len(series) >= 2

    final = series.samples[-1]
    # Miss-class counts: the sampled model state equals the aggregate.
    expected = {mc.value: stats.accesses.counts[mc]
                for mc in MissClass if stats.accesses.counts[mc]}
    assert final["accesses"] == expected
    assert final["miss_rate"] == pytest.approx(stats.accesses.miss_rate)
    # The collector's own counters agree with the design's statistics.
    l2_counted = sum(
        value for name, value in final["metrics"].items()
        if name.startswith("l2.") and isinstance(value, int)
    )
    assert l2_counted == stats.accesses.total
    assert final["metrics"]["l2.latency"]["count"] == stats.accesses.total
    # Per-core IPC matches CoreTiming.
    for sampled, timing in zip(final["per_core"], stats.per_core):
        assert sampled["instructions"] == timing.instructions
        assert sampled["cycles"] == timing.cycles
        assert sampled["ipc"] == pytest.approx(timing.ipc)
    assert final["bus"]["total"] == stats.bus.total
    assert "dgroups" in final and "c_blocks" in final

    # Interval deltas of a cumulative column sum back to the final value.
    flat = series.flat_samples()
    key = "metrics.l2.latency.count"
    assert sum(series.deltas(key)) == pytest.approx(flat[-1][key])

    # Exports parse back.
    json_path = str(tmp_path / "metrics.json")
    series.to_json(json_path)
    with open(json_path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    assert payload["sample_every"] == 500
    assert len(payload["samples"]) == len(series)
    csv_path = str(tmp_path / "metrics.csv")
    series.to_csv(csv_path)
    with open(csv_path, "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    assert len(lines) == len(series) + 1  # header + one row per sample


def test_metrics_reset_at_warmup_boundary_drops_warmup_samples():
    import itertools

    metrics = MetricsCollector(sample_every=300)
    system = small_system(metrics=metrics)
    workload = make_workload("oltp")
    events = workload.events(accesses_per_core=1200)
    warmup = 600 * workload.num_cores
    system.run(itertools.islice(events, warmup))
    system.reset_stats()
    assert len(metrics.series) == 0  # warm-up samples dropped
    system.run(events)
    series = metrics.finish()
    stats = system.stats()
    final = series.samples[-1]
    assert sum(final["accesses"].values()) == stats.accesses.total


# ---------------------------------------------------------------------------
# Profiler


def test_profiler_sections_nest_without_double_counting():
    profiler = Profiler()
    with profiler.section("outer"):
        with profiler.section("outer"):
            pass
    section = profiler.sections["outer"]
    assert section.calls == 2
    assert section._depth == 0
    assert section.seconds >= 0.0


def test_profiler_instruments_hot_paths():
    profiler = Profiler()
    system = small_system()
    profiler.instrument(system)
    run_oltp(system, accesses_per_core=500)
    snap = profiler.snapshot()
    assert snap["l2-lookup"]["calls"] == system.design.stats.total
    assert "distance-replacement" in snap
    report = profiler.report()
    assert "l2-lookup" in report and "wall clock" in report


# ---------------------------------------------------------------------------
# Statistics merging


def test_simulation_stats_merge_pools_counters():
    first = SimulationStats()
    first.accesses.counts[MissClass.HIT] = 90
    first.accesses.counts[MissClass.CAPACITY] = 10
    first.reuse.ros_replaced["0"] = 3
    first.dgroups.closest_hits = 5
    first.bus.transactions["BusRd"] = 7
    first.per_core = [CoreTiming(100, 200)]

    second = SimulationStats()
    second.accesses.counts[MissClass.HIT] = 10
    second.accesses.counts[MissClass.RWS] = 90
    second.reuse.ros_replaced["0"] = 1
    second.reuse.rws_invalidated[">5"] = 2
    second.dgroups.farther_hits = 4
    second.bus.transactions["BusRd"] = 3
    second.bus.transactions["BusRepl"] = 1
    second.per_core = [CoreTiming(50, 100), CoreTiming(30, 60)]

    first.merge(second)
    assert first.accesses.counts[MissClass.HIT] == 100
    assert first.accesses.total == 200
    # Pooled, access-weighted: (10 + 90) / 200 — not the ratio mean 0.5.
    assert first.accesses.miss_rate == pytest.approx(0.5)
    assert first.reuse.ros_replaced["0"] == 4
    assert first.reuse.rws_invalidated[">5"] == 2
    assert first.dgroups.closest_hits == 5
    assert first.dgroups.farther_hits == 4
    assert first.bus.total == 11
    # Shorter per-core list padded; position-wise sums.
    assert [(c.instructions, c.cycles) for c in first.per_core] == [
        (150, 300), (30, 60)
    ]


def test_component_merges():
    a = AccessStats()
    a.counts[MissClass.HIT] = 1
    b = AccessStats()
    b.counts[MissClass.HIT] = 2
    a.merge(b)
    assert a.counts[MissClass.HIT] == 3

    r = ReuseStats()
    r2 = ReuseStats()
    r2.record_ros_replacement(3)
    r.merge(r2)
    assert r.ros_replaced["2-5"] == 1

    d = DgroupStats(closest_hits=1, farther_hits=2, misses=3)
    d.merge(DgroupStats(closest_hits=10, farther_hits=20, misses=30))
    assert (d.closest_hits, d.farther_hits, d.misses) == (11, 22, 33)

    bus = BusStats()
    other = BusStats()
    other.record("WrThru")
    bus.merge(other)
    assert bus.transactions["WrThru"] == 1


def test_sweep_result_merged_pools_across_workloads():
    from repro.experiments.runner import SweepResult

    result = SweepResult()
    for workload, hits, misses in (("a", 90, 10), ("b", 10, 90)):
        stats = SimulationStats()
        stats.accesses.counts[MissClass.HIT] = hits
        stats.accesses.counts[MissClass.CAPACITY] = misses
        stats.per_core = [CoreTiming(hits, 100)]
        result.stats[workload] = {"design": stats}
    pooled = result.merged("design")
    assert pooled.accesses.total == 200
    assert pooled.accesses.miss_rate == pytest.approx(0.5)
    assert pooled.per_core[0].instructions == 100
    only_a = result.merged("design", workloads=["a"])
    assert only_a.accesses.miss_rate == pytest.approx(0.1)


# ---------------------------------------------------------------------------
# StatsCache append-only journal


def _stats_with(hits):
    stats = SimulationStats()
    stats.accesses.counts[MissClass.HIT] = hits
    return stats


def _journal_records(path):
    records = []
    with open(path, "rb") as handle:
        while True:
            try:
                records.append(pickle.load(handle))
            except EOFError:
                break
    return records


def test_stats_cache_appends_one_record_per_run(tmp_path):
    from repro.experiments.runner import ExperimentConfig, StatsCache

    path = str(tmp_path / "cache.pkl")
    cache = StatsCache(path)
    config = ExperimentConfig.quick()
    calls = []

    def fake_factory():
        calls.append(1)
        raise AssertionError("factory must not run for a warm cache")

    cache._cache[("oltp", "d", config, False)] = _stats_with(1)
    cache._append(("oltp", "d", config, False), _stats_with(1))
    cache._append(("apache", "d", config, False), _stats_with(2))
    records = _journal_records(path)
    assert len(records) == 2
    assert all(record[0] == "run2" for record in records)

    # A fresh cache loads both entries and serves them without simulating.
    warm = StatsCache(path)
    assert len(warm) == 2
    got = warm.get("oltp", "d", fake_factory, config, False)
    assert got.accesses.counts[MissClass.HIT] == 1
    assert not calls


def test_stats_cache_tolerates_truncated_tail(tmp_path):
    from repro.experiments.runner import ExperimentConfig, StatsCache

    path = str(tmp_path / "cache.pkl")
    config = ExperimentConfig.quick()
    cache = StatsCache(path)
    cache._append(("oltp", "d", config, False), _stats_with(5))
    cache._append(("apache", "d", config, False), _stats_with(6))
    with open(path, "ab") as handle:
        handle.write(b"\x80\x05partial")  # a run killed mid-append

    reloaded = StatsCache(path)
    assert len(reloaded) == 2
    # Compaction rewrote a clean journal: it reloads with no junk tail.
    records = _journal_records(path)
    assert len(records) == 2


def test_stats_cache_migrates_legacy_whole_dict_pickle(tmp_path):
    """Retired formats (a whole-dict pickle, an unframed ``("run", key,
    stats)`` record) load nothing; compaction leaves only the
    CRC-framed record."""
    from repro.experiments.runner import ExperimentConfig, StatsCache

    path = str(tmp_path / "cache.pkl")
    config = ExperimentConfig.quick()
    framed = ("specjbb", "d", config, False)
    with open(path, "wb") as handle:
        pickle.dump({("oltp", "d", config, False): _stats_with(9)}, handle)
        pickle.dump(("run", ("apache", "d", config, False), _stats_with(8)),
                    handle)
    StatsCache.append_record(path, framed, _stats_with(7))

    cache = StatsCache(path)
    assert list(cache._cache) == [framed]
    records = _journal_records(path)
    assert len(records) == 1 and records[0][0] == "run2"


def test_stats_cache_duplicate_keys_last_wins_and_compacts(tmp_path):
    from repro.experiments.runner import ExperimentConfig, StatsCache

    path = str(tmp_path / "cache.pkl")
    config = ExperimentConfig.quick()
    scratch = StatsCache(path)
    key = ("oltp", "d", config, False)
    scratch._append(key, _stats_with(1))
    scratch._append(key, _stats_with(2))
    assert len(_journal_records(path)) == 2

    reloaded = StatsCache(path)
    assert len(reloaded) == 1
    assert reloaded._cache[key].accesses.counts[MissClass.HIT] == 2
    assert len(_journal_records(path)) == 1  # compacted


def test_stats_cache_unreadable_file_starts_empty(tmp_path):
    from repro.experiments.runner import StatsCache

    path = tmp_path / "cache.pkl"
    path.write_bytes(b"not a pickle at all")
    cache = StatsCache(str(path))
    assert len(cache) == 0


# ---------------------------------------------------------------------------
# Harness integration: one record type across tracer, faults, and dumps


def step_key(event):
    """A workload event as comparable values."""
    access = event.access
    return (
        access.core, access.address, access.type, access.sharing,
        event.gap, event.colocated,
    )


def test_harnessed_run_attaches_no_tracer():
    from repro.harness import HarnessConfig, run_events

    system = small_system()
    chunks = make_workload("oltp").chunks(accesses_per_core=100)
    run_events(system, chunks, 100, HarnessConfig(check_every=50))
    assert system.tracer is NO_TRACE


@pytest.mark.parametrize("ring", [None, 8], ids=["untraced", "traced-ring-8"])
def test_window_is_the_last_64_events_of_the_stream(ring):
    """The window is the last 64 events, whatever tracer the system has."""
    from repro.experiments.runner import build_design
    from repro.harness import HarnessConfig, run_events

    tracer = Tracer(capacity=ring) if ring else None
    system = CmpSystem(build_design("cmp-nurapid"), tracer=tracer)
    workload = make_workload("oltp")
    runner = run_events(
        system, workload.chunks(accesses_per_core=250), 0,
        HarnessConfig(check_every=100),
    )
    expected = list(workload.events(accesses_per_core=250))[-64:]
    assert list(map(step_key, runner.window_events())) == list(
        map(step_key, expected)
    )
    assert system.tracer is (tracer or NO_TRACE)


def test_window_dump_replays_the_last_64_events(tmp_path):
    from repro.harness import HarnessConfig, HarnessRunner
    from repro.workloads import tracefile

    system = small_system()
    config = HarnessConfig(dump_path=str(tmp_path / "window.trace"))
    runner = HarnessRunner(system, config)
    workload = make_workload("oltp")
    events = list(workload.events(accesses_per_core=200))
    runner.run(iter(events))

    expected = events[-64:]
    assert runner.window_events() == expected

    path = runner.dump_window()
    assert path == config.dump_path
    replayed = list(tracefile.read_trace(path))
    assert [(r.access.core, r.access.address, r.gap) for r in replayed] == [
        (e.access.core, e.access.address, e.gap) for e in expected
    ]


def test_fault_injections_are_trace_events():
    from repro.caches.private import PrivateCaches
    from repro.common.params import CacheGeometry, PrivateCacheParams
    from repro.harness import FaultSpec, HarnessConfig, HarnessRunner

    # drop-bus needs a snoopy bus: the private-MESI design has one.
    tracer = Tracer()
    system = CmpSystem(
        PrivateCaches(PrivateCacheParams(geometry=CacheGeometry(4 * KB, 2, 128))),
        tracer=tracer,
    )
    config = HarnessConfig(faults=(FaultSpec("drop-bus", 5),))
    runner = HarnessRunner(system, config)
    workload = make_workload("oltp")
    runner.run(workload.events(accesses_per_core=20))

    assert len(runner.injector.log) == 1
    record = runner.injector.log[0]
    assert isinstance(record, TraceEvent)
    assert record.kind == ev.FAULT
    assert record.data["fault"] == "drop-bus"
    assert record.data["applied"] is True
    # The same record object streams through the system's tracer.
    assert record in tracer.events(ev.FAULT)
    assert validate_record(record.to_dict()) == []


def test_invariant_violation_emits_violation_event(tmp_path):
    from repro.harness import FaultSpec, HarnessConfig, HarnessRunner
    from repro.harness.invariants import InvariantViolation

    tracer = Tracer()
    system = small_system(tracer=tracer)
    config = HarnessConfig(
        check_every=1,
        faults=(FaultSpec("flip-pointer", 40),),
        dump_path=str(tmp_path / "window.trace"),
    )
    runner = HarnessRunner(system, config)
    workload = make_workload("oltp")
    with pytest.raises(InvariantViolation) as caught:
        runner.run(workload.events(accesses_per_core=500))

    violations = tracer.events(ev.VIOLATION)
    assert len(violations) == 1
    event = violations[0]
    assert event.data["invariant"] == caught.value.invariant
    assert event.data["dump_path"] == caught.value.dump_path
    assert validate_record(event.to_dict()) == []


def test_harness_profiler_times_invariant_checks():
    from repro.harness import HarnessConfig, HarnessRunner

    profiler = Profiler()
    system = small_system()
    runner = HarnessRunner(
        system, HarnessConfig(check_every=10), profiler=profiler
    )
    workload = make_workload("oltp")
    runner.run(workload.events(accesses_per_core=100))
    checks = profiler.snapshot()["invariant-check"]
    assert checks["calls"] == runner.event_index // 10


def test_checkpoint_detaches_observability_and_restores_it(tmp_path):
    from repro.harness.checkpoint import load_checkpoint, save_checkpoint

    sink_path = tmp_path / "sink.jsonl"
    sink = open(sink_path, "w")
    tracer = Tracer(capacity=256, sink=sink)
    metrics = MetricsCollector(sample_every=500)
    system = small_system(tracer=tracer, metrics=metrics)
    profiler = Profiler().instrument(system)
    run_oltp(system, accesses_per_core=200)
    before = tracer.emitted

    # An open sink file and profiler method shadows are unpicklable;
    # save snapshots state dicts, so it must leave them in place.
    path = tmp_path / "obs.ck"
    save_checkpoint(system, event_index=800, path=path)

    assert system.tracer is tracer
    assert system.metrics is metrics
    assert "access" in vars(system.design)  # shadow kept
    run_oltp(system, accesses_per_core=50)  # still traced and timed
    assert tracer.emitted > before
    assert profiler.snapshot()["l2-lookup"]["calls"] > 0
    sink.close()

    restored = load_checkpoint(path)
    assert restored.system.tracer is NO_TRACE
    assert restored.system.metrics is None
    assert "access" not in vars(restored.system.design)
    run_oltp(restored.system, accesses_per_core=50)  # runs clean
