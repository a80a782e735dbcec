"""Tests for the robustness harness: checker, faults, checkpoint, watchdog.

Each structural fault class must be caught by the invariant checker
with a structured diagnostic naming the violated contract; a killed
run must resume from its checkpoint bit-identically; the watchdog
must convert a hung run into a typed exception with a replayable
event-window dump.
"""

import itertools
import pickle
from dataclasses import replace

import pytest

from repro.caches.private import PrivateCaches
from repro.caches.shared import SharedCache
from repro.caches.snuca import SnucaCache
from repro.common.params import (
    KB,
    CacheGeometry,
    NurapidParams,
    PrivateCacheParams,
    SharedCacheParams,
    SnucaParams,
)
from repro.common.params import L1Params, SystemParams
from repro.common.types import Access, AccessType
from repro.core.nurapid import NurapidCache
from repro.cpu.system import CmpSystem, TimedAccess, split_chunks
from repro.experiments.runner import DESIGN_FACTORIES, build_design
from repro.harness import (
    CheckpointError,
    FaultInjector,
    FaultSpec,
    HarnessConfig,
    HarnessRunner,
    InvariantViolation,
    WatchdogTimeout,
    check_system,
    load_checkpoint,
    run_events,
    save_checkpoint,
)
from repro.harness import runner as harness_runner
from repro.harness.runner import MIN_SEGMENT, WINDOW_EVENTS
from repro.obs.profiler import Profiler
from repro.obs.tracer import Tracer
from repro.workloads.base import BATCH
from repro.workloads.multithreaded import make_workload

READ = AccessType.READ
WRITE = AccessType.WRITE

#: Small-geometry design factories: full-size arrays make every-access
#: checking needlessly slow, and small caches exercise far more
#: replacement/demotion traffic per event.
SMALL_DESIGNS = {
    "uniform-shared": lambda: SharedCache(
        SharedCacheParams(geometry=CacheGeometry(16 * KB, 4, 128))
    ),
    "non-uniform-shared": lambda: SnucaCache(
        SnucaParams(geometry=CacheGeometry(16 * KB, 4, 128), num_banks=4)
    ),
    "private": lambda: PrivateCaches(
        PrivateCacheParams(geometry=CacheGeometry(4 * KB, 2, 128))
    ),
    "cmp-nurapid": lambda: NurapidCache(
        NurapidParams(dgroup_capacity_bytes=4 * KB, tag_associativity=2)
    ),
}


def oltp_events(accesses_per_core: int, seed: int = 11):
    return make_workload("oltp", seed=seed).events(
        accesses_per_core=accesses_per_core
    )


def oltp_chunks(accesses_per_core: int, seed: int = 11):
    return make_workload("oltp", seed=seed).chunks(
        accesses_per_core=accesses_per_core
    )


def first_events(chunks, count: int):
    """The first ``count`` events of a chunk stream: a run killed there."""
    return split_chunks(chunks, count)[0]


def fresh_system(design: str = "cmp-nurapid") -> CmpSystem:
    # Small L1s too: the inclusion check walks every valid L1 block.
    params = SystemParams(l1=L1Params(geometry=CacheGeometry(4 * KB, 2, 64)))
    return CmpSystem(SMALL_DESIGNS[design](), params)


def inject_now(system: CmpSystem, kind: str) -> FaultInjector:
    """Apply one fault immediately; returns the injector (check .log)."""
    injector = FaultInjector((FaultSpec(kind, 0),))
    injector.maybe_inject(system, 0)
    return injector


# ----------------------------------------------------------------------
# Paranoid mode (acceptance: every design survives check_every=1)

@pytest.mark.parametrize(
    "design",
    ["uniform-shared", "private", "non-uniform-shared", "cmp-nurapid"],
)
def test_paranoid_mode_clean_run(design):
    """A fault-free multithreaded run passes the checker on every access."""
    system = fresh_system(design)
    run_events(
        system,
        oltp_chunks(300, seed=5),
        warmup_events=400,
        config=HarnessConfig(check_every=1),
    )
    assert system.stats().accesses.total > 0


# ----------------------------------------------------------------------
# Fault detection: one structured diagnostic per corruption class

#: Structural fault kind -> invariant names the checker may report for
#: it (a corruption can legitimately trip more than one contract).
DETECTED_BY = {
    "flip-pointer": {"tag-pointer", "frame-ownership"},
    "flip-reverse": {"frame-ownership"},
    "evict-frame": {"tag-pointer", "frame-ownership", "frame-accounting"},
    "dirty-desync": {"dirty-copy", "single-dirty-copy", "c-state"},
    "l1-orphan": {"l1-inclusion"},
}


@pytest.mark.parametrize("kind", sorted(DETECTED_BY))
def test_fault_class_detected(kind, tmp_path):
    """Each structural corruption raises InvariantViolation naming it."""
    system = fresh_system("cmp-nurapid")
    config = HarnessConfig(
        check_every=1,
        faults=(FaultSpec(kind, 400),),
        dump_path=str(tmp_path / "window.trace"),
    )
    with pytest.raises(InvariantViolation) as caught:
        run_events(system, oltp_chunks(2000), warmup_events=0, config=config)
    violation = caught.value
    assert violation.invariant in DETECTED_BY[kind], str(violation)
    assert violation.access_index is not None and violation.access_index >= 400
    assert f"[{violation.invariant}]" in str(violation)
    # The minimal repro: the last events are dumped as a replayable trace.
    assert violation.dump_path == str(tmp_path / "window.trace")
    assert (tmp_path / "window.trace").exists()


def test_corrupt_state_detected():
    """Forcing one sharer of a shared block into M breaks exclusivity.

    Injected on a hand-built two-reader state so the fault always has
    an eligible target (random workloads may lack stable sharing).
    """
    system = fresh_system("private")
    system.step(TimedAccess(Access(0, 0x40000, READ)))
    system.step(TimedAccess(Access(1, 0x40000, READ)))
    injector = inject_now(system, "corrupt-state")
    assert injector.log[0].data["applied"], injector.log[0].data["description"]
    with pytest.raises(InvariantViolation) as caught:
        check_system(system)
    assert caught.value.invariant in {"exclusivity", "single-dirty-copy"}


def test_drop_bus_detected():
    """A lost invalidation leaves two writable copies (exclusivity)."""
    system = fresh_system("private")
    system.step(TimedAccess(Access(0, 0x40000, READ)))  # core 0 takes E
    injector = inject_now(system, "drop-bus")
    assert injector.log[0].data["applied"]
    # Core 1's BusRdX is never snooped: core 0 keeps its copy.
    system.step(TimedAccess(Access(1, 0x40000, WRITE)))
    with pytest.raises(InvariantViolation) as caught:
        check_system(system)
    assert caught.value.invariant == "exclusivity"


def test_violation_is_assertion_error():
    """Old callers that caught AssertionError keep working."""
    assert issubclass(InvariantViolation, AssertionError)


def test_delay_bus_perturbs_latency_only():
    """A delayed bus transaction costs 10x latency; state stays legal."""
    plain = fresh_system("private")
    read = Access(0, 0x40000, READ)
    base_latency = plain.design.access(read, now=0).latency

    faulted = fresh_system("private")
    injector = inject_now(faulted, "delay-bus")
    assert injector.log[0].data["applied"]
    slow_latency = faulted.design.access(read, now=0).latency
    assert slow_latency >= base_latency + 10 * faulted.design.bus.latency
    assert faulted.design.bus.fault_next is None  # one-shot
    check_system(faulted)  # timing-only: the model is still legal


def test_dup_bus_keeps_model_legal():
    """A double-snooped transaction never corrupts coherence state."""
    system = fresh_system("private")
    system.step(TimedAccess(Access(0, 0x40000, READ)))
    system.step(TimedAccess(Access(1, 0x40000, READ)))
    injector = inject_now(system, "dup-bus")
    assert injector.log[0].data["applied"]
    system.step(TimedAccess(Access(2, 0x40000, READ)))
    check_system(system)


def test_delay_xbar_perturbs_latency_only():
    """The slowed crossbar adds its penalty to every data access."""
    system = fresh_system("cmp-nurapid")
    cache = system.design
    probe = Access(0, 0x40000, READ)
    cache.access(probe, now=0)  # install the block
    base_latency = cache.access(probe, now=10).latency
    injector = inject_now(system, "delay-xbar")
    assert injector.log[0].data["applied"]
    slow_latency = cache.access(probe, now=20).latency
    assert slow_latency == base_latency + 100
    check_system(system)


def test_timestamp_monotonic_violation(tmp_path):
    """Rewinding a core clock (the old reset_stats bug) is caught at the
    first event of the next run, naming the rewound core, whether or
    not that event steps it (event 101 steps core 0)."""
    for rewound in (0, 1):
        system = fresh_system("private")
        runner_config = HarnessConfig(dump_path=str(tmp_path / "mono.trace"))
        events = iter(oltp_events(200, seed=3))
        runner = HarnessRunner(system, runner_config)
        runner.run(itertools.islice(events, 100))
        system.cores[rewound].cycles -= 50
        with pytest.raises(InvariantViolation) as caught:
            runner.run(itertools.islice(events, 100))
        violation = caught.value
        assert violation.invariant == "timestamp-monotonic"
        assert violation.access_index == 101
        assert violation.cores == (rewound,)


# ----------------------------------------------------------------------
# Checkpoint / resume

def _stats_fingerprint(stats):
    return (
        stats.accesses.counts,
        [(t.instructions, t.cycles) for t in stats.per_core],
        stats.bus.transactions,
        stats.throughput,
        stats.aggregate_ipc,
    )


def test_checkpoint_resume_bit_identical(tmp_path):
    """Kill a run mid-measurement; the resumed stats match exactly."""
    path = str(tmp_path / "run.ck")
    warmup_events = 500 * 4  # 2000 events, then 6000 measured

    reference = fresh_system("cmp-nurapid")
    run_events(reference, oltp_chunks(2000), warmup_events, HarnessConfig())
    want = _stats_fingerprint(reference.stats())

    # "Kill" at event 6000: run only a 6000-event prefix, checkpointing
    # every 3000 events, so the last snapshot is mid-measurement.
    killed = fresh_system("cmp-nurapid")
    meta = {"workload": "oltp", "seed": 11, "accesses": 1500, "warmup": 500}
    run_events(
        killed,
        first_events(oltp_chunks(2000), 6000),
        warmup_events,
        HarnessConfig(checkpoint_path=path, checkpoint_every=3000),
        meta=meta,
    )

    checkpoint = load_checkpoint(path)
    assert checkpoint.event_index == 6000
    assert checkpoint.meta["stats_reset"] is True
    assert checkpoint.meta["workload"] == "oltp"

    resumed = checkpoint.system
    run_events(
        resumed,
        oltp_chunks(2000),
        warmup_events,
        HarnessConfig(),
        start_index=checkpoint.event_index,
        stats_reset=checkpoint.meta["stats_reset"],
    )
    assert _stats_fingerprint(resumed.stats()) == want


def test_checkpoint_before_warmup_boundary_resumes(tmp_path):
    """A checkpoint cut during warm-up replays the stats reset on resume."""
    path = str(tmp_path / "warm.ck")
    warmup_events = 500 * 4

    reference = fresh_system("private")
    run_events(reference, oltp_chunks(1000), warmup_events, HarnessConfig())
    want = _stats_fingerprint(reference.stats())

    killed = fresh_system("private")
    run_events(
        killed,
        first_events(oltp_chunks(1000), 1000),  # dies inside warm-up
        warmup_events,
        HarnessConfig(checkpoint_path=path, checkpoint_every=1000),
    )
    checkpoint = load_checkpoint(path)
    assert checkpoint.event_index == 1000
    assert checkpoint.meta["stats_reset"] is False

    resumed = checkpoint.system
    run_events(
        resumed,
        oltp_chunks(1000),
        warmup_events,
        HarnessConfig(),
        start_index=checkpoint.event_index,
        stats_reset=checkpoint.meta["stats_reset"],
    )
    assert _stats_fingerprint(resumed.stats()) == want


def test_resume_skips_a_whole_chunk_bit_identically(tmp_path):
    """A checkpoint cut in the stream's second chunk: resuming skips the
    first chunk whole and slices the second."""
    path = str(tmp_path / "late.ck")
    per_core = BATCH + 500
    warmup_events = 1000 * 4
    cut = 4 * BATCH + 1200

    reference = fresh_system("private")
    run_events(reference, oltp_chunks(per_core), warmup_events, HarnessConfig())
    want = _stats_fingerprint(reference.stats())

    killed = fresh_system("private")
    run_events(
        killed,
        first_events(oltp_chunks(per_core), cut),
        warmup_events,
        HarnessConfig(checkpoint_path=path, checkpoint_every=cut),
    )
    checkpoint = load_checkpoint(path)
    assert checkpoint.event_index == cut

    resumed = checkpoint.system
    run_events(
        resumed,
        oltp_chunks(per_core),
        warmup_events,
        HarnessConfig(),
        start_index=cut,
        stats_reset=checkpoint.meta["stats_reset"],
    )
    assert _stats_fingerprint(resumed.stats()) == want


def test_load_checkpoint_rejects_garbage(tmp_path):
    bogus = tmp_path / "not-a-checkpoint"
    bogus.write_bytes(b"garbage bytes")
    with pytest.raises(CheckpointError):
        load_checkpoint(str(bogus))


def test_load_checkpoint_missing_file(tmp_path):
    with pytest.raises(CheckpointError):
        load_checkpoint(str(tmp_path / "absent.ck"))


def test_save_checkpoint_is_atomic(tmp_path):
    path = tmp_path / "atomic.ck"
    system = fresh_system("uniform-shared")
    save_checkpoint(system, 0, str(path), {"workload": "oltp"})
    assert path.exists()
    assert not list(tmp_path.glob("*.tmp"))


# ----------------------------------------------------------------------
# Watchdog

def test_watchdog_raises_with_dump(tmp_path):
    system = fresh_system("private")
    config = HarnessConfig(
        timeout_seconds=1e-9, dump_path=str(tmp_path / "hang.trace")
    )
    with pytest.raises(WatchdogTimeout) as caught:
        run_events(system, oltp_chunks(100, seed=3), 0, config)
    assert caught.value.event_index >= 1
    assert caught.value.dump_path == str(tmp_path / "hang.trace")
    assert (tmp_path / "hang.trace").exists()


# ----------------------------------------------------------------------
# Pieces: workload chunks through the columnar loop between boundaries

#: A check and a checkpoint interval that divide neither BATCH nor each
#: other, so pieces are cut mid-chunk at both.
PIECE_CHECK_EVERY = 1_237
PIECE_CHECKPOINT_EVERY = 2_999


def _per_event(monkeypatch):
    """Force every HarnessRunner onto the per-event loop."""
    monkeypatch.setattr(HarnessRunner, "takes_pieces", lambda self: False)


def _spied_run(system, chunks, warmup_events, tmp_path, monkeypatch):
    """run_events with checks and checkpoints; returns the pickled
    system state at each checkpoint and the profiler's check count."""
    snapshots = []
    monkeypatch.setattr(
        harness_runner,
        "save_checkpoint",
        lambda system, index, path, meta: snapshots.append(
            (index, pickle.dumps(system.state_dict()))
        ),
    )
    profiler = Profiler()
    config = HarnessConfig(
        check_every=PIECE_CHECK_EVERY,
        checkpoint_path=str(tmp_path / "pieces.ck"),
        checkpoint_every=PIECE_CHECKPOINT_EVERY,
    )
    runner = run_events(system, chunks, warmup_events, config, profiler=profiler)
    checks = profiler.snapshot()["invariant-check"]["calls"]
    return runner.takes_pieces(), snapshots, checks


@pytest.mark.parametrize(
    "design, bus_model, cores",
    [(name, bus, 4) for name in sorted(DESIGN_FACTORIES)
     for bus in ("atomic", "eventq")]
    + [("private", "mesh", 16), ("cmp-nurapid", "mesh", 16)],
)
def test_pieces_match_the_per_event_loop(
    design, bus_model, cores, tmp_path, monkeypatch
):
    """Same fingerprint, same state at every checkpoint, same checks."""
    per_core = 750 if cores == 16 else 3_000
    warmup_events = cores * per_core // 3

    def run(pieces):
        system = CmpSystem(build_design(design, bus_model=bus_model,
                                        num_cores=cores))
        chunks = make_workload("oltp", seed=7, num_cores=cores).chunks(
            accesses_per_core=per_core
        )
        with monkeypatch.context() as patch:
            if not pieces:
                _per_event(patch)
            spied = _spied_run(system, chunks, warmup_events, tmp_path, patch)
        return system.stats().fingerprint(), spied

    fingerprint, (took_pieces, snapshots, checks) = run(pieces=True)
    want_fingerprint, (_, want_snapshots, want_checks) = run(pieces=False)
    assert took_pieces
    assert fingerprint == want_fingerprint
    assert [index for index, _ in snapshots] == [
        index for index, _ in want_snapshots
    ] == list(range(PIECE_CHECKPOINT_EVERY, cores * per_core + 1,
                    PIECE_CHECKPOINT_EVERY))
    assert snapshots == want_snapshots
    assert checks == want_checks == cores * per_core // PIECE_CHECK_EVERY


def _dumped_lines(path):
    with open(path) as handle:
        return [line for line in handle if not line.startswith("#")]


@pytest.mark.parametrize(
    "corruption, cut", [("rewind-clock", 2_999), ("l1-orphan", 2_500)]
)
def test_pieces_report_a_violation_like_the_per_event_loop(
    corruption, cut, tmp_path, monkeypatch
):
    """Run, corrupt the state, run again: both loops raise the same
    invariant at the same index and dump the same 64 events."""

    def report(pieces):
        system = fresh_system("private")
        dump = tmp_path / f"window-{pieces}.trace"
        config = HarnessConfig(check_every=1_000, dump_path=str(dump))
        with monkeypatch.context() as patch:
            if not pieces:
                _per_event(patch)
            runner = HarnessRunner(system, config)
            head, tail = split_chunks(oltp_chunks(2_000, seed=3), cut)
            runner.run_chunks(head)
            if corruption == "rewind-clock":
                system.cores[0].cycles -= 50
            else:
                inject_now(system, corruption)
            with pytest.raises(InvariantViolation) as caught:
                runner.run_chunks(tail)
        return caught.value, _dumped_lines(dump)

    violation, lines = report(pieces=True)
    want, want_lines = report(pieces=False)
    assert violation.invariant == want.invariant
    assert violation.access_index == want.access_index == 3_000
    assert len(lines) == WINDOW_EVENTS
    assert lines == want_lines


def test_negative_stall_is_caught_at_its_event(tmp_path, monkeypatch):
    """A load that stalls a negative number of cycles: both loops raise
    timestamp-monotonic at its event, and the window ends there."""
    bad_load = 300

    def report(pieces):
        system = fresh_system("cmp-nurapid")
        design = system.design
        original = design.access
        loads = []

        def access(access, now):
            result = original(access, now=now)
            if access.type is READ:
                loads.append(access)
                if len(loads) == bad_load:
                    return replace(result, latency=-(10**9))
            return result

        dump = tmp_path / f"stall-{pieces}.trace"
        config = HarnessConfig(check_every=500, dump_path=str(dump))
        with monkeypatch.context() as patch:
            patch.setattr(design, "access", access)
            if not pieces:
                _per_event(patch)
            with pytest.raises(InvariantViolation) as caught:
                run_events(system, oltp_chunks(2_000, seed=3), 400, config)
        return caught.value, _dumped_lines(dump), loads[bad_load - 1]

    violation, lines, load = report(pieces=True)
    want, want_lines, want_load = report(pieces=False)
    assert violation.invariant == want.invariant == "timestamp-monotonic"
    assert violation.access_index == want.access_index
    assert load == want_load
    core, address, kind = lines[-1].split()[:3]
    assert (int(core), int(address, 16), kind) == (load.core, load.address, "R")
    assert lines == want_lines


def test_pieces_reject_a_negative_count_before_running_it(tmp_path):
    """No generator or trace file yields a negative gap, but a piece that
    holds one is refused at that event, before any of it runs."""
    system = fresh_system("private")
    head, tail = split_chunks(oltp_chunks(2_000, seed=3), 1_000)
    runner = HarnessRunner(
        system, HarnessConfig(check_every=500, dump_path=str(tmp_path / "w.trace"))
    )
    runner.run_chunks(head)
    chunk = next(iter(tail))
    chunk.gap[10] = -5
    ran = system.stats().fingerprint()
    with pytest.raises(InvariantViolation) as caught:
        runner.run_chunks([chunk])
    assert caught.value.invariant == "timestamp-monotonic"
    assert caught.value.access_index == 1_011
    assert runner.event_index == 1_000
    assert system.stats().fingerprint() == ran


@pytest.mark.parametrize(
    "config, setup, pieces",
    [
        (HarnessConfig(faults=(FaultSpec("drop-bus", 10**9),)), None, False),
        (HarnessConfig(check_every=1), None, False),
        (HarnessConfig(check_every=MIN_SEGMENT - 1), None, False),
        (HarnessConfig(check_every=MIN_SEGMENT), None, True),
        (HarnessConfig(), None, True),
        (HarnessConfig(), "tracer", False),
        (HarnessConfig(), "armed-race", False),
    ],
)
def test_loop_selection(config, setup, pieces, monkeypatch):
    """Runs a fault can reach, short check intervals and observed
    systems keep the per-event loop; everything else runs pieces
    through CmpSystem.run_chunks."""
    system = CmpSystem(build_design("private"))
    if setup == "tracer":
        system.attach_tracer(Tracer(capacity=16))
    elif setup == "armed-race":
        # As a snapshot restores it: a race armed, no injector.
        system.design.bus.race_pending = "race-reorder"
    calls = []
    original = system.run_chunks
    monkeypatch.setattr(
        system, "run_chunks", lambda chunks: calls.append(1) or original(chunks)
    )
    run_events(system, oltp_chunks(100, seed=3), 0, config)
    assert bool(calls) is pieces
