"""Differential layer: kernel lanes are bit-identical to single cells.

:class:`~repro.kernel.BatchKernel` runs each design lane's own
``CmpSystem`` over one shared :class:`~repro.kernel.EventTape`, the
path the benchmark's ``fig10-batch`` workload takes.  Every lane's
``SimulationStats.fingerprint()`` must equal a single-cell run of the
same (workload, design, bus model, seed).  These tests pin that across
every registered design, every workload family (all five
multithreaded workloads and all four multiprogrammed mixes), both
snooping-bus backends, several seeds, lane counts 1/2/odd/large,
warm-up boundaries, and tapes whose lengths and warm-up boundaries sit
around the tape's replay slice.  Tapes are built from timed events, as
the benchmark builds them, while the references run the workloads'
column chunks, so the two generator views are checked against each
other too.

Sizes are kept small (the kernel's correctness is size-independent)
so the whole suite stays CI-cheap.
"""

import itertools

import pytest

from repro.common.types import Access, AccessType, SharingClass
from repro.cpu.system import CmpSystem, TimedAccess
from repro.experiments.runner import (
    DESIGN_FACTORIES,
    ExperimentConfig,
    build_design,
    run_mix,
    run_multithreaded,
)
from repro.kernel import BatchKernel, EventTape
from repro.workloads.base import BATCH
from repro.workloads.multiprogrammed import MIXES, make_mix
from repro.workloads.multithreaded import MULTITHREADED, make_workload

ALL_DESIGNS = sorted(DESIGN_FACTORIES)
ALL_WORKLOADS = tuple(spec.name for spec in MULTITHREADED)
ALL_MIXES = tuple(sorted(MIXES))
BUS_MODELS = ("atomic", "eventq")

SEEDS = (42, 7, 20260809)


def run_stepped(design, events, warmup_events):
    """Warm up, reset statistics and measure a stream of timed accesses
    in the per-event loop, :meth:`CmpSystem.run`; return the stats."""
    system = CmpSystem(design)
    iterator = iter(events)
    if warmup_events:
        system.run(itertools.islice(iterator, warmup_events))
        system.reset_stats()
    system.run(iterator)
    return system.stats()


def config_for(seed=42, accesses=800, warmup=400):
    return ExperimentConfig(
        warmup_per_core=warmup, measure_per_core=accesses, seed=seed
    )


def assert_lanes_match(workload, lanes, config, multiprogrammed=False,
                       context=""):
    """Run (design, bus model) ``lanes`` over one tape of ``workload``
    and check each lane against a single-cell run of the same cell."""
    maker = make_mix if multiprogrammed else make_workload
    run = run_mix if multiprogrammed else run_multithreaded
    stream = maker(workload, seed=config.seed)
    total = config.warmup_per_core + config.measure_per_core
    tape = EventTape.from_events(stream.events(accesses_per_core=total))
    kernel = BatchKernel(
        [build_design(design, bus_model=bus) for design, bus in lanes]
    )
    kernel.run(tape, config.warmup_per_core * stream.num_cores)
    assert len(kernel.lanes) == len(lanes)
    for index, (design, bus) in enumerate(lanes):
        _, want = run(build_design(design, bus_model=bus), workload, config)
        assert kernel.lane_stats(index).fingerprint() == want.fingerprint(), (
            f"{workload}/{design}/{bus} diverged{context}"
        )


@pytest.mark.parametrize("design", ALL_DESIGNS)
def test_design_identical_both_buses_three_seeds(design):
    """Each design, both bus lanes on ONE tape, across three seeds."""
    for seed in SEEDS:
        assert_lanes_match(
            "oltp", [(design, bus) for bus in BUS_MODELS],
            config_for(seed=seed), context=f" at seed {seed}",
        )


@pytest.mark.parametrize("workload", ALL_WORKLOADS)
def test_workload_identical_mixed_design_batch(workload):
    """Every multithreaded workload: mixed-design, mixed-bus lanes."""
    designs = ("uniform-shared", "private", "cmp-nurapid")
    assert_lanes_match(
        workload, [(design, bus) for design in designs for bus in BUS_MODELS],
        config_for(),
    )


@pytest.mark.parametrize("mix", ALL_MIXES)
def test_mix_identical_mixed_design_batch(mix):
    """Every multiprogrammed mix, on the replication-sensitive designs."""
    designs = ("private", "cmp-nurapid-cr")
    assert_lanes_match(
        mix, [(design, bus) for design in designs for bus in BUS_MODELS],
        config_for(), multiprogrammed=True,
    )


@pytest.mark.parametrize("size", [1, 2, 7, 18])
def test_batch_sizes(size):
    """1, 2, an odd number and many lanes: lanes must not leak state.

    Size 18 puts every design on both buses on one tape, plus a second
    lane for two of those cells.
    """
    pool = [(design, bus) for bus in BUS_MODELS for design in ALL_DESIGNS]
    pool += [("private", "atomic"), ("cmp-nurapid", "eventq")]
    assert_lanes_match("apache", pool[:size], config_for(),
                       context=f" among {size} lanes")


def test_cold_start_grid_identical():
    """warmup=0 across every design and both buses, on one tape.

    Cold caches start every lane on an all-miss prefix, and every lane
    replays the same tape from its first event.
    """
    assert_lanes_match(
        "oltp",
        [(design, bus) for design in ALL_DESIGNS for bus in BUS_MODELS],
        config_for(accesses=600, warmup=0), context=" on a cold start",
    )


def test_warmup_reset_boundary_identical():
    """The mid-tape stats reset lands on the same event as a single cell's."""
    for warmup in (0, 1, 333, 800):
        assert_lanes_match(
            "apache", [("cmp-nurapid", "atomic")],
            config_for(accesses=800, warmup=warmup),
            context=f" at warmup={warmup}",
        )


def _l2_hit_heavy_stream(num_cores=4, per_core=4000, region_blocks=1536):
    """Per-core private cyclic streams sized to thrash L1 but live in L2.

    region_blocks * 64B = 96 KB per core: 1.5x the 64 KB L1, so after
    the first pass almost every access is an L1 miss that hits its own
    core's L2 copy in M/E.
    """
    for i in range(per_core):
        for core in range(num_cores):
            address = (core << 24) | ((i % region_blocks) * 64)
            yield TimedAccess(
                Access(core, address, AccessType.READ, SharingClass.PRIVATE),
                gap=2,
                colocated=1,
            )


def test_l2_hit_heavy_stream_identical():
    """A stream of private L2 read hits, on lanes sharing one tape.

    Nearly every event misses the L1 and hits the L2.  The result must
    stay bit-identical to a single-cell run on an atomic lane, a CR
    lane, and an eventq lane sharing one tape.  The guard checks that the stream
    really is L2-hit-heavy: at least 3/4 of each lane's L2 accesses
    are hits.
    """
    names = [
        ("cmp-nurapid", "atomic"),
        ("cmp-nurapid-cr", "atomic"),
        ("cmp-nurapid-isc", "eventq"),
    ]
    tape = EventTape.from_events(_l2_hit_heavy_stream())
    designs = [build_design(n, bus_model=b) for n, b in names]
    kernel = BatchKernel(designs)
    kernel.run(tape, 0)
    for index, (name, bus) in enumerate(names):
        got = kernel.lane_stats(index)
        assert 4 * got.accesses.hits >= 3 * got.accesses.total, (
            f"{name}/{bus}: only {got.accesses.hits} of "
            f"{got.accesses.total} L2 accesses hit"
        )
        fresh = build_design(name, bus_model=bus)
        stats = run_stepped(fresh, _l2_hit_heavy_stream(), 0)
        assert got.fingerprint() == stats.fingerprint(), (
            f"{name}/{bus} diverged on the L2-hit-heavy stream"
        )


# ---------------------------------------------------------------------------
# EventTape edge cases: the replay slice at its boundaries.
#
# Lanes replay a tape in slices of BATCH events; the interesting lengths
# are the degenerate ones (no events, a single event) and the ones
# around a slice boundary.  All must stay bit-identical to a single-cell
# run for every lane in a mixed batch.

TAPE_EDGE_LANES = (
    ("private", "atomic"),
    ("cmp-nurapid", "atomic"),
    ("cmp-nurapid-cr", "eventq"),
)


def _edge_stream(n, num_cores=4):
    """A deterministic n-event mix of aliasing reads and writes."""
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


def _assert_edge_lanes_match(length, warmup):
    tape = EventTape.from_events(_edge_stream(length))
    assert tape.n == length
    kernel = BatchKernel(
        [build_design(n, bus_model=b) for n, b in TAPE_EDGE_LANES]
    )
    kernel.run(tape, warmup)
    for index, (name, bus) in enumerate(TAPE_EDGE_LANES):
        fresh = build_design(name, bus_model=bus)
        stats = run_stepped(fresh, _edge_stream(length), warmup)
        assert kernel.lane_stats(index).fingerprint() == stats.fingerprint(), (
            f"{name}/{bus} diverged on a {length}-event tape "
            f"(warm-up {warmup})"
        )


@pytest.mark.parametrize(
    "length",
    [0, 1, BATCH - 1, BATCH, BATCH + 1],
    ids=["empty", "single", "one-short-of-a-slice", "exactly-one-slice",
         "one-past-a-slice"],
)
def test_event_tape_edge_lengths_identical(length):
    _assert_edge_lanes_match(length, 0)


def test_event_tape_warmup_beyond_tape_identical():
    """warmup_events past the end of the tape: lanes and single-cell
    runs measure nothing and agree on the (all-zero) statistics."""
    _assert_edge_lanes_match(10, 10)


def test_event_tape_warmup_ends_mid_slice_identical():
    """The statistics reset lands inside a replay slice, not on its edge."""
    _assert_edge_lanes_match(2 * BATCH + 5, BATCH + BATCH // 2)
