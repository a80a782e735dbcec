"""Differential layer: the batch kernel is bit-identical to scalar.

The batch engine (``--engine batch``) is a *re-execution strategy*, not
a remodeling: it shares one event tape per workload across its design
lanes, and every statistic a figure could read must come out
bit-identical to the scalar engine for the same (workload, design, bus
model, seed) cell.  These tests pin that claim with
``SimulationStats.fingerprint()`` equality across every registered
design, every workload family (all five multithreaded workloads and
all four multiprogrammed mixes), both interconnect backends, several
seeds, mixed-design batches, batch sizes 1/2/odd/large, and tapes
whose lengths and warm-up boundaries sit around the tape's replay
slice.

Sizes are kept small (the kernel's correctness is size-independent)
so the whole suite stays CI-cheap.
"""

import numpy as np
import pytest

from repro.common.types import Access, AccessType, SharingClass
from repro.cpu.system import TimedAccess
from repro.experiments.runner import (
    DESIGN_FACTORIES,
    ExperimentConfig,
    build_design,
    run_design_on_events,
    run_mix,
    run_multithreaded,
)
from repro.kernel import BATCH_BUS_MODELS, BatchKernel, EventTape, run_batch
from repro.workloads.base import BATCH
from repro.workloads.multiprogrammed import MIXES, make_mix
from repro.workloads.multithreaded import MULTITHREADED, make_workload

ALL_DESIGNS = sorted(DESIGN_FACTORIES)
ALL_WORKLOADS = tuple(spec.name for spec in MULTITHREADED)
ALL_MIXES = tuple(sorted(MIXES))

SEEDS = (42, 7, 20260809)


def config_for(seed=42, accesses=800, warmup=400):
    return ExperimentConfig(
        warmup_per_core=warmup, measure_per_core=accesses, seed=seed
    )


def scalar_fingerprint(workload, design_name, bus_model, config,
                       multiprogrammed=False):
    run = run_mix if multiprogrammed else run_multithreaded
    design = build_design(design_name, bus_model=bus_model)
    _, stats = run(design, workload, config)
    return stats.fingerprint()


def batch_fingerprints(cells, config, bus_model=None):
    """Run ``cells`` through one kernel; returns {cell key: fingerprint}."""
    results = run_batch(cells, config, bus_model=bus_model)
    return {key: stats.fingerprint() for key, stats in results.items()}


@pytest.mark.parametrize("design", ALL_DESIGNS)
def test_design_identical_both_buses_three_seeds(design):
    """Each design, both bus lanes in ONE batch, across three seeds."""
    for seed in SEEDS:
        config = config_for(seed=seed)
        cells = [("oltp", design, False, bus) for bus in BATCH_BUS_MODELS]
        got = batch_fingerprints(cells, config)
        for bus in BATCH_BUS_MODELS:
            want = scalar_fingerprint("oltp", design, bus, config)
            assert got[("oltp", design, False, bus)] == want, (
                f"{design}/{bus} diverged at seed {seed}"
            )


@pytest.mark.parametrize("workload", ALL_WORKLOADS)
def test_workload_identical_mixed_design_batch(workload):
    """Every multithreaded workload: a mixed-design, mixed-bus batch."""
    designs = ("uniform-shared", "private", "cmp-nurapid")
    config = config_for()
    cells = [
        (workload, design, False, bus)
        for design in designs
        for bus in BATCH_BUS_MODELS
    ]
    got = batch_fingerprints(cells, config)
    for design in designs:
        for bus in BATCH_BUS_MODELS:
            want = scalar_fingerprint(workload, design, bus, config)
            assert got[(workload, design, False, bus)] == want, (
                f"{workload}/{design}/{bus} diverged"
            )


@pytest.mark.parametrize("mix", ALL_MIXES)
def test_mix_identical_mixed_design_batch(mix):
    """Every multiprogrammed mix, on the replication-sensitive designs."""
    designs = ("private", "cmp-nurapid-cr")
    config = config_for()
    cells = [(mix, design, True, bus)
             for design in designs for bus in BATCH_BUS_MODELS]
    got = batch_fingerprints(cells, config)
    for design in designs:
        for bus in BATCH_BUS_MODELS:
            want = scalar_fingerprint(mix, design, bus, config,
                                      multiprogrammed=True)
            assert got[(mix, design, True, bus)] == want, (
                f"{mix}/{design}/{bus} diverged"
            )


@pytest.mark.parametrize("size", [1, 2, 7, 18])
def test_batch_sizes(size):
    """Batch sizes 1, 2, odd, and large: grouping must not leak state.

    Size 18 spans two workloads x all designs and both workload groups
    share nothing; sizes 1/2/7 put one, two and an odd number of lanes
    on one tape.
    """
    config = config_for()
    pool = [
        (workload, design, False, "atomic")
        for workload in ("oltp", "apache")
        for design in ALL_DESIGNS
    ] + [
        ("ocean", "private", False, "eventq"),
        ("ocean", "ideal", False, "eventq"),
        ("barnes", "cmp-nurapid-isc", False, "atomic"),
        ("barnes", "non-uniform-shared", False, "eventq"),
    ]
    cells = pool[:size]
    got = batch_fingerprints(cells, config)
    assert len(got) == size
    for workload, design, mp, bus in cells:
        want = scalar_fingerprint(workload, design, bus, config,
                                  multiprogrammed=mp)
        assert got[(workload, design, mp, bus)] == want, (
            f"{workload}/{design}/{bus} diverged in a batch of {size}"
        )


def test_duplicate_cells_dedupe_to_one_lane():
    """The same cell twice is one lane, one result — and still identical."""
    config = config_for()
    cells = [
        ("oltp", "private", False, "atomic"),
        ("oltp", "private", False, "atomic"),
    ]
    got = batch_fingerprints(cells, config)
    assert len(got) == 1
    want = scalar_fingerprint("oltp", "private", "atomic", config)
    assert got[("oltp", "private", False, "atomic")] == want


def test_default_bus_model_resolves_from_environment(monkeypatch):
    """3-tuple cells resolve their bus from REPRO_BUS_MODEL, like scalar.

    This is the hook the CI kernel-differential matrix leans on: the
    suite runs once per bus model with only the environment changed.
    """
    config = config_for()
    for bus in BATCH_BUS_MODELS:
        monkeypatch.setenv("REPRO_BUS_MODEL", bus)
        got = batch_fingerprints([("oltp", "private", False)], config)
        want = scalar_fingerprint("oltp", "private", bus, config)
        assert got[("oltp", "private", False, bus)] == want


def test_batch_refuses_mesh_cells():
    """The mesh NoC is scalar-engine territory: run_batch says so."""
    config = config_for(accesses=10, warmup=0)
    with pytest.raises(ValueError, match="mesh"):
        run_batch([("oltp", "private", False, "mesh")], config)
    with pytest.raises(ValueError, match="mesh"):
        run_batch([("oltp", "private", False)], config, bus_model="mesh")


def test_batch_refuses_scaled_cells():
    """Scaled (num_cores != 0) cells cannot ride the 4-core kernel."""
    from repro.experiments.parallel import Cell

    config = config_for(accesses=10, warmup=0)
    with pytest.raises(ValueError, match="4-core"):
        run_batch([Cell("oltp", "private", False, 16)], config,
                  bus_model="atomic")


def test_cold_start_grid_identical():
    """warmup=0 across every design and both buses, in one kernel.

    Cold caches start every lane on an all-miss prefix, and every lane
    replays the same tape from its first event.
    """
    config = config_for(accesses=600, warmup=0)
    lanes = [(design, bus) for design in ALL_DESIGNS for bus in BATCH_BUS_MODELS]
    workload = make_workload("oltp", seed=config.seed)
    tape = EventTape.from_chunks(
        workload.chunks(accesses_per_core=config.measure_per_core)
    )
    kernel = BatchKernel(
        [build_design(design, bus_model=bus) for design, bus in lanes]
    )
    kernel.run(tape, 0)
    for index, (design, bus) in enumerate(lanes):
        want = scalar_fingerprint("oltp", design, bus, config)
        assert kernel.lane_stats(index).fingerprint() == want, (
            f"{design}/{bus} diverged on a cold start"
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
    stay bit-identical to scalar on an atomic lane, a CR lane, and an
    eventq lane sharing one tape.  The guard checks that the stream
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
        _, stats = run_design_on_events(fresh, _l2_hit_heavy_stream(), 0)
        assert got.fingerprint() == stats.fingerprint(), (
            f"{name}/{bus} diverged on the L2-hit-heavy stream"
        )


def test_warmup_reset_boundary_identical():
    """The mid-tape stats reset lands on the same event in both engines."""
    for warmup in (0, 1, 333, 800):
        config = config_for(accesses=800, warmup=warmup)
        got = batch_fingerprints(
            [("apache", "cmp-nurapid", False, "atomic")], config
        )
        want = scalar_fingerprint("apache", "cmp-nurapid", "atomic", config)
        assert got[("apache", "cmp-nurapid", False, "atomic")] == want, (
            f"diverged at warmup={warmup}"
        )


# ---------------------------------------------------------------------------
# EventTape edge cases: the replay slice at its boundaries.
#
# Lanes replay a tape in slices of BATCH events; the interesting lengths
# are the degenerate ones (no events, a single event) and the ones
# around a slice boundary.  All must stay bit-identical to the scalar
# engine for every lane in a mixed batch.

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
        _, stats = run_design_on_events(fresh, _edge_stream(length), warmup)
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
    """warmup_events past the end of the tape: both engines measure
    nothing and agree on the (all-zero) statistics."""
    _assert_edge_lanes_match(10, 10)


def test_event_tape_warmup_ends_mid_slice_identical():
    """The statistics reset lands inside a replay slice, not on its edge."""
    _assert_edge_lanes_match(2 * BATCH + 5, BATCH + BATCH // 2)


def test_event_tape_from_events_matches_from_chunks():
    """Both tape builders hold the same columns for one stream.

    The benchmark builds its tapes from timed events, ``run_batch``
    from workload chunks; the two must agree column for column, for a
    multithreaded workload and a mix, across a generator chunk.
    """
    per_core = BATCH + 3
    for name, maker in (("oltp", make_workload), ("MIX2", make_mix)):
        from_events = EventTape.from_events(maker(name, seed=7).events(per_core))
        from_chunks = EventTape.from_chunks(maker(name, seed=7).chunks(per_core))
        assert from_events.n == from_chunks.n == 4 * per_core
        for got, want in zip(from_events._columns, from_chunks._columns):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want), name
