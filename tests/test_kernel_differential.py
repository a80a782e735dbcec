"""Differential layer: the batch kernel is bit-identical to scalar.

The SoA batch engine (``--engine batch``) claims to be a *re-execution
strategy*, not a remodeling: every statistic a figure could read must
come out bit-identical to the scalar engine for the same (workload,
design, bus model, seed) cell.  These tests pin that claim with
``SimulationStats.fingerprint()`` equality across every registered
design, every workload family (all five multithreaded workloads and
all four multiprogrammed mixes), both interconnect backends, several
seeds, mixed-design batches, and batch sizes 1/2/odd/large.

Sizes are kept small (the kernel's correctness is size-independent;
its fallback boundary is crossed thousands of times even at 800
accesses/core) so the whole suite stays CI-cheap.
"""

import pytest

from repro.common.params import SystemParams
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
from repro.workloads.multiprogrammed import MIXES
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
    share nothing; sizes 1/2/7 exercise the single-lane, pair, and
    odd-lane template paths of the vector kernel.
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

    Cold caches start every lane on an all-miss prefix that runs on
    the batched scalar residue, and each lane's commit boundaries
    follow its own misses; every event must still be committed
    exactly once.
    """
    config = config_for(accesses=600, warmup=0)
    lanes = [(design, bus) for design in ALL_DESIGNS for bus in BATCH_BUS_MODELS]
    params = SystemParams()
    workload = make_workload("oltp", seed=config.seed)
    tape = EventTape.from_chunks(
        workload.chunks(accesses_per_core=config.measure_per_core), params.l1
    )
    kernel = BatchKernel(
        [build_design(design, bus_model=bus) for design, bus in lanes], params
    )
    kernel.run(tape, 0)
    assert kernel.pure_commits + kernel.scalar_events == len(lanes) * tape.n
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
    """A stream of private L2 read hits, run through the scalar residue.

    Nearly every event misses the L1 and hits the L2, so almost the
    whole tape takes the batched residue path.  The result must stay
    bit-identical to scalar on an atomic lane, a CR lane, and an
    eventq lane sharing one tape.  The guard checks that the stream
    really is L2-hit-heavy: at least 3/4 of each lane's L2 accesses
    are hits.
    """
    names = [
        ("cmp-nurapid", "atomic"),
        ("cmp-nurapid-cr", "atomic"),
        ("cmp-nurapid-isc", "eventq"),
    ]
    params = SystemParams()
    tape = EventTape.from_events(_l2_hit_heavy_stream(), params.l1)
    designs = [build_design(n, bus_model=b) for n, b in names]
    kernel = BatchKernel(designs, params)
    kernel.run(tape, 0)
    assert kernel.pure_commits + kernel.scalar_events == len(names) * tape.n
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
