"""Differential layer: mesh+directory @ 4 cores is bit-identical to the bus.

The 2D-mesh NoC with directory coherence (``--bus-model mesh``) claims
to be a *refactoring* of the 4-core snooping bus, not a remodeling: at
four cores, with zero link/router occupancy, the calibrated mesh
transaction latency equals the bus latency exactly (the module-level
assert in :mod:`repro.interconnect.mesh` pins ``router + 2 * diameter *
hop == BUS_LATENCY``), snoops are delivered to exactly the
directory-recorded holders, in arrival order, and a snooper
without a copy was a no-op on the bus anyway — so every statistic must
come out bit-identical.  These tests pin that claim across every
registered design, both workload families (multithreaded and
multiprogrammed), and three seeds, mirroring the eventq differential
layer one backend up.
"""

import pytest

from repro.cpu.system import CmpSystem
from repro.experiments.runner import DESIGN_FACTORIES, build_design
from repro.harness import check_system
from repro.interconnect import EventQueue
from repro.interconnect.mesh import MeshNoC, mesh_noc
from repro.obs import Tracer
from repro.obs import events as ev
from repro.workloads.multiprogrammed import make_mix
from repro.workloads.multithreaded import make_workload

ACCESSES_PER_CORE = 1_500

#: Every registered design participates in the differential layer; a new
#: design added to the registry is automatically held to the same bar.
ALL_DESIGNS = sorted(DESIGN_FACTORIES)

SEEDS = (42, 7, 20260809)


def run_one(name, workload_name, bus_model, seed=42,
            accesses_per_core=ACCESSES_PER_CORE, multiprogrammed=False,
            trace=False):
    """One (design, workload, backend) run; returns (system, stats, tracer)."""
    design = build_design(name, bus_model=bus_model)
    tracer = Tracer(capacity=200_000) if trace else None
    system = CmpSystem(design, tracer=tracer)
    maker = make_mix if multiprogrammed else make_workload
    events = maker(workload_name, seed=seed).events(
        accesses_per_core=accesses_per_core
    )
    system.run(events)
    return system, system.stats(), tracer


def fingerprint(stats):
    """Every scalar a figure could read, as one comparable structure."""
    return (
        dict(stats.accesses.counts),
        [(core.instructions, core.cycles) for core in stats.per_core],
        stats.bus.transactions if stats.bus is not None else None,
        stats.throughput,
    )


def access_stream(tracer):
    """Per-access (core, miss-class, latency) sequence from the trace."""
    return [
        (event.core, event.data["miss_class"], event.data["latency"])
        for event in tracer.events(ev.ACCESS)
    ]


@pytest.mark.parametrize("name", ALL_DESIGNS)
@pytest.mark.parametrize("seed", SEEDS)
def test_stats_bit_identical_oltp(name, seed):
    """Every design x three seeds: mesh+directory == bus+snoop, bit for bit."""
    _, atomic_stats, _ = run_one(name, "oltp", "atomic", seed=seed)
    _, mesh_stats, _ = run_one(name, "oltp", "mesh", seed=seed)
    assert fingerprint(atomic_stats) == fingerprint(mesh_stats)


@pytest.mark.parametrize("name", ["private", "cmp-nurapid"])
@pytest.mark.parametrize("workload", ["apache", "ocean"])
def test_stats_bit_identical_other_workloads(name, workload):
    """More sharing mixes for the designs with real coherence traffic."""
    _, atomic_stats, _ = run_one(name, workload, "atomic")
    _, mesh_stats, _ = run_one(name, workload, "mesh")
    assert fingerprint(atomic_stats) == fingerprint(mesh_stats)


@pytest.mark.parametrize("name", ["private", "cmp-nurapid-cr"])
def test_stats_bit_identical_multiprogrammed(name):
    """The multiprogrammed family holds to the same bar."""
    _, atomic_stats, _ = run_one(name, "MIX1", "atomic", multiprogrammed=True)
    _, mesh_stats, _ = run_one(name, "MIX1", "mesh", multiprogrammed=True)
    assert fingerprint(atomic_stats) == fingerprint(mesh_stats)


@pytest.mark.parametrize("name", ["private", "cmp-nurapid"])
def test_trace_streams_bit_identical(name):
    """Same trace: every event record, in order, compares equal."""
    _, _, atomic_tracer = run_one(name, "oltp", "atomic",
                                  accesses_per_core=500, trace=True)
    _, _, mesh_tracer = run_one(name, "oltp", "mesh",
                                accesses_per_core=500, trace=True)
    assert atomic_tracer.events() == mesh_tracer.events()
    assert access_stream(atomic_tracer) == access_stream(mesh_tracer)


@pytest.mark.parametrize("name", ["private", "cmp-nurapid"])
def test_mesh_actually_routes(name):
    """Guard against vacuity: the NoC must carry real, multi-hop traffic.

    Its forwards run inline, so a race-free run leaves the event queue
    with nothing fired and nothing pending."""
    design = build_design(name, bus_model="mesh")
    noc = mesh_noc(design)
    assert isinstance(noc, MeshNoC)
    assert isinstance(noc.queue, EventQueue)
    system = CmpSystem(design)
    system.run(make_workload("oltp").events(accesses_per_core=1_500))
    assert noc.queue.fired == 0
    assert noc.queue.pending == 0
    assert noc.mesh_stats.messages > 0
    assert noc.mesh_stats.hops > 0
    assert sum(noc.mesh_stats.link_traffic.values()) > 0


@pytest.mark.parametrize("name", ["private", "cmp-nurapid"])
def test_mesh_run_passes_invariants(name):
    """Full checker (including directory-vs-L1 consistency) stays green."""
    design = build_design(name, bus_model="mesh")
    system = CmpSystem(design)
    events = list(make_workload("oltp").events(accesses_per_core=300))
    for index, event in enumerate(events):
        system.step(event)
        if (index + 1) % 100 == 0:
            check_system(system, access_index=index)
    check_system(system)


def test_env_variable_selects_backend(monkeypatch):
    monkeypatch.setenv("REPRO_BUS_MODEL", "mesh")
    design = build_design("private")
    assert mesh_noc(design) is not None
    monkeypatch.setenv("REPRO_BUS_MODEL", "atomic")
    assert mesh_noc(build_design("private")) is None
