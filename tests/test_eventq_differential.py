"""Differential layer: eventq @ zero latency is bit-identical to atomic.

The eventq backend differs from atomic only by the attached event
queue, which holds the race faults' deferred deliveries: with no race
armed it must reproduce the atomic backend exactly.  These tests pin
that claim down to the bit — identical statistics fingerprints,
identical per-core hit/miss-class streams, and identical trace event
sequences — across every design registered in the paper's design table
and across both a read-heavy and a write-heavy multithreaded workload.
"""

import pytest

from repro.caches.private import PrivateCaches
from repro.cpu.system import CmpSystem
from repro.experiments.runner import DESIGN_FACTORIES, build_design
from repro.interconnect import EventQueue, attach_eventq
from repro.obs import Tracer
from repro.obs import events as ev
from repro.workloads.multithreaded import make_workload

ACCESSES_PER_CORE = 2_000

#: Every registered design participates in the differential layer; a new
#: design added to the registry is automatically held to the same bar.
ALL_DESIGNS = sorted(DESIGN_FACTORIES)


def run_pair(name, workload_name, accesses_per_core=ACCESSES_PER_CORE,
             trace=False):
    """Run one design under both backends; return the two run records."""
    out = []
    for bus_model in ("atomic", "eventq"):
        design = build_design(name, bus_model=bus_model)
        tracer = Tracer(capacity=200_000) if trace else None
        system = CmpSystem(design, tracer=tracer)
        events = make_workload(workload_name).events(
            accesses_per_core=accesses_per_core
        )
        system.run(events)
        out.append((system, system.stats(), tracer))
    return out


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
def test_stats_bit_identical_oltp(name):
    (_, atomic_stats, _), (_, eventq_stats, _) = run_pair(name, "oltp")
    assert fingerprint(atomic_stats) == fingerprint(eventq_stats)


@pytest.mark.parametrize("name", ["private", "cmp-nurapid"])
def test_stats_bit_identical_apache(name):
    """A second workload (different sharing mix) for the bus-heavy designs."""
    (_, atomic_stats, _), (_, eventq_stats, _) = run_pair(name, "apache")
    assert fingerprint(atomic_stats) == fingerprint(eventq_stats)


@pytest.mark.parametrize("name", ["private", "cmp-nurapid"])
def test_trace_streams_bit_identical(name):
    """Same trace: every event record, in order, compares equal.

    ``TraceEvent.__eq__`` compares the full serialized record, so equal
    lists mean equal kinds, cycles, cores, addresses, d-groups, and
    payloads — the per-core hit/miss streams fall out as a projection.
    """
    (_, _, atomic_tracer), (_, _, eventq_tracer) = run_pair(
        name, "oltp", accesses_per_core=500, trace=True
    )
    assert atomic_tracer.events() == eventq_tracer.events()
    assert access_stream(atomic_tracer) == access_stream(eventq_tracer)


def test_eventq_actually_schedules():
    """The queue holds only deferred deliveries: a race-free run fires
    and leaves none, while the queue follows the transactions' cycles."""
    design = build_design("private", bus_model="eventq")
    assert isinstance(design.queue, EventQueue)
    system = CmpSystem(design)
    system.run(make_workload("oltp").events(accesses_per_core=500))
    assert design.queue.fired == 0
    assert design.queue.pending == 0
    assert design.queue.now > 0


def test_contended_bus_stats_match():
    """With occupancy > 0 the latency math is shared between backends,
    so statistics stay equal with a queue attached."""
    results = []
    for use_eventq in (False, True):
        design = PrivateCaches(bus_occupancy=8)
        if use_eventq:
            attach_eventq(design)
        system = CmpSystem(design)
        system.run(make_workload("oltp").events(accesses_per_core=1_000))
        results.append(fingerprint(system.stats()))
    assert results[0] == results[1]


def test_env_variable_selects_backend(monkeypatch):
    monkeypatch.setenv("REPRO_BUS_MODEL", "eventq")
    design = build_design("private")
    assert design.queue is not None
    monkeypatch.setenv("REPRO_BUS_MODEL", "atomic")
    assert build_design("private").queue is None
    monkeypatch.setenv("REPRO_BUS_MODEL", "wishbone")
    with pytest.raises(ValueError):
        build_design("private")
