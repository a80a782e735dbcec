"""Event queue properties: scheduling guarantees and one queue per design.

Hypothesis drives random schedules (times, a partial ``run_until``
cut, past-time stragglers) against the event queue that holds the
race faults' deferred deliveries, and checks the contracts those
deliveries lean on: every scheduled event fires exactly once,
``run_until`` fires exactly the events due by its time, fire times are
globally monotonic, and equal times fire in schedule order.  The
system-level tests pin where the queue lives: every design owns one,
shared by its bus, crossbar and mesh NoC, on every backend, and a
race-free run leaves it empty.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.caches.private import PrivateCaches
from repro.core.nurapid import NurapidCache
from repro.cpu.system import CmpSystem
from repro.experiments.runner import BUS_MODELS, DESIGN_FACTORIES, build_design
from repro.interconnect import Crossbar, EventQueue, SnoopBus
from repro.interconnect.mesh import MeshNoC, mesh_noc
from repro.workloads.multithreaded import make_workload

#: One schedule: the time of each event, in schedule order.
schedule_times = st.lists(
    st.integers(min_value=0, max_value=50), min_size=1, max_size=120
)


class Recorder:
    """Collects (event id, fire time) pairs; picklable-action stand-in."""

    def __init__(self, queue):
        self.queue = queue
        self.calls = []

    def hit(self, ident):
        self.calls.append((ident, self.queue.now))


def build_queue(times):
    """Schedule one event per time; returns (queue, recorder)."""
    queue = EventQueue(seed=7)
    recorder = Recorder(queue)
    for ident, time in enumerate(times):
        queue.at(time, recorder.hit, (ident,), label=f"e{ident}")
    return queue, recorder


@settings(max_examples=100, deadline=None)
@given(times=schedule_times, cut=st.integers(min_value=0, max_value=50))
def test_every_event_fires_exactly_once(times, cut):
    queue, recorder = build_queue(times)
    queue.run_until(cut)
    due = {ident for ident, time in enumerate(times) if time <= cut}
    assert {ident for ident, _ in recorder.calls} == due
    assert queue.pending == len(times) - len(due)
    queue.run_until(max(times))
    fired = [ident for ident, _ in recorder.calls]
    assert sorted(fired) == list(range(len(times)))  # each exactly once
    assert queue.pending == 0
    assert queue.fired == len(fired)


@settings(max_examples=100, deadline=None)
@given(times=schedule_times)
def test_timestamps_monotonic(times):
    queue, recorder = build_queue(times)
    queue.run_until(max(times))
    fire_times = [time for _, time in recorder.calls]
    assert fire_times == sorted(fire_times)
    assert fire_times == [times[ident] for ident, _ in recorder.calls]


@settings(max_examples=50, deadline=None)
@given(
    times=st.lists(
        st.integers(min_value=0, max_value=30), min_size=1, max_size=40
    ),
    advance=st.integers(min_value=0, max_value=40),
)
def test_past_scheduling_clamps_forward(times, advance):
    """An event scheduled before ``now`` fires at ``now``, never earlier."""
    queue = EventQueue()
    recorder = Recorder(queue)
    queue.run_until(advance)
    assert queue.now == advance
    for time in times:
        queue.at(time, recorder.hit, (time,))
    queue.run_until(max(times + [advance]))
    assert len(recorder.calls) == len(times)
    for _, fired_time in recorder.calls:
        assert fired_time >= advance


@settings(max_examples=100, deadline=None)
@given(times=schedule_times)
def test_fifo_ties_fire_in_schedule_order(times):
    """Equal times fire in schedule order: the queue is FIFO on ties."""
    queue, recorder = build_queue(times)
    queue.run_until(max(times))
    keyed = [(times[ident], ident) for ident, _ in recorder.calls]
    assert keyed == sorted(keyed)


def assert_one_queue(design):
    """The design's queue is an EventQueue its interconnect shares."""
    assert isinstance(design.queue, EventQueue)
    for part in ("bus", "crossbar", "noc"):
        component = getattr(design, part, None)
        if component is not None:
            assert component.queue is design.queue, part


@pytest.mark.parametrize("bus_model", BUS_MODELS)
@pytest.mark.parametrize("name", sorted(DESIGN_FACTORIES))
def test_every_design_owns_one_queue(name, bus_model):
    design = build_design(name, bus_model=bus_model)
    assert_one_queue(design)
    if bus_model == "mesh":
        assert mesh_noc(design).queue is design.queue


@pytest.mark.parametrize(
    "build",
    [lambda: PrivateCaches(bus_occupancy=8), NurapidCache],
    ids=["PrivateCaches-occupancy-8", "NurapidCache"],
)
def test_directly_built_design_owns_one_queue(build):
    assert_one_queue(build())


def test_interconnect_built_alone_gets_a_fresh_queue():
    buses = [SnoopBus(latency=32), SnoopBus(latency=32)]
    crossbars = [Crossbar(((1,),)), Crossbar(((1,),))]
    nocs = [MeshNoC(4), MeshNoC(4)]
    for first, second in (buses, crossbars, nocs):
        assert isinstance(first.queue, EventQueue)
        assert first.queue is not second.queue


def test_eventq_actually_schedules():
    """The queue holds only deferred deliveries: a race-free run fires
    and leaves none, while the queue follows the transactions' cycles."""
    design = build_design("private")
    system = CmpSystem(design)
    system.run(make_workload("oltp").events(accesses_per_core=500))
    assert design.queue.fired == 0
    assert design.queue.pending == 0
    assert design.queue.now > 0


def test_env_variable_selects_backend(monkeypatch):
    """``eventq``, the retired backend's name, builds the atomic bus."""
    monkeypatch.setenv("REPRO_BUS_MODEL", "eventq")
    design = build_design("private")
    assert type(design.bus) is SnoopBus
    assert design.bus.queue is design.queue
    monkeypatch.setenv("REPRO_BUS_MODEL", "mesh")
    assert isinstance(build_design("private").bus, MeshNoC)
    monkeypatch.setenv("REPRO_BUS_MODEL", "wishbone")
    with pytest.raises(ValueError):
        build_design("private")
