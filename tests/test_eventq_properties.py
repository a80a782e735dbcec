"""Property-based tests: EventQueue scheduling guarantees.

Hypothesis drives random schedules (times, a partial ``run_until``
cut, past-time stragglers) against the event queue that holds the
race faults' deferred deliveries, and checks the contracts those
deliveries lean on: every scheduled event fires exactly once,
``run_until`` fires exactly the events due by its time, fire times are
globally monotonic, and equal times fire in schedule order.  A final
property closes the loop at the system level: random bus latencies and
occupancies keep the atomic and eventq backends statistically
identical.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.caches.private import PrivateCaches
from repro.cpu.system import CmpSystem
from repro.interconnect import EventQueue, attach_eventq
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


@settings(max_examples=15, deadline=None)
@given(
    latency=st.integers(min_value=1, max_value=40),
    occupancy=st.integers(min_value=0, max_value=16),
    seed=st.integers(min_value=0, max_value=999),
)
def test_backends_match_under_random_bus_parameters(latency, occupancy, seed):
    """System-level closure: any (latency, occupancy, workload seed)
    keeps atomic and eventq statistics identical."""
    fingerprints = []
    for use_eventq in (False, True):
        design = PrivateCaches(bus_latency=latency, bus_occupancy=occupancy)
        if use_eventq:
            attach_eventq(design)
        system = CmpSystem(design)
        events = make_workload("oltp", seed=seed).events(accesses_per_core=150)
        system.run(events)
        stats = system.stats()
        fingerprints.append(
            (
                dict(stats.accesses.counts),
                [(c.instructions, c.cycles) for c in stats.per_core],
                stats.bus.transactions if stats.bus is not None else None,
            )
        )
    assert fingerprints[0] == fingerprints[1]
