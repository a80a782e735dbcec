"""Deterministic discrete-event scheduler for the on-chip interconnect.

:class:`EventQueue` is a priority queue of :class:`ScheduledEvent`
actions keyed on ``(time, priority, tiebreak, seq)``.  It turns the
atomic interconnect models into *split-phase* transactions (request →
arbitrate → snoop → grant/data) while keeping their synchronous APIs:
a component schedules its phases and immediately drains the queue up
to the transaction's completion time, so callers observe the same
latencies and statistics as the atomic model — the zero-latency
degenerate schedule is bit-identical by construction.

Ordering guarantees:

* **global monotonicity** — events fire in non-decreasing time order;
  an event scheduled in the past (component virtual clocks are not
  globally ordered) is clamped forward to the queue's current time;
* **per-track FIFO** — two events on the same ``track`` with the same
  (time, priority) fire in schedule order, always.  Tracks model a
  source that must not be internally reordered (one bus agent, one
  crossbar port);
* **deterministic tie-breaking** — with the default ``"fifo"``
  tiebreak, *all* same-(time, priority) events fire in schedule order.
  The ``"seeded"`` tiebreak instead shuffles ties *between* tracks
  with a pure function of ``(seed, track, time)`` (per-track FIFO
  still holds), exploring alternative legal interleavings
  reproducibly from the seed.

Events left in the queue past a transaction's completion (the harness's
race faults schedule these deliberately) are drained by
:meth:`~repro.cpu.system.CmpSystem.step` as the cores' virtual clocks
advance.  Actions must be picklable (bound methods plus argument
tuples, never closures) so a checkpoint taken with a pending deferred
event resumes exactly.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional, Tuple
from zlib import crc32

from repro.common.rng import DEFAULT_SEED, stream

#: Recognized tie-breaking policies.
TIEBREAKS = ("fifo", "seeded")


class ScheduledEvent:
    """One queued action: fire ``action(*args)`` at ``time``.

    A plain slotted class; the queue is on the eventq-mode hot path.
    """

    __slots__ = (
        "time", "priority", "seq", "action", "args", "label", "track",
        "cancelled", "fired",
    )

    def __init__(
        self,
        time: int,
        priority: int,
        seq: int,
        action: "Callable[..., Any]",
        args: "Tuple[Any, ...]",
        label: str,
        track: "Optional[object]",
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.action = action
        self.args = args
        self.label = label
        self.track = track
        self.cancelled = False
        self.fired = False

    def __repr__(self) -> str:
        return (
            f"ScheduledEvent(t={self.time}, prio={self.priority}, "
            f"seq={self.seq}, label={self.label!r}, track={self.track!r})"
        )


class EventQueue:
    """Deterministic discrete-event scheduler.

    Args:
        seed: seeds both the tie-break function and :attr:`rng` (the
            stream interconnect perturbations draw victim choices from).
        tiebreak: ``"fifo"`` (schedule order breaks ties — the
            differential-equivalence default) or ``"seeded"`` (ties
            between different tracks are shuffled deterministically).
        record_history: keep ``(time, track, label, seq)`` per fired
            event in :attr:`history` (tests; off by default).
    """

    def __init__(
        self,
        seed: int = DEFAULT_SEED,
        tiebreak: str = "fifo",
        record_history: bool = False,
    ) -> None:
        if tiebreak not in TIEBREAKS:
            raise ValueError(
                f"unknown tiebreak {tiebreak!r}; choose from {TIEBREAKS}"
            )
        self.seed = seed
        self.tiebreak = tiebreak
        self.now = 0
        self.pending = 0
        self.fired = 0
        self.rng = stream("interconnect.eventq", seed)
        self.record_history = record_history
        self.history: "List[Tuple[int, object, str, int]]" = []
        self._seq = 0
        self._heap: "List[Tuple[int, int, int, int, ScheduledEvent]]" = []

    # ------------------------------------------------------------------
    # Scheduling

    def _tiebreak_key(self, track: "Optional[object]", time: int) -> int:
        """Pure function of (seed, track, time): same-track ties share a
        key (FIFO among themselves via seq), cross-track ties shuffle."""
        if self.tiebreak == "fifo":
            return 0
        return crc32(f"{self.seed}|{track!r}|{time}".encode())

    def at(
        self,
        time: int,
        action: "Callable[..., Any]",
        args: "Tuple[Any, ...]" = (),
        priority: int = 0,
        label: str = "",
        track: "Optional[object]" = None,
    ) -> ScheduledEvent:
        """Schedule ``action(*args)`` at absolute ``time``.

        A past ``time`` is clamped to :attr:`now` — component virtual
        clocks (per-core cycle counts) are not globally ordered, so the
        queue enforces monotonicity instead of rejecting stragglers.
        """
        if time < self.now:
            time = self.now
        seq = self._seq
        self._seq = seq + 1
        event = ScheduledEvent(time, priority, seq, action, args, label, track)
        heapq.heappush(
            self._heap,
            (time, priority, self._tiebreak_key(track, time), seq, event),
        )
        self.pending += 1
        return event

    def schedule(
        self,
        delay: int,
        action: "Callable[..., Any]",
        args: "Tuple[Any, ...]" = (),
        priority: int = 0,
        label: str = "",
        track: "Optional[object]" = None,
    ) -> ScheduledEvent:
        """Schedule ``action(*args)`` at ``now + delay`` (delay >= 0)."""
        if delay < 0:
            raise ValueError(f"delay must be >= 0, got {delay}")
        return self.at(self.now + delay, action, args, priority, label, track)

    def cancel(self, event: ScheduledEvent) -> bool:
        """Cancel a pending event; False if it already fired/cancelled."""
        if event.fired or event.cancelled:
            return False
        event.cancelled = True
        self.pending -= 1
        return True

    # ------------------------------------------------------------------
    # Draining

    def _fire(self, event: ScheduledEvent) -> None:
        event.fired = True
        self.pending -= 1
        self.fired += 1
        if self.record_history:
            self.history.append(
                (event.time, event.track, event.label, event.seq)
            )
        event.action(*event.args)

    def run_until(self, time: int) -> int:
        """Fire every event due at or before ``time``; returns the count.

        Actions may schedule further events; those also fire now if due.
        ``now`` never moves backwards.
        """
        count = 0
        heap = self._heap
        while heap and heap[0][0] <= time:
            event = heapq.heappop(heap)[4]
            if event.cancelled:
                continue
            if event.time > self.now:
                self.now = event.time
            self._fire(event)
            count += 1
        if time > self.now:
            self.now = time
        return count

    def run_next(self) -> "Optional[ScheduledEvent]":
        """Fire the single earliest pending event (None if queue empty)."""
        heap = self._heap
        while heap:
            event = heapq.heappop(heap)[4]
            if event.cancelled:
                continue
            if event.time > self.now:
                self.now = event.time
            self._fire(event)
            return event
        return None

    def drain(self) -> int:
        """Fire everything pending regardless of time; returns the count."""
        count = 0
        while self.run_next() is not None:
            count += 1
        return count

    # ------------------------------------------------------------------
    # Versioned checkpointing

    def state_dict(self) -> dict:
        """Scheduler scalars and RNG state — *not* the pending events.

        Pending events hold bound actions into the component graph; the
        checkpoint layer encodes them by owner/name (see
        ``repro.harness.checkpoint``) and replays them through
        :meth:`restore_event`.
        """
        from repro.common import serialization

        return {
            "seed": self.seed,
            "tiebreak": self.tiebreak,
            "now": self.now,
            "fired": self.fired,
            "seq": self._seq,
            "rng": serialization.rng_state(self.rng),
        }

    def load_state_dict(self, state: dict, path: str = "eventq") -> None:
        from repro.common import serialization
        from repro.common.serialization import StateDictError, require

        tiebreak = require(state, "tiebreak", path)
        if tiebreak not in TIEBREAKS:
            raise StateDictError(
                f"{path}.tiebreak", f"unknown policy {tiebreak!r}"
            )
        self.seed = int(require(state, "seed", path))
        self.tiebreak = tiebreak
        self.now = int(require(state, "now", path))
        self.fired = int(require(state, "fired", path))
        self._seq = int(require(state, "seq", path))
        serialization.load_rng(self.rng, require(state, "rng", path), f"{path}.rng")

    def restore_event(
        self,
        time: int,
        priority: int,
        seq: int,
        action: "Callable[..., Any]",
        args: "Tuple[Any, ...]",
        label: str,
        track: "Optional[object]",
    ) -> ScheduledEvent:
        """Re-enqueue a checkpointed pending event with its original seq.

        Unlike :meth:`at`, the sequence number is *restored*, not newly
        allocated, so the heap ordering — ``(time, priority, tiebreak,
        seq)`` — reproduces the pre-checkpoint schedule exactly.
        """
        event = ScheduledEvent(time, priority, seq, action, args, label, track)
        heapq.heappush(
            self._heap,
            (time, priority, self._tiebreak_key(track, time), seq, event),
        )
        self.pending += 1
        return event

    def pending_events(self) -> "List[ScheduledEvent]":
        """Uncancelled pending events in heap order (for checkpointing)."""
        return [
            item[4] for item in sorted(self._heap) if not item[4].cancelled
        ]


def attach_eventq(
    design,
    seed: int = DEFAULT_SEED,
    tiebreak: str = "fifo",
) -> EventQueue:
    """Rebase ``design``'s interconnect on a fresh event queue.

    Sets ``design.queue`` and shares the queue with the design's bus
    and crossbar when present (attribute-probed, so any L2 design —
    including ones without an interconnect — accepts it).  Returns the
    queue.
    """
    queue = EventQueue(seed=seed, tiebreak=tiebreak)
    design.queue = queue
    bus = getattr(design, "bus", None)
    if bus is not None and hasattr(bus, "queue"):
        bus.queue = queue
    crossbar = getattr(design, "crossbar", None)
    if crossbar is not None and hasattr(crossbar, "queue"):
        crossbar.queue = queue
    noc = getattr(design, "noc", None)
    if noc is not None and hasattr(noc, "queue"):
        noc.queue = queue
    return queue


__all__ = ["EventQueue", "ScheduledEvent", "TIEBREAKS", "attach_eventq"]
